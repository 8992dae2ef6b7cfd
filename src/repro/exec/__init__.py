"""repro.exec — the push-based operator protocol and its state.

The per-element :class:`Operator` protocol with its emitters, the keyed
state backends (dict and LSM) behind ``OperatorContext.state_factory``,
and the min-combine :class:`WatermarkTracker`.  The dataflow runner
drives its own pipeline tree of these operators; the actor job runtime
under the DSL hosts them in subtasks, and the view-maintenance
strategies are operators too.  CQL's delta executor and the DSMS
evaluate their own physical operators instead, one instant at a time.
See DESIGN.md § "Execution kernel".
"""

from repro.exec.operator import (
    CollectingEmitter,
    StageEmitter,
    Emitter,
    Operator,
    OperatorContext,
)
from repro.exec.state import DictStateBackend, LSMStateBackend, StateBackend
from repro.exec.watermarks import WatermarkTracker

__all__ = [
    "CollectingEmitter",
    "DictStateBackend",
    "Emitter",
    "LSMStateBackend",
    "Operator",
    "OperatorContext",
    "StageEmitter",
    "StateBackend",
    "WatermarkTracker",
]
