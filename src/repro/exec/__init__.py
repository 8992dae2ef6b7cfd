"""repro.exec — the shared push-based execution kernel.

The physical substrate under the Figure 4 API layers of the survey:
the dataflow runner and the actor-style job runtime (under the DSL and
streaming SQL) lower to kernel :class:`Operator` plans.  CQL's delta
executor and the DSMS evaluate their own physical operators instead,
one instant at a time.  The protocol is per-element: a plan pushes one
element at a time through its operators.  See DESIGN.md § "Execution
kernel".
"""

from repro.exec.fusion import fuse_fixpoint
from repro.exec.operator import (
    CollectingEmitter,
    StageEmitter,
    Emitter,
    FusedOperator,
    Operator,
    OperatorContext,
)
from repro.exec.plan import Plan
from repro.exec.state import DictStateBackend, LSMStateBackend, StateBackend
from repro.exec.watermarks import WatermarkTracker

__all__ = [
    "CollectingEmitter",
    "DictStateBackend",
    "Emitter",
    "FusedOperator",
    "LSMStateBackend",
    "Operator",
    "OperatorContext",
    "Plan",
    "StageEmitter",
    "StateBackend",
    "WatermarkTracker",
    "fuse_fixpoint",
]
