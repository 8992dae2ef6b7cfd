"""repro.exec — the shared push-based execution kernel.

The physical substrate under the Figure 4 API layers of the survey:
the dataflow runner and the actor-style job runtime (under the DSL and
streaming SQL) lower to kernel :class:`Operator` plans.  CQL's delta
executor and the DSMS evaluate their own physical operators instead,
one instant at a time.  The protocol is dual-mode — per-element and
columnar micro-batch (:class:`RecordBatch`, :meth:`Plan.push_batch`) —
with vectorized kernels for the hot operators in
:mod:`repro.exec.vector`.  See DESIGN.md § "Execution kernel" and
§ "Vectorized execution".
"""

from repro.exec.batch import HAS_NUMPY, RecordBatch
from repro.exec.exchange import Exchange, Merge, PartitionGate, fission
from repro.exec.fusion import fuse_fixpoint
from repro.exec.operator import (
    CollectingEmitter,
    StageEmitter,
    Emitter,
    FusedOperator,
    Operator,
    OperatorContext,
    batch_capable,
)
from repro.exec.plan import Plan
from repro.exec.state import DictStateBackend, LSMStateBackend, StateBackend
from repro.exec.vector import (
    VectorFilter,
    VectorKeyedAggregate,
    VectorMap,
    VectorProject,
    VectorRangeWindow,
    keyed_count,
    keyed_fold,
    keyed_sum,
)
from repro.exec.watermarks import WatermarkTracker

__all__ = [
    "CollectingEmitter",
    "DictStateBackend",
    "Emitter",
    "Exchange",
    "FusedOperator",
    "HAS_NUMPY",
    "LSMStateBackend",
    "Merge",
    "Operator",
    "OperatorContext",
    "PartitionGate",
    "Plan",
    "RecordBatch",
    "StageEmitter",
    "StateBackend",
    "VectorFilter",
    "VectorKeyedAggregate",
    "VectorMap",
    "VectorProject",
    "VectorRangeWindow",
    "WatermarkTracker",
    "batch_capable",
    "fission",
    "fuse_fixpoint",
    "keyed_count",
    "keyed_fold",
    "keyed_sum",
]
