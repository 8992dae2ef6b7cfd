"""DSMS — the Data Stream Management System of paper Figure 3.

The architectural components (Store / Scratch / Throw), bounded input
queues, schedulers and load-shedding policies, assembled around the CQL
incremental executor by :class:`~repro.dsms.engine.DSMSEngine`.
"""

from repro.dsms.components import Scratch, Store, Throw
from repro.dsms.engine import DSMSEngine, QueryHandle, SchedulingUnit
from repro.dsms.metrics import Gauge, QueryMetrics
from repro.dsms.queues import InputQueue
from repro.dsms.scheduler import (
    FIFOScheduler,
    LongestQueueScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.dsms.shedding import (
    NoShedding,
    RandomShedder,
    SemanticShedder,
    Shedder,
)

__all__ = [
    "DSMSEngine", "QueryHandle", "SchedulingUnit",
    "Store", "Scratch", "Throw",
    "InputQueue",
    "Scheduler", "RoundRobinScheduler", "LongestQueueScheduler",
    "FIFOScheduler",
    "Shedder", "NoShedding", "RandomShedder", "SemanticShedder",
    "Gauge", "QueryMetrics",
]
