"""viewmaint — streaming-database view maintenance (paper Section 5.1).

DBToaster-style higher-order delta views and the InvaliDB-style
push-based real-time query layer.  The maintenance spectrum for
continuous views (recompute / eager / lazy / split) runs on the one view
engine, :mod:`repro.views`: each point is a dynamic table's target lag.
"""

from repro.viewmaint.dbtoaster import (
    GroupedJoinAggregateView,
    JoinAggregateView,
)
from repro.viewmaint.invalidb import (
    ChangeEvent,
    EventKind,
    LiveQuery,
    RealTimeDatabase,
)

__all__ = [
    "JoinAggregateView", "GroupedJoinAggregateView",
    "RealTimeDatabase", "LiveQuery", "ChangeEvent", "EventKind",
]
