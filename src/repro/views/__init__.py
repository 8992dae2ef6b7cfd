"""repro.views — dynamic tables: a cascading materialized-view DAG.

The streaming-database pillar (paper §5.1): standing relational queries
materialised into tables other queries can scan, organised into a
dependency DAG with topologically-ordered incremental refresh driven by
CDC deltas, per-view ``target_lag`` (including ``downstream``
propagation), suspend/resume, and snapshot-isolated reads.  A view's plan
runs on CQL's physical operators (:mod:`repro.cql.executor`): one delta
algebra for continuous queries and view maintenance.

Module map:

* :mod:`repro.views.dag` — dependency-graph scheduling helpers
* :mod:`repro.views.service` — tables, views, the refresh scheduler

Each table and view keeps its contents and CDC deltas in one
:class:`repro.core.relation.Changelog` (re-exported here), the delta log
a standing query's answer keeps too.  Views are checked against
:func:`recompute`, the one reference (:mod:`repro.cql.reference`).
"""

from repro.core.relation import Changelog
from repro.cql.reference import recompute
from repro.views.dag import (
    DOWNSTREAM,
    below_suspended,
    consumers_of,
    depth_map,
    effective_lags,
    topo_order,
)
from repro.views.service import (
    BaseTable,
    DynamicTable,
    DynamicTableService,
    HISTORY_LIMIT,
    make_scan,
)

__all__ = [
    "BaseTable", "Changelog", "DOWNSTREAM", "DynamicTable",
    "DynamicTableService", "HISTORY_LIMIT", "below_suspended",
    "consumers_of", "depth_map", "effective_lags", "make_scan", "recompute",
    "topo_order",
]
