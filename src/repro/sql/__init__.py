"""sql — the streaming SQL dialect and optimizers (Sections 4.1.3, 4.2).

The dialect uses windows as GROUP BY constructs (``TUMBLE``/``HOP``/
``SESSION``) with an ``EMIT`` clause, in the "one SQL to rule them all"
direction; a query runs as a CQL standing query.  The package also hosts
the optimizers shared with the CQL front end: the rule-based rewriter
(:mod:`repro.plan.rules`) and the cost-based volcano join enumerator
(:mod:`repro.sql.volcano`).
"""

from repro.sql.ast import (
    CreateDynamicTable,
    EmitMode,
    GroupWindow,
    GroupWindowKind,
    SQLStatement,
)
from repro.plan.rules import (
    DEFAULT_RULES,
    extract_equijoin_keys,
    fuse_filters,
    optimize,
    push_filter_through_join,
    remove_trivial_filter,
)
from repro.plan.signature import plan_signature
from repro.sql.parser import parse_sql, parse_statement
from repro.sql.translate import (
    WINDOW_END,
    WINDOW_START,
    SQLEngine,
    run_sql,
)
from repro.sql.volcano import (
    PlanCost,
    SourceStats,
    Statistics,
    estimate,
    volcano_optimize,
)

__all__ = [
    # dialect
    "parse_sql", "parse_statement", "CreateDynamicTable",
    "SQLStatement", "EmitMode", "GroupWindow",
    "GroupWindowKind", "SQLEngine", "run_sql",
    "WINDOW_START", "WINDOW_END",
    # rule-based optimizer
    "optimize", "DEFAULT_RULES", "fuse_filters", "remove_trivial_filter",
    "push_filter_through_join", "extract_equijoin_keys", "plan_signature",
    # volcano
    "Statistics", "SourceStats", "PlanCost", "estimate",
    "volcano_optimize",
]
