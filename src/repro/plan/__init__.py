"""repro.plan — the unified planning layer (paper §3.2, Figure 3).

One logical IR every frontend lowers into, one rule-based rewriter, one
canonical signature scheme, and the multi-query sharing memo.  Depends
only on :mod:`repro.core`; the CQL/SQL/RSP/dataflow frontends depend on
this package, never the other way round.

Module map:

* :mod:`repro.plan.exprs` — scalar expressions, window specifications
* :mod:`repro.plan.ir` — the LogicalOp tree language
* :mod:`repro.plan.rules` — the rewrite-rule catalog and ``optimize``
* :mod:`repro.plan.signature` — canonical commutativity-aware signatures
* :mod:`repro.plan.monotone` — monotonicity-aware strategy selection
* :mod:`repro.plan.parallel` — fission/partitionability analysis
* :mod:`repro.plan.batching` — instant-quantum emission-safety analysis
* :mod:`repro.plan.sharing` — the multi-query subplan memo
* :mod:`repro.plan.explain` — text renderers for logical & kernel plans
"""

from repro.plan.explain import (
    explain,
    explain_analyzed,
    explain_kernel,
    explain_logical,
)
from repro.plan.exprs import (
    Binary,
    BinOp,
    Column,
    EmitMode,
    Expr,
    FuncCall,
    GroupWindow,
    GroupWindowKind,
    Literal,
    NOW_SPEC,
    Star,
    TIME_BASED_KINDS,
    UNBOUNDED_SPEC,
    Unary,
    WindowSpec,
    WindowSpecKind,
    columns_resolvable,
    conjoin,
    contains_aggregate,
    equality_columns,
    split_conjuncts,
    substitute_columns,
)
from repro.plan.ir import (
    Aggregate,
    AggregateExpr,
    BGPMatch,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    OpaqueOp,
    OpaqueSource,
    Project,
    RelToStream,
    RelationScan,
    SetOp,
    StreamScan,
    WindowAggregate,
    WindowOp,
    scans_of,
    walk,
)
from repro.plan.batching import (
    BatchReport,
    batch_safety,
    decide_batch_size,
)
from repro.plan.parallel import (
    PartitionScheme,
    decide_parallelism,
    partition_scheme,
)
from repro.plan.monotone import (
    IncrementalStrategy,
    append_only_inputs,
    incremental_strategy,
    strategy_notes,
)
from repro.plan.rules import (
    DEFAULT_RULES,
    Rule,
    collapse_distinct,
    compose_projects,
    extract_equijoin_keys,
    fuse_filters,
    optimize,
    push_filter_through_join,
    push_filter_through_window,
    remove_identity_project,
    remove_trivial_filter,
)
from repro.plan.sharing import (
    SubplanMemo,
    absorb_views,
    memo_key,
    shareable,
    view_memo_key,
)
from repro.plan.signature import canonical_predicate, plan_signature

__all__ = [
    "Aggregate", "AggregateExpr", "BGPMatch", "BatchReport", "Binary",
    "BinOp", "Column", "absorb_views", "view_memo_key",
    "DEFAULT_RULES", "Distinct", "EmitMode", "Expr", "Filter", "FuncCall",
    "GroupWindow", "GroupWindowKind", "IncrementalStrategy", "Join",
    "Literal", "LogicalOp", "NOW_SPEC", "OpaqueOp", "OpaqueSource",
    "PartitionScheme", "Project", "RelToStream", "RelationScan", "Rule",
    "SetOp", "Star",
    "StreamScan", "SubplanMemo", "TIME_BASED_KINDS", "UNBOUNDED_SPEC",
    "Unary", "WindowAggregate", "WindowOp", "WindowSpec", "WindowSpecKind",
    "append_only_inputs", "batch_safety", "canonical_predicate",
    "collapse_distinct",
    "columns_resolvable", "compose_projects", "conjoin",
    "contains_aggregate", "decide_batch_size", "decide_parallelism",
    "equality_columns",
    "explain", "explain_analyzed",
    "explain_kernel", "explain_logical", "extract_equijoin_keys",
    "fuse_filters",
    "incremental_strategy", "memo_key", "optimize", "partition_scheme",
    "plan_signature",
    "push_filter_through_join", "push_filter_through_window",
    "remove_identity_project", "remove_trivial_filter", "scans_of",
    "shareable", "split_conjuncts", "strategy_notes", "substitute_columns",
    "walk",
]
