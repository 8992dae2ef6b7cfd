"""Core continuous-query abstractions (paper Sections 2–3).

This package is the semantic foundation of the library: the time domain,
streams, time-varying relations, windows, the CQL S2R/R2R/R2S operator
trichotomy, the reference continuous-semantics evaluators, monotonicity
analysis, and snapshot reducibility.
"""

from repro.core.errors import (
    BrokerError,
    GraphError,
    ParseError,
    PlanError,
    ReproError,
    RSPError,
    SchemaError,
    StateError,
    TimeError,
    WindowError,
)
from repro.core.monotonicity import (
    AppendOnlyLog,
    IncrementalSPJ,
    MonotonicityClass,
    classify_operator,
    classify_plan,
)
from repro.core.operators import (
    AggregateKind,
    AggregateSpec,
    R2SKind,
    aggregate,
    cross,
    difference,
    distinct,
    dstream,
    equijoin,
    extend,
    intersection,
    istream,
    join,
    now,
    project,
    relation_to_stream,
    rename,
    rstream,
    select,
    stream_to_relation,
    unbounded,
    union,
)
from repro.core.punctuation import (
    FINAL_WATERMARK,
    AscendingWatermarks,
    BoundedOutOfOrderness,
    PeriodicWatermarks,
    Punctuation,
    Watermark,
    WatermarkGenerator,
    WatermarkTracker,
)
from repro.core.records import Record, Schema, records_from_dicts
from repro.core.relation import Bag, Changelog, TimeVaryingRelation
from repro.core.semantics import (
    babcock_sellis_evaluation,
    continuous_evaluation,
    count_query,
    distinct_query,
    divergence_profile,
    empirically_monotonic,
    filter_query,
    join_query,
    max_query,
    semantics_agree,
    window_filter_query,
)
from repro.core.snapshot import (
    LogicalStream,
    ValidityElement,
    check_snapshot_reducibility,
    logical_duplicate_elimination,
    logical_first_n,
    logical_join,
    logical_project,
    logical_select,
    logical_union,
    reducibility_counterexample,
    timeslice,
)
from repro.core.stream import Stream, StreamElement, merge_streams
from repro.core.time import (
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    Interval,
    LogicalClock,
    TimeKind,
    Timestamp,
    check_progression,
    hours,
    millis,
    minutes,
    seconds,
)
from repro.core.windows import (
    CountWindow,
    LandmarkWindow,
    NowWindow,
    PartitionedWindow,
    RangeWindow,
    SessionWindow,
    SlidingWindow,
    SteppedRangeWindow,
    TumblingWindow,
    UnboundedWindow,
    Window,
    WindowAssigner,
    merge_sessions,
    window_contents,
)

__all__ = [
    # errors
    "ReproError", "SchemaError", "TimeError", "WindowError", "ParseError",
    "PlanError", "StateError", "BrokerError", "GraphError", "RSPError",
    # time
    "Timestamp", "TimeKind", "Interval", "LogicalClock", "check_progression",
    "millis", "seconds", "minutes", "hours", "MIN_TIMESTAMP", "MAX_TIMESTAMP",
    # records
    "Schema", "Record", "records_from_dicts",
    # streams & relations
    "Stream", "StreamElement", "merge_streams", "Bag", "Changelog",
    "TimeVaryingRelation",
    # windows
    "Window", "WindowAssigner", "TumblingWindow", "SlidingWindow",
    "RangeWindow", "SteppedRangeWindow", "NowWindow", "UnboundedWindow", "LandmarkWindow",
    "SessionWindow", "CountWindow", "PartitionedWindow", "merge_sessions",
    "window_contents",
    # operators
    "stream_to_relation", "now", "unbounded", "select", "project", "rename",
    "cross", "join", "equijoin", "union", "difference", "intersection",
    "distinct", "aggregate", "extend", "AggregateKind", "AggregateSpec",
    "rstream", "istream", "dstream", "relation_to_stream", "R2SKind",
    # semantics
    "continuous_evaluation", "babcock_sellis_evaluation",
    "empirically_monotonic", "semantics_agree", "divergence_profile",
    "filter_query", "count_query", "max_query", "window_filter_query",
    "distinct_query", "join_query",
    # monotonicity
    "MonotonicityClass", "classify_operator", "classify_plan",
    "IncrementalSPJ", "AppendOnlyLog",
    # snapshot reducibility
    "LogicalStream", "ValidityElement", "timeslice", "logical_select",
    "logical_project", "logical_union", "logical_join", "logical_first_n",
    "logical_duplicate_elimination", "check_snapshot_reducibility",
    "reducibility_counterexample",
    # punctuation
    "Watermark", "Punctuation", "WatermarkGenerator", "AscendingWatermarks",
    "BoundedOutOfOrderness", "PeriodicWatermarks", "WatermarkTracker",
    "FINAL_WATERMARK",
]
