"""dsl — the functional stream-processing DSL of paper Section 4.1.2.

A Flink-style DataStream API (Listing 2) compiling to the actor runtime,
pluggable keyed-state backends (heap or LSM), and the stream/table duality
model (tables, changelog streams, and the conversions between them).
"""

from repro.dsl.duality import (
    changelog_of,
    compact,
    record_stream_of,
    table_from_changelog,
    table_from_record_stream,
)
from repro.dsl.environment import (
    DataStream,
    KeyedStream,
    SessionWindowedStream,
    StreamEnvironment,
    WindowedStream,
)
from repro.dsl.operators import (
    AggregateFunction,
    AvgAggregate,
    CountAggregate,
    DictBackend,
    LSMBackend,
    ProcessOperator,
    ReduceAggregate,
    RunningReduceOperator,
    SessionAggregateOperator,
    SumAggregate,
    WindowAggregateOperator,
    WindowJoinOperator,
)
from repro.dsl.table import ChangeRecord, Table

__all__ = [
    # environment / streams
    "StreamEnvironment", "DataStream", "KeyedStream", "WindowedStream",
    "SessionWindowedStream",
    # operators & state
    "DictBackend", "LSMBackend",
    "AggregateFunction", "ReduceAggregate", "CountAggregate",
    "SumAggregate", "AvgAggregate",
    "WindowAggregateOperator", "RunningReduceOperator", "ProcessOperator",
    "SessionAggregateOperator", "WindowJoinOperator",
    # duality
    "Table", "ChangeRecord", "table_from_changelog", "changelog_of",
    "table_from_record_stream", "record_stream_of", "compact",
]
