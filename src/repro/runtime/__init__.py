"""runtime — the streaming-system substrate of paper Figure 5.

Partitioned broker (Kafka stand-in), LSM key-value store (RocksDB
stand-in), deterministic actor system, job graphs with operator chaining,
parallel subtask execution with watermarks, and aligned-barrier
checkpointing with exactly-once recovery.
"""

from repro.runtime.actors import (
    Actor,
    ActorContext,
    ActorRef,
    ActorSystem,
    FunctionActor,
)
from repro.runtime.broker import (
    Broker,
    BrokerRecord,
    ConsumerGroup,
    Partition,
    Topic,
    replay,
    replay_compacted,
)
from repro.runtime.checkpoint import CheckpointCoordinator, CheckpointSnapshot
from repro.runtime.dag import (
    ChainedOperator,
    CollectSinkOperator,
    Element,
    FailOnceOperator,
    FilterOperator,
    FlatMapOperator,
    JobGraph,
    KeyByOperator,
    MapOperator,
    StreamOperator,
    TimerService,
    chain_operators,
)
from repro.runtime.job import (
    BarrierMsg,
    DataMsg,
    EndMsg,
    JobFailure,
    JobResult,
    JobRunner,
    RunSourceMsg,
    WatermarkMsg,
)
from repro.runtime.kvstore import (
    TOMBSTONE,
    DictStore,
    LSMStore,
    MemTable,
    SortedRun,
    WriteAheadLog,
)
from repro.runtime.placement import (
    ComputeNode,
    FissionAdvice,
    Network,
    Placement,
    advise_fission,
    bottlenecks,
    place,
)
from repro.runtime.partitioning import (
    BroadcastPartitioner,
    ForwardPartitioner,
    HashPartitioner,
    Partitioner,
    RebalancePartitioner,
    default_hash,
    partition_of,
)

__all__ = [
    # broker
    "Broker", "Topic", "Partition", "BrokerRecord", "ConsumerGroup",
    "replay", "replay_compacted",
    # kv store
    "LSMStore", "DictStore", "MemTable", "SortedRun", "WriteAheadLog",
    "TOMBSTONE",
    # actors
    "Actor", "ActorRef", "ActorSystem", "ActorContext", "FunctionActor",
    # partitioning
    "Partitioner", "ForwardPartitioner", "HashPartitioner",
    "BroadcastPartitioner", "RebalancePartitioner", "default_hash",
    "partition_of",
    # dag & operators
    "JobGraph", "Element", "StreamOperator", "MapOperator",
    "FilterOperator", "FlatMapOperator", "KeyByOperator",
    "ChainedOperator", "CollectSinkOperator", "FailOnceOperator",
    "TimerService", "chain_operators",
    # execution
    "JobRunner", "JobResult", "JobFailure", "DataMsg", "WatermarkMsg",
    "BarrierMsg", "EndMsg", "RunSourceMsg",
    # checkpointing
    "CheckpointCoordinator", "CheckpointSnapshot",
    # placement & fission
    "Network", "ComputeNode", "Placement", "place",
    "FissionAdvice", "advise_fission", "bottlenecks",
]
