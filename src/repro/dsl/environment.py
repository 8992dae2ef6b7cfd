"""The functional DSL: Flink-style DataStream API (paper Listing 2).

The highest declarative layer of Figure 4 that still exposes functions:
``env.from_collection(...).filter(...).map(...).key_by(...).window(...)``.
Programs compile to a :class:`~repro.runtime.dag.JobGraph` and execute on
the actor runtime — the same layering as real streaming systems, where the
DSL is sugar over the dataflow level.

The paper's Listing 2 translates directly::

    transactions.filter(lambda t: t.amount > 100) \
                .map(lambda t: f"TID:{t.id}, Amount:{t.amount}")
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

from repro.core.errors import PlanError
from repro.core.time import Timestamp
from repro.core.windows import WindowAssigner
from repro.dsl.operators import (
    AggregateFunction,
    CountAggregate,
    ProcessOperator,
    ReduceAggregate,
    RunningReduceOperator,
    DictBackend,
    StateFactory,
    WindowAggregateOperator,
)
from repro.runtime.dag import (
    CollectSinkOperator,
    Element,
    FilterOperator,
    FlatMapOperator,
    JobGraph,
    KeyByOperator,
    MapOperator,
    StreamOperator,
)
from repro.runtime.job import JobResult, JobRunner
from repro.runtime.partitioning import (
    ForwardPartitioner,
    HashPartitioner,
    RebalancePartitioner,
)


class StreamEnvironment:
    """Builds and executes DSL programs.

    ``parallelism`` is the default subtask count; ``state_backend`` picks
    the keyed-state store (:class:`DictBackend` or
    :class:`~repro.dsl.operators.LSMBackend`); ``chaining`` toggles the
    fusion optimisation.
    """

    def __init__(self, parallelism: int = 1,
                 state_backend: StateFactory = DictBackend,
                 chaining: bool = True,
                 checkpoint_interval: int | None = None) -> None:
        if parallelism <= 0:
            raise PlanError("parallelism must be positive")
        self.parallelism = parallelism
        self.state_backend = state_backend
        self.chaining = chaining
        self.checkpoint_interval = checkpoint_interval
        self.graph = JobGraph("dsl-job")
        self._counter = itertools.count()
        self._sink_labels: list[str] = []
        self._last_runner: JobRunner | None = None

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._counter)}"

    def from_collection(self, elements: Iterable[tuple[Any, Timestamp]],
                        watermark_lag: Timestamp = 0) -> "DataStream":
        """A bounded source of (value, event-timestamp) pairs, split
        round-robin over ``parallelism`` source subtasks."""
        chunks: list[list[tuple[Any, Any, Timestamp]]] = [
            [] for _ in range(self.parallelism)]
        for i, (value, timestamp) in enumerate(elements):
            chunks[i % self.parallelism].append((value, None, timestamp))
        name = self._fresh("source")
        self.graph.add_source(name, chunks, watermark_lag=watermark_lag)
        return DataStream(self, name, keyed=False)

    def execute(self) -> JobResult:
        """Run the program; sink results are on the returned JobResult."""
        runner = JobRunner(self.graph, chaining=self.chaining,
                           checkpoint_interval=self.checkpoint_interval)
        self._last_runner = runner
        return runner.run()

    # -- planning ----------------------------------------------------------------

    def logical_plan(self):
        """The DSL job graph lowered onto the unified logical IR.

        DSL operators wrap arbitrary user functions, so vertices lower to
        :class:`~repro.plan.ir.OpaqueOp`/``OpaqueSource`` nodes keyed by
        the monotonicity-relevant operator kind — enough for
        :mod:`repro.plan.monotone`, plan signatures and EXPLAIN without
        interpreting the payloads.
        """
        from repro.plan.ir import OpaqueOp, OpaqueSource

        graph = self.graph
        memo: dict[str, Any] = {}

        def build(name: str):
            if name in memo:
                return memo[name]
            if name in graph.sources:
                plan = OpaqueSource("stream_scan", name)
            else:
                inputs = tuple(build(edge.upstream)
                               for edge in graph.upstream_edges(name))
                plan = OpaqueOp(_vertex_kind(name), name, inputs)
            memo[name] = plan
            return plan

        upstreams = {edge.upstream for edge in graph.edges}
        roots = sorted(graph.sinks) or sorted(
            name for name in graph.vertices if name not in upstreams)
        if not roots:
            raise PlanError("empty DSL program has no logical plan")
        out = build(roots[0])
        for other in roots[1:]:
            out = OpaqueOp("union", "outputs", (out, build(other)))
        return out

    def explain(self) -> str:
        """EXPLAIN: the lowered IR tree with strategy annotations."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.logical_plan())


#: DSL vertex-name prefix → unified-IR operator kind (the names
#: :mod:`repro.core.monotonicity` classifies).
_VERTEX_KINDS = {
    "source": "stream_scan",
    "map": "map",
    "filter": "filter",
    "flatmap": "flat_map",
    "rebalance": "rebalance",
    "union": "union",
    "keyby": "key_by",
    "reduce": "group_aggregate",
    "process": "process",
    "window": "group_aggregate",
    "session": "group_aggregate",
    "windowjoin": "join",
    "jointag": "map",
    "sink": "sink",
}


def _vertex_kind(name: str) -> str:
    """Map a generated vertex name (``map-3``, ``sink:out-7``) to its
    IR kind; unknown prefixes pass through (conservatively classified
    UNKNOWN by the monotonicity analysis)."""
    prefix = name.rsplit("-", 1)[0].split(":")[0].split("-")[0]
    return _VERTEX_KINDS.get(prefix, prefix)


class DataStream:
    """An unkeyed stream of values."""

    def __init__(self, env: StreamEnvironment, vertex: str,
                 keyed: bool) -> None:
        self.env = env
        self.vertex = vertex
        self.keyed = keyed

    # -- plumbing ---------------------------------------------------------------

    def _attach(self, prefix: str, factory: Callable[[], StreamOperator],
                partitioner=ForwardPartitioner,
                parallelism: int | None = None) -> str:
        name = self.env._fresh(prefix)
        self.env.graph.add_operator(
            name, factory, parallelism or self.env.parallelism)
        self.env.graph.connect(self.vertex, name, partitioner)
        return name

    # -- stateless transforms (Listing 2 surface) --------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "DataStream":
        return DataStream(self.env,
                          self._attach("map", lambda: MapOperator(fn)),
                          self.keyed)

    def filter(self, predicate: Callable[[Any], bool]) -> "DataStream":
        return DataStream(
            self.env,
            self._attach("filter", lambda: FilterOperator(predicate)),
            self.keyed)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "DataStream":
        return DataStream(
            self.env,
            self._attach("flatmap", lambda: FlatMapOperator(fn)),
            self.keyed)

    def rebalance(self) -> "DataStream":
        """Round-robin redistribution (breaks keyedness)."""
        name = self._attach("rebalance",
                            lambda: MapOperator(lambda v: v),
                            RebalancePartitioner)
        return DataStream(self.env, name, keyed=False)

    def union(self, *others: "DataStream") -> "DataStream":
        """Merge this stream with others (same element type expected).

        The merged stream interleaves elements; watermarks combine as the
        minimum across inputs (the runtime's multi-channel rule).
        """
        name = self.env._fresh("union")
        self.env.graph.add_operator(
            name, lambda: MapOperator(lambda v: v), self.env.parallelism)
        self.env.graph.connect(self.vertex, name, RebalancePartitioner)
        for other in others:
            if other.env is not self.env:
                raise PlanError(
                    "cannot union streams from different environments")
            self.env.graph.connect(other.vertex, name,
                                   RebalancePartitioner)
        return DataStream(self.env, name, keyed=False)

    # -- keying -------------------------------------------------------------------

    def key_by(self, key_fn: Callable[[Any], Any]) -> "KeyedStream":
        name = self._attach("keyby", lambda: KeyByOperator(key_fn))
        return KeyedStream(self.env, name)

    # -- output ---------------------------------------------------------------------

    def sink(self, label: str) -> str:
        """Terminate with a collecting sink; results under ``label``."""
        name = self.env._fresh(f"sink:{label}")
        self.env.graph.add_operator(name, CollectSinkOperator,
                                    self.env.parallelism)
        self.env.graph.connect(self.vertex, name, ForwardPartitioner)
        self.env.graph.mark_sink(name)
        self.env.graph.sink_origin[name] = label
        self.env._sink_labels.append(label)
        return label


class KeyedStream:
    """A stream partitioned by key; stateful operations live here."""

    def __init__(self, env: StreamEnvironment, vertex: str) -> None:
        self.env = env
        self.vertex = vertex

    def _attach_hashed(self, prefix: str,
                       factory: Callable[[], StreamOperator]) -> str:
        name = self.env._fresh(prefix)
        self.env.graph.add_operator(name, factory, self.env.parallelism)
        self.env.graph.connect(self.vertex, name, HashPartitioner)
        return name

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        """Group this keyed stream into event-time windows."""
        return WindowedStream(self, assigner)

    def session_window(self, gap) -> "SessionWindowedStream":
        """Group into merging session windows with the given gap."""
        return SessionWindowedStream(self, gap)

    def reduce(self, fn: Callable[[Any, Any], Any]) -> DataStream:
        """Running per-key reduce: emits (key, new_value) on every input —
        an update (changelog) stream."""
        backend = self.env.state_backend
        name = self._attach_hashed(
            "reduce", lambda: RunningReduceOperator(fn, backend))
        return DataStream(self.env, name, keyed=True)

    def process(self, fn, on_timer=None) -> DataStream:
        """Low-level keyed process function with state and timers."""
        backend = self.env.state_backend
        name = self._attach_hashed(
            "process",
            lambda: ProcessOperator(fn, backend, on_timer))
        return DataStream(self.env, name, keyed=True)

    def window_join(self, other: "KeyedStream",
                    assigner: WindowAssigner,
                    combine: Callable[[Any, Any], Any] =
                    lambda l, r: (l, r)) -> DataStream:
        """Join with another keyed stream per (key, window): elements of
        the two streams pair when they share the key and land in the same
        window (Flink's window join).  Emits (key, combine(l, r), window)
        at window close."""
        from repro.dsl.operators import WindowJoinOperator
        env = self.env
        if other.env is not env:
            raise PlanError(
                "cannot join streams from different environments")
        left_tagged = env._fresh("jointag-left")
        env.graph.add_operator(
            left_tagged, lambda: MapOperator(lambda v: ("L", v)),
            env.parallelism)
        env.graph.connect(self.vertex, left_tagged, ForwardPartitioner)
        right_tagged = env._fresh("jointag-right")
        env.graph.add_operator(
            right_tagged, lambda: MapOperator(lambda v: ("R", v)),
            env.parallelism)
        env.graph.connect(other.vertex, right_tagged, ForwardPartitioner)
        backend = env.state_backend
        name = env._fresh("windowjoin")
        env.graph.add_operator(
            name, lambda: WindowJoinOperator(assigner, combine, backend),
            env.parallelism)
        env.graph.connect(left_tagged, name, HashPartitioner)
        env.graph.connect(right_tagged, name, HashPartitioner)
        return DataStream(env, name, keyed=True)


class WindowedStream:
    """A keyed stream with a window assigner; terminates in an aggregate."""

    def __init__(self, keyed: KeyedStream, assigner: WindowAssigner) -> None:
        self.keyed = keyed
        self.assigner = assigner

    def aggregate(self, aggregate: AggregateFunction) -> DataStream:
        """Incremental aggregation; emits (key, result, window) at window
        close (watermark-driven)."""
        env = self.keyed.env
        backend = env.state_backend
        assigner = self.assigner
        name = self.keyed._attach_hashed(
            "window", lambda: WindowAggregateOperator(
                assigner, aggregate, backend))
        return DataStream(env, name, keyed=True)

    def reduce(self, fn: Callable[[Any, Any], Any]) -> DataStream:
        return self.aggregate(ReduceAggregate(fn))

    def count(self) -> DataStream:
        return self.aggregate(CountAggregate())


class SessionWindowedStream:
    """A keyed stream grouped into merging session windows."""

    def __init__(self, keyed: KeyedStream, gap) -> None:
        self.keyed = keyed
        self.gap = gap

    def aggregate(self, aggregate: AggregateFunction) -> DataStream:
        """Requires ``aggregate.merge`` (sessions combine accumulators)."""
        from repro.dsl.operators import SessionAggregateOperator
        env = self.keyed.env
        backend = env.state_backend
        gap = self.gap
        name = self.keyed._attach_hashed(
            "session", lambda: SessionAggregateOperator(
                gap, aggregate, backend))
        return DataStream(env, name, keyed=True)
