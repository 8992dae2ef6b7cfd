"""Job graphs: operators organised in a DAG (paper Figure 5, middle).

A streaming job is a directed acyclic graph of operator **vertices**, each
instantiated as ``parallelism`` subtasks, connected by **edges** carrying a
partitioner.  This module defines the operator interface (with keyed state
and event-time timers), the graph builder, and the **operator chaining**
optimisation — fusing forward-connected vertices of equal parallelism into
one vertex so records pass by function call instead of message (Hirzel et
al.'s *fusion*; measured by the Listing 2 benchmark).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import repro.obs as obs
from repro.core.errors import PlanError, StateError
from repro.core.time import Timestamp
from repro.runtime.partitioning import ForwardPartitioner, Partitioner


@dataclass(frozen=True)
class Element:
    """One record flowing through a job: value, optional key, timestamp."""

    value: Any
    key: Any = None
    timestamp: Timestamp = 0


class TimerService:
    """Per-subtask event-time timers (fired by watermark progress)."""

    def __init__(self) -> None:
        self._heap: list[tuple[Timestamp, Any]] = []
        self._registered: set[tuple[Timestamp, Any]] = set()

    def register(self, fire_at: Timestamp, key: Any = None) -> None:
        entry = (fire_at, key)
        if entry not in self._registered:
            self._registered.add(entry)
            heapq.heappush(self._heap, entry)

    def due(self, watermark: Timestamp) -> list[tuple[Timestamp, Any]]:
        """Pop all timers with ``fire_at <= watermark``, in time order."""
        out = []
        while self._heap and self._heap[0][0] <= watermark:
            entry = heapq.heappop(self._heap)
            self._registered.discard(entry)
            out.append(entry)
        return out

    def snapshot(self) -> list[tuple[Timestamp, Any]]:
        return sorted(self._registered)

    def restore(self, entries: list[tuple[Timestamp, Any]]) -> None:
        self._heap = list(entries)
        self._registered = set(entries)
        heapq.heapify(self._heap)


class StreamOperator:
    """Base runtime operator: the job tier's one operator protocol.

    Lifecycle: ``open(subtask, parallelism)`` once per subtask, then
    ``process`` per element, ``on_timer`` per due timer and
    ``on_watermark`` per watermark advance, ``on_barrier`` when barrier
    alignment completes and ``on_end`` at end of stream.  Every hook
    returns its output; the host (an ``OperatorSubtask`` or a
    :class:`ChainedOperator`) routes it on.  ``snapshot``/``restore``
    implement checkpointing.
    """

    def open(self, subtask: int, parallelism: int) -> None:
        self.subtask = subtask
        self.parallelism = parallelism
        self.timers = TimerService()

    def process(self, element: Element) -> Iterable[Element]:
        raise NotImplementedError

    def on_watermark(self, watermark: Timestamp) -> Iterable[Element]:
        return ()

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        """Fired for each due timer registered via ``self.timers``."""
        return ()

    def on_barrier(self, checkpoint_id: int) -> None:
        """Called when barrier alignment completes (before snapshot) —
        transactional sinks commit their pending epoch here."""

    def on_end(self) -> Iterable[Element]:
        return ()

    def snapshot(self) -> Any:
        return None

    def restore(self, state: Any) -> None:
        if state is not None:
            raise StateError(f"{type(self).__name__} has no state to "
                             f"restore into")


class MapOperator(StreamOperator):
    """Element-wise transformation (1 → 1)."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self._fn = fn

    def process(self, element: Element) -> Iterable[Element]:
        yield Element(self._fn(element.value), element.key,
                      element.timestamp)


class FilterOperator(StreamOperator):
    """Element-wise selection (1 → 0/1)."""

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self._predicate = predicate

    def process(self, element: Element) -> Iterable[Element]:
        if self._predicate(element.value):
            yield element


class FlatMapOperator(StreamOperator):
    """Element-wise expansion (1 → n) — the ParDo shape."""

    def __init__(self, fn: Callable[[Any], Iterable[Any]]) -> None:
        self._fn = fn

    def process(self, element: Element) -> Iterable[Element]:
        for value in self._fn(element.value):
            yield Element(value, element.key, element.timestamp)


class KeyByOperator(StreamOperator):
    """Assigns the routing key (precedes a hash edge)."""

    def __init__(self, key_fn: Callable[[Any], Any]) -> None:
        self._key_fn = key_fn

    def process(self, element: Element) -> Iterable[Element]:
        yield Element(element.value, self._key_fn(element.value),
                      element.timestamp)


class ChainedOperator(StreamOperator):
    """Several operators fused into one subtask (operator chaining).

    Elements pass between the chained operators by direct function call —
    zero messages, the whole point of the fusion optimisation.
    """

    def __init__(self, operators: Sequence[StreamOperator]) -> None:
        if not operators:
            raise PlanError("cannot chain zero operators")
        self.operators = list(operators)

    def open(self, subtask: int, parallelism: int) -> None:
        super().open(subtask, parallelism)
        for op in self.operators:
            op.open(subtask, parallelism)
            op.timers = self.timers  # one shared timer service per chain

    def _cascade(self, elements: list[Element],
                 hook: Callable[[StreamOperator], Iterable[Element]]
                 | None = None) -> list[Element]:
        """Feed ``elements`` through every member in turn.

        ``hook``'s output from a member enters the chain *after* that
        member, behind what the member made of its input, and a member's
        hook runs only once that input has reached it.
        """
        for op in self.operators:
            elements = [out for element in elements
                        for out in op.process(element)]
            if hook is not None:
                elements.extend(hook(op))
        return elements

    def process(self, element: Element) -> Iterable[Element]:
        return self._cascade([element])

    def on_watermark(self, watermark: Timestamp) -> Iterable[Element]:
        return self._cascade([], lambda op: op.on_watermark(watermark))

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        return self._cascade([], lambda op: op.on_timer(fire_at, key))

    def on_barrier(self, checkpoint_id: int) -> None:
        for op in self.operators:
            op.on_barrier(checkpoint_id)

    def on_end(self) -> Iterable[Element]:
        return self._cascade([], lambda op: op.on_end())

    def snapshot(self) -> Any:
        return [op.snapshot() for op in self.operators]

    def restore(self, state: Any) -> None:
        for op, op_state in zip(self.operators, state):
            op.restore(op_state)

    def take_committed(self) -> dict[Any, list[Element]]:
        """Merge committed epochs of any transactional sinks in the chain
        (so the runner can harvest a sink fused into a chain)."""
        merged: dict[Any, list[Element]] = {}
        for op in self.operators:
            take = getattr(op, "take_committed", None)
            if take is not None:
                for epoch, elements in take().items():
                    merged.setdefault(epoch, []).extend(elements)
        return merged


class CollectSinkOperator(StreamOperator):
    """A transactional sink: output becomes visible epoch by epoch.

    Elements accumulate in a *pending* buffer; when a checkpoint barrier
    passes (:meth:`on_barrier`) the buffer is committed under that epoch id.
    On recovery the crashed instance's pending buffer is simply lost, and
    re-committed epochs overwrite identically (determinism), which is what
    makes end-to-end results exactly-once.
    """

    FINAL_EPOCH = "final"

    def __init__(self) -> None:
        self._pending: list[Element] = []
        self._epochs: dict[Any, list[Element]] = {}

    def process(self, element: Element) -> Iterable[Element]:
        self._pending.append(element)
        return ()

    def on_barrier(self, checkpoint_id: int) -> None:
        self._epochs.setdefault(checkpoint_id, []).extend(self._pending)
        self._pending = []

    def on_end(self) -> Iterable[Element]:
        self._epochs.setdefault(self.FINAL_EPOCH, []).extend(self._pending)
        self._pending = []
        return ()

    def snapshot(self) -> Any:
        return None  # committed epochs live outside the checkpoint

    def restore(self, state: Any) -> None:
        self._pending = []

    def take_committed(self) -> dict[Any, list[Element]]:
        """Committed epochs (epoch id → elements), for the runner."""
        return dict(self._epochs)


class FailOnceOperator(StreamOperator):
    """Passes elements through, crashing once at the Nth element.

    ``fuse`` is a shared one-element list: the first instance to reach the
    trigger blows it and flips the fuse so the recovered run proceeds —
    the standard fault-injection harness for exactly-once tests.
    """

    def __init__(self, fail_at: int, fuse: list[bool]) -> None:
        self._fail_at = fail_at
        self._fuse = fuse
        self._seen = 0

    def process(self, element: Element) -> Iterable[Element]:
        self._seen += 1
        if not self._fuse[0] and self._seen == self._fail_at:
            self._fuse[0] = True
            from repro.runtime.job import JobFailure
            raise JobFailure(f"injected failure at element {self._seen}")
        yield element

    def snapshot(self) -> Any:
        return self._seen

    def restore(self, state: Any) -> None:
        self._seen = state


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------


@dataclass
class SourceSpec:
    """A source vertex: per-subtask record feeds.

    ``records`` holds, per subtask, the (value, key, timestamp) tuples that
    subtask emits — typically split from a broker topic's partitions.
    """

    name: str
    records: list[list[tuple[Any, Any, Timestamp]]]
    watermark_lag: Timestamp = 0

    @property
    def parallelism(self) -> int:
        return len(self.records)


@dataclass
class VertexSpec:
    """An operator vertex: a factory producing one operator per subtask."""

    name: str
    factory: Callable[[], StreamOperator]
    parallelism: int


@dataclass
class EdgeSpec:
    """A connection from ``upstream`` to ``downstream`` with a partitioner
    factory (a fresh partitioner per producing subtask)."""

    upstream: str
    downstream: str
    partitioner: Callable[[], Partitioner]

    def is_forward(self) -> bool:
        return self.partitioner().is_forward


class JobGraph:
    """Builder for a streaming job DAG."""

    def __init__(self, name: str = "job") -> None:
        self.name = name
        self.sources: dict[str, SourceSpec] = {}
        self.vertices: dict[str, VertexSpec] = {}
        self.edges: list[EdgeSpec] = []
        self.sinks: set[str] = set()
        #: current vertex name -> originally marked sink name (chaining
        #: renames vertices; results stay addressable by the original name).
        self.sink_origin: dict[str, str] = {}

    def add_source(self, name: str,
                   records: list[list[tuple[Any, Any, Timestamp]]],
                   watermark_lag: Timestamp = 0) -> "JobGraph":
        self._check_free(name)
        self.sources[name] = SourceSpec(name, records, watermark_lag)
        return self

    def add_operator(self, name: str,
                     factory: Callable[[], StreamOperator],
                     parallelism: int = 1) -> "JobGraph":
        self._check_free(name)
        if parallelism <= 0:
            raise PlanError(f"parallelism must be positive for {name!r}")
        self.vertices[name] = VertexSpec(name, factory, parallelism)
        return self

    def connect(self, upstream: str, downstream: str,
                partitioner: Callable[[], Partitioner] = ForwardPartitioner,
                ) -> "JobGraph":
        if upstream not in self.sources and upstream not in self.vertices:
            raise PlanError(f"unknown upstream {upstream!r}")
        if downstream not in self.vertices:
            raise PlanError(f"unknown downstream {downstream!r}")
        self.edges.append(EdgeSpec(upstream, downstream, partitioner))
        return self

    def mark_sink(self, name: str) -> "JobGraph":
        if name not in self.vertices:
            raise PlanError(f"unknown vertex {name!r}")
        self.sinks.add(name)
        self.sink_origin[name] = name
        return self

    def sink_alias(self, name: str) -> str:
        """The originally marked sink name for a (possibly fused) vertex."""
        return self.sink_origin.get(name, name)

    def _check_free(self, name: str) -> None:
        if name in self.sources or name in self.vertices:
            raise PlanError(f"vertex {name!r} already exists")

    def parallelism_of(self, name: str) -> int:
        if name in self.sources:
            return self.sources[name].parallelism
        return self.vertices[name].parallelism

    def upstream_edges(self, name: str) -> list[EdgeSpec]:
        return [e for e in self.edges if e.downstream == name]

    def downstream_edges(self, name: str) -> list[EdgeSpec]:
        return [e for e in self.edges if e.upstream == name]

    def validate(self) -> None:
        """Every vertex reachable, every edge sane, graph acyclic."""
        for edge in self.edges:
            if edge.is_forward() and (self.parallelism_of(edge.upstream)
                                      != self.parallelism_of(edge.downstream)):
                raise PlanError(
                    f"forward edge {edge.upstream}->{edge.downstream} "
                    f"requires equal parallelism")
        # Cycle check by Kahn's algorithm.
        names = set(self.sources) | set(self.vertices)
        indegree = {n: 0 for n in names}
        for edge in self.edges:
            indegree[edge.downstream] += 1
        queue = [n for n, d in indegree.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for edge in self.downstream_edges(node):
                indegree[edge.downstream] -= 1
                if indegree[edge.downstream] == 0:
                    queue.append(edge.downstream)
        if seen != len(names):
            raise PlanError("job graph contains a cycle")


def chain_operators(graph: JobGraph) -> JobGraph:
    """The fusion optimisation: collapse forward chains.

    A vertex V with exactly one upstream edge that is forward, whose
    upstream U is a vertex (not a source) with exactly one downstream edge,
    and equal parallelism, is fused into U (their operators run chained in
    one subtask).  Applied to fixpoint; edge endpoints are rewritten.
    """
    graph.validate()
    out = JobGraph(graph.name + "-chained")
    out.sources = dict(graph.sources)
    out.vertices = dict(graph.vertices)
    out.edges = [EdgeSpec(e.upstream, e.downstream, e.partitioner)
                 for e in graph.edges]
    out.sinks = set(graph.sinks)
    out.sink_origin = dict(graph.sink_origin)

    def can_fuse(edge: EdgeSpec) -> bool:
        if not edge.is_forward():
            return False
        if edge.upstream not in out.vertices:
            return False  # never fuse into a source
        upstream = out.vertices[edge.upstream]
        downstream = out.vertices[edge.downstream]
        return (upstream.parallelism == downstream.parallelism
                and len(out.downstream_edges(edge.upstream)) == 1
                and len(out.upstream_edges(edge.downstream)) == 1)

    # Merge the first edge can_fuse accepts, then rescan: a merge
    # rewrites the edge list underneath the scan.
    fused = 0
    while True:
        edge = next((edge for edge in out.edges if can_fuse(edge)), None)
        if edge is None:
            break
        _fuse(out, edge, out.vertices[edge.upstream],
              out.vertices[edge.downstream])
        fused += 1
    if obs.is_enabled():
        registry = obs.get_registry()
        registry.counter("runtime.chaining.fusions", job=graph.name).inc(
            fused)
        registry.gauge("runtime.graph.vertices", job=out.name).set(
            len(out.vertices))
        registry.gauge("runtime.graph.edges", job=out.name).set(
            len(out.edges))
    return out


def _fuse(graph: JobGraph, edge: EdgeSpec, upstream: VertexSpec,
          downstream: VertexSpec) -> None:
    up_factory, down_factory = upstream.factory, downstream.factory

    def chained_factory() -> StreamOperator:
        up = up_factory()
        down = down_factory()
        ops: list[StreamOperator] = []
        for op in (up, down):
            if isinstance(op, ChainedOperator):
                ops.extend(op.operators)
            else:
                ops.append(op)
        return ChainedOperator(ops)

    fused_name = f"{upstream.name}+{downstream.name}"
    graph.vertices.pop(upstream.name)
    graph.vertices.pop(downstream.name)
    graph.vertices[fused_name] = VertexSpec(
        fused_name, chained_factory, upstream.parallelism)
    graph.edges.remove(edge)
    for other in graph.edges:
        if other.upstream == downstream.name:
            other.upstream = fused_name
        if other.downstream == upstream.name:
            other.downstream = fused_name
    for old in (downstream.name, upstream.name):
        if old in graph.sinks:
            graph.sinks.discard(old)
            graph.sinks.add(fused_name)
            graph.sink_origin[fused_name] = graph.sink_origin.pop(old)
