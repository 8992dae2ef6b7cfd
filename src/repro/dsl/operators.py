"""Stateful runtime operators backing the DSL (paper Section 4.1.2).

The DSL's windowed aggregations and running reduces compile to these
:class:`~repro.runtime.dag.StreamOperator` implementations.  Keyed state
lives in one backend, picked by ``StreamEnvironment(state_backend=)``: a
:class:`~repro.runtime.kvstore.DictStore` or the LSM store of
:mod:`repro.runtime.kvstore` (the RocksDB stand-in of Figure 5); the
Figure 5 benchmark compares the two.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.errors import StateError
from repro.core.time import Timestamp
from repro.core.windows import Window, WindowAssigner
from repro.runtime.dag import Element, StreamOperator
from repro.runtime.kvstore import DictStore, LSMStore

#: The heap state backend.
DictBackend = DictStore


def LSMBackend() -> LSMStore:
    """The embedded LSM state backend (the RocksDB stand-in).

    Keys must be orderable; window state keys are (key, start, end)
    tuples, so heterogeneous user keys should be strings or ints.
    """
    return LSMStore(memtable_limit=256)


#: Anything that makes a fresh, empty keyed state.
StateFactory = Callable[[], "DictStore | LSMStore"]


class AggregateFunction:
    """Flink's AggregateFunction: incremental per-window aggregation."""

    def create_accumulator(self) -> Any:
        raise NotImplementedError

    def add(self, accumulator: Any, value: Any) -> Any:
        raise NotImplementedError

    def get_result(self, accumulator: Any) -> Any:
        raise NotImplementedError

    def merge(self, left: Any, right: Any) -> Any:
        """Combine two accumulators (required by merging windows)."""
        raise StateError(
            f"{type(self).__name__} does not support merging windows")


class ReduceAggregate(AggregateFunction):
    """An AggregateFunction from a binary reduce function."""

    _EMPTY = object()

    def __init__(self, fn: Callable[[Any, Any], Any]) -> None:
        self._fn = fn

    def create_accumulator(self) -> Any:
        return self._EMPTY

    def add(self, accumulator: Any, value: Any) -> Any:
        if accumulator is self._EMPTY:
            return value
        return self._fn(accumulator, value)

    def get_result(self, accumulator: Any) -> Any:
        if accumulator is self._EMPTY:
            raise StateError("reducing an empty window")
        return accumulator


class CountAggregate(AggregateFunction):
    def create_accumulator(self) -> int:
        return 0

    def add(self, accumulator: int, value: Any) -> int:
        return accumulator + 1

    def get_result(self, accumulator: int) -> int:
        return accumulator


class SumAggregate(AggregateFunction):
    def __init__(self, extract: Callable[[Any], Any] = lambda v: v) -> None:
        self._extract = extract

    def create_accumulator(self) -> Any:
        return 0

    def add(self, accumulator: Any, value: Any) -> Any:
        return accumulator + self._extract(value)

    def get_result(self, accumulator: Any) -> Any:
        return accumulator


class AvgAggregate(AggregateFunction):
    def __init__(self, extract: Callable[[Any], Any] = lambda v: v) -> None:
        self._extract = extract

    def create_accumulator(self) -> tuple[Any, int]:
        return (0, 0)

    def add(self, accumulator: tuple, value: Any) -> tuple:
        total, count = accumulator
        return (total + self._extract(value), count + 1)

    def get_result(self, accumulator: tuple) -> Any:
        total, count = accumulator
        if count == 0:
            raise StateError("averaging an empty window")
        return total / count


class KeyedStateOperator(StreamOperator):
    """A stream operator whose keyed state is one backend, made fresh at
    ``open`` and checkpointed as its (key, value) pairs."""

    def __init__(self, backend_factory: StateFactory = DictBackend) -> None:
        self._backend_factory = backend_factory

    def open(self, subtask: int, parallelism: int) -> None:
        super().open(subtask, parallelism)
        self.state = self._backend_factory()

    def snapshot(self) -> Any:
        return list(self.state.items())

    def restore(self, state: Any) -> None:
        for key, value in state:
            self.state.put(key, value)


class WindowAggregateOperator(KeyedStateOperator):
    """Keyed event-time window aggregation firing on the watermark.

    Per (key, window) an accumulator lives in the state backend; a timer at
    ``window.end - 1`` fires the result when the watermark passes.  Late
    elements (arriving after the window fired) open a fresh accumulator and
    fire as a *late refinement* on the next watermark advance — the
    infinite-allowed-lateness policy.
    """

    def __init__(self, assigner: WindowAssigner,
                 aggregate: AggregateFunction,
                 backend_factory: StateFactory = DictBackend,
                 ) -> None:
        self._assigner = assigner
        self._aggregate = aggregate
        super().__init__(backend_factory)

    def process(self, element: Element) -> Iterable[Element]:
        for window in self._assigner.assign(element.timestamp):
            state_key = (element.key, window.start, window.end)
            accumulator = self.state.get(state_key)
            if accumulator is None:
                accumulator = self._aggregate.create_accumulator()
            self.state.put(state_key,
                           self._aggregate.add(accumulator, element.value))
            self.timers.register(window.end - 1, state_key)
        return ()

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        element_key, start, end = key
        accumulator = self.state.get(key)
        if accumulator is None:
            return
        self.state.delete(key)
        result = self._aggregate.get_result(accumulator)
        yield Element((element_key, result, Window(start, end)),
                      element_key, end - 1)

    @property
    def state_size(self) -> int:
        return sum(1 for _ in self.state.items())


class SessionAggregateOperator(KeyedStateOperator):
    """Keyed session windows with merging (data-driven gaps).

    Per key a list of open sessions ``(start, end, accumulator)`` is kept;
    a new element opens a proto-session ``[t, t+gap)`` and merges every
    session it touches (accumulators combined via ``aggregate.merge``).
    A timer at the session's current end fires it — if the session was
    extended meanwhile, the stale timer finds nothing and the new end's
    timer takes over.
    """

    def __init__(self, gap: Timestamp, aggregate: AggregateFunction,
                 backend_factory: StateFactory = DictBackend,
                 ) -> None:
        if gap <= 0:
            raise StateError(f"session gap must be positive, got {gap}")
        self._gap = gap
        self._aggregate = aggregate
        super().__init__(backend_factory)

    def process(self, element: Element) -> Iterable[Element]:
        sessions: list[tuple[Timestamp, Timestamp, Any]] = \
            self.state.get(element.key) or []
        start = element.timestamp
        end = element.timestamp + self._gap
        accumulator = self._aggregate.add(
            self._aggregate.create_accumulator(), element.value)
        merged: list[tuple[Timestamp, Timestamp, Any]] = []
        for s_start, s_end, s_acc in sessions:
            if s_start <= end and start <= s_end:  # touches the new one
                start = min(start, s_start)
                end = max(end, s_end)
                accumulator = self._aggregate.merge(s_acc, accumulator)
            else:
                merged.append((s_start, s_end, s_acc))
        merged.append((start, end, accumulator))
        self.state.put(element.key, merged)
        self.timers.register(end - 1, element.key)
        return ()

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        sessions = self.state.get(key) or []
        remaining = []
        for start, end, accumulator in sessions:
            if end - 1 <= fire_at:
                yield Element(
                    (key, self._aggregate.get_result(accumulator),
                     Window(start, end)), key, end - 1)
            else:
                remaining.append((start, end, accumulator))
        if remaining:
            self.state.put(key, remaining)
        else:
            self.state.delete(key)


class WindowJoinOperator(KeyedStateOperator):
    """Keyed window join: pairs elements of two streams sharing key and
    window (Flink's ``a.join(b).where(...).window(...)``).

    Inputs arrive tagged ``("L", value)`` / ``("R", value)`` (the
    environment inserts the tags); per (key, window) both sides buffer
    until the watermark closes the window, then the cross product of the
    pane's sides is emitted as ``(key, combine(l, r), window)``.
    """

    def __init__(self, assigner: WindowAssigner,
                 combine: Callable[[Any, Any], Any] = lambda l, r: (l, r),
                 backend_factory: StateFactory = DictBackend,
                 ) -> None:
        self._assigner = assigner
        self._combine = combine
        super().__init__(backend_factory)

    def process(self, element: Element) -> Iterable[Element]:
        side, value = element.value
        if side not in ("L", "R"):
            raise StateError(f"window join input lacks a side tag: "
                             f"{element.value!r}")
        for window in self._assigner.assign(element.timestamp):
            state_key = (element.key, window.start, window.end)
            lefts, rights = self.state.get(state_key) or ([], [])
            if side == "L":
                lefts = lefts + [value]
            else:
                rights = rights + [value]
            self.state.put(state_key, (lefts, rights))
            self.timers.register(window.end - 1, state_key)
        return ()

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        element_key, start, end = key
        pane = self.state.get(key)
        if pane is None:
            return
        self.state.delete(key)
        lefts, rights = pane
        for left in lefts:
            for right in rights:
                yield Element(
                    (element_key, self._combine(left, right),
                     Window(start, end)), element_key, end - 1)


class RunningReduceOperator(KeyedStateOperator):
    """Kafka-Streams-style running reduce: emits the new per-key value on
    every input element (an update stream — a changelog)."""

    def __init__(self, fn: Callable[[Any, Any], Any],
                 backend_factory: StateFactory = DictBackend,
                 ) -> None:
        self._fn = fn
        super().__init__(backend_factory)

    def process(self, element: Element) -> Iterable[Element]:
        _missing = object()
        current = self.state.get(element.key, _missing)
        updated = (element.value if current is _missing
                   else self._fn(current, element.value))
        self.state.put(element.key, updated)
        yield Element((element.key, updated), element.key,
                      element.timestamp)


class ProcessOperator(KeyedStateOperator):
    """Escape hatch: a user function with access to per-key state and
    timers (the low-level API the survey says 'more complex computations'
    still need)."""

    def __init__(self, fn: Callable[["ProcessOperator", Element],
                                    Iterable[Element]],
                 backend_factory: StateFactory = DictBackend,
                 on_timer_fn: Callable[["ProcessOperator", Timestamp, Any],
                                       Iterable[Element]] | None = None,
                 ) -> None:
        self._fn = fn
        self._on_timer_fn = on_timer_fn
        super().__init__(backend_factory)

    def process(self, element: Element) -> Iterable[Element]:
        return self._fn(self, element)

    def on_timer(self, fire_at: Timestamp, key: Any) -> Iterable[Element]:
        if self._on_timer_fn is None:
            return ()
        return self._on_timer_fn(self, fire_at, key)
