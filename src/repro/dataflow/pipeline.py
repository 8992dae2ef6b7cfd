"""Pipelines, PCollections and their runner (paper Section 4.1.1).

The Dataflow model's two primitives are **ParDo** (element-wise parallel
processing) and **GroupByKey** (collect per key before reduction); windows
say *where* in event time data is grouped, triggers say *when* in
processing time results are emitted, and the accumulation mode says *how*
refinements relate.  This module implements all four axes over a
deterministic single-process runner whose inputs can arrive out of order —
which is the entire point: the C5 benchmark sweeps watermark slack and
trigger choices against lateness.

Usage::

    p = Pipeline()
    events = p.create([("a", 3), ("b", 1), ("a", 12)],
                      watermark=BoundedOutOfOrderness(2))
    counts = (events
              .map(lambda v: (v, 1))
              .window_into(FixedWindows(10))
              .group_by_key()
              .combine_values(sum)
              .collect("counts"))
    result = p.run()
    result["counts"]          # [WindowedValue(("a", 1), ...), ...]
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import repro.obs as obs
from repro.core.errors import PlanError, WindowError
from repro.core.punctuation import AscendingWatermarks, WatermarkGenerator
from repro.core.time import MAX_TIMESTAMP, Timestamp
from repro.core.windows import Window
from repro.dataflow.pvalue import PaneInfo, WindowedValue
from repro.dataflow.triggers import (
    DEFAULT_TRIGGER,
    AccumulationMode,
    PaneTiming,
    Trigger,
)
from repro.dataflow.windowfn import GlobalWindows, Sessions, WindowFn


@dataclass
class WindowingStrategy:
    """The full where/when/how specification attached to a PCollection."""

    window_fn: WindowFn = field(default_factory=GlobalWindows)
    trigger: Trigger = DEFAULT_TRIGGER
    accumulation: AccumulationMode = AccumulationMode.DISCARDING
    allowed_lateness: Timestamp = 0


class PCollection:
    """A node in the pipeline DAG.  Transforms return new PCollections."""

    def __init__(self, pipeline: "Pipeline", kind: str,
                 parent: "PCollection | None" = None, **spec: Any) -> None:
        self.pipeline = pipeline
        self.kind = kind
        self.parent = parent
        self.spec = spec
        self.children: list[PCollection] = []
        self.windowing: WindowingStrategy = (
            parent.windowing if parent is not None else WindowingStrategy())
        if parent is not None:
            parent.children.append(self)
        pipeline._nodes.append(self)

    # -- element-wise transforms (ParDo family) --------------------------------

    def par_do(self, fn: Callable[[Any], Iterable[Any]],
               _op: str = "flat_map") -> "PCollection":
        """The generic element-wise primitive: zero or more outputs per
        input (the paper's ParDo)."""
        return PCollection(self.pipeline, "pardo", self, fn=fn, op=_op)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "PCollection":
        return self.par_do(fn)

    def map(self, fn: Callable[[Any], Any]) -> "PCollection":
        return self.par_do(lambda v: (fn(v),), _op="map")

    def filter(self, predicate: Callable[[Any], bool]) -> "PCollection":
        return self.par_do(lambda v: (v,) if predicate(v) else (),
                           _op="filter")

    # -- windowing --------------------------------------------------------------

    def window_into(self, window_fn: WindowFn,
                    trigger: Trigger | None = None,
                    accumulation: AccumulationMode =
                    AccumulationMode.DISCARDING,
                    allowed_lateness: Timestamp = 0) -> "PCollection":
        if allowed_lateness < 0:
            raise WindowError(
                f"allowed lateness must be >= 0, got {allowed_lateness}")
        node = PCollection(self.pipeline, "window", self)
        node.windowing = WindowingStrategy(
            window_fn, trigger or DEFAULT_TRIGGER, accumulation,
            allowed_lateness)
        return node

    # -- grouping ---------------------------------------------------------------

    def group_by_key(self) -> "PCollection":
        """The GroupByKey primitive: input must be (key, value) pairs.

        Emits ``(key, [values])`` panes according to the windowing
        strategy's trigger and accumulation mode."""
        return PCollection(self.pipeline, "gbk", self, combiner=None)

    def combine_per_key(self, combiner: Callable[[list], Any],
                        ) -> "PCollection":
        """GroupByKey fused with a per-pane combiner over the value list."""
        return PCollection(self.pipeline, "gbk", self, combiner=combiner)

    def combine_values(self, combiner: Callable[[list], Any],
                       ) -> "PCollection":
        """Apply ``combiner`` to the value list of (key, [values]) pairs."""
        return self.map(lambda kv: (kv[0], combiner(kv[1])))

    # -- outputs ----------------------------------------------------------------

    def collect(self, label: str) -> "PCollection":
        """Mark this collection as a pipeline output under ``label``."""
        node = PCollection(self.pipeline, "sink", self, label=label)
        return node


class PipelineResult:
    """Outputs plus runner statistics."""

    def __init__(self) -> None:
        self.outputs: dict[str, list[WindowedValue]] = defaultdict(list)
        self.dropped_late = 0
        self.panes_by_timing: dict[PaneTiming, int] = defaultdict(int)

    def __getitem__(self, label: str) -> list[WindowedValue]:
        return self.outputs[label]

    def values(self, label: str) -> list[Any]:
        return [wv.value for wv in self.outputs[label]]


class _PaneState:
    """Runner state for one (key, window) pane of one GBK node."""

    __slots__ = ("buffer", "retained", "trigger_state", "pane_index",
                 "on_time_fired", "had_data")

    def __init__(self, trigger: Trigger) -> None:
        self.buffer: list[Any] = []
        self.retained: list[Any] = []
        self.trigger_state = trigger.new_state()
        self.pane_index = 0
        self.on_time_fired = False
        self.had_data = False


class Pipeline:
    """A Dataflow pipeline with a deterministic single-process runner."""

    def __init__(self) -> None:
        self._nodes: list[PCollection] = []
        self._sources: list[PCollection] = []

    def create(self, elements: Iterable[tuple[Any, Timestamp]],
               watermark: WatermarkGenerator | None = None) -> PCollection:
        """A source.  ``elements`` are (value, event timestamp) pairs in
        *arrival* order — which may differ from event-time order; the
        watermark generator (default: ascending) decides how much
        out-of-orderness the pipeline tolerates."""
        node = PCollection(self, "source", None,
                           elements=list(elements),
                           watermark=watermark or AscendingWatermarks())
        self._sources.append(node)
        return node

    # -- planning -----------------------------------------------------------------

    def logical_plan(self):
        """The pipeline DAG lowered onto the unified logical IR.

        Dataflow transforms carry arbitrary user code, so they lower to
        :class:`~repro.plan.ir.OpaqueOp`/``OpaqueSource`` nodes whose
        ``kind`` is the monotonicity-relevant operator name — enough for
        :func:`repro.core.monotonicity.classify_plan`,
        :func:`repro.plan.signature.plan_signature` and EXPLAIN to work
        without interpreting the payloads.
        """
        from repro.plan.ir import OpaqueOp, OpaqueSource

        plans: dict[int, Any] = {}
        roots: list[Any] = []
        for index, node in enumerate(self._nodes):
            if node.kind == "source":
                generator = node.spec["watermark"]
                plan = OpaqueSource(
                    "stream_scan",
                    f"create#{index}[{type(generator).__name__}]",
                    payload=node)
            else:
                child = plans[id(node.parent)]
                kind, tag = _logical_label(node)
                plan = OpaqueOp(kind, tag, (child,), payload=node)
            plans[id(node)] = plan
            if not node.children:
                roots.append(plan)
        if not roots:
            raise PlanError("empty pipeline has no logical plan")
        out = roots[0]
        for other in roots[1:]:
            out = OpaqueOp("union", "outputs", (out, other))
        return out

    def explain(self) -> str:
        """EXPLAIN: the lowered IR tree with strategy annotations."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.logical_plan())

    # -- execution ----------------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute the pipeline: each source is replayed in arrival order
        through its tree of transforms."""
        return _Runner(self).run()


def _logical_label(node: PCollection) -> tuple[str, str]:
    """(IR kind, display tag) for a non-source pipeline node."""
    if node.kind == "pardo":
        fn = node.spec["fn"]
        return (node.spec.get("op", "flat_map"),
                getattr(fn, "__name__", "<fn>"))
    if node.kind == "window":
        return "window", type(node.windowing.window_fn).__name__
    if node.kind == "gbk":
        tag = ("combine_per_key" if node.spec.get("combiner")
               else "group_by_key")
        return "group_aggregate", tag
    if node.kind == "sink":
        return "sink", node.spec["label"]
    raise PlanError(f"unexpected node kind {node.kind}")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class _ParDoOp:
    """ParDo: zero or more outputs per element, windows kept."""

    __slots__ = ("_fn", "_emit")

    def __init__(self, fn: Callable[[Any], Iterable[Any]],
                 emit: Callable[[Any], None]) -> None:
        self._fn = fn
        self._emit = emit

    def process(self, wv: WindowedValue) -> None:
        emit = self._emit
        for value in self._fn(wv.value):
            emit(wv.with_value(value))


class _WindowOp:
    """Window assignment: re-window each element by its timestamp."""

    __slots__ = ("_window_fn", "_emit")

    def __init__(self, window_fn: WindowFn,
                 emit: Callable[[Any], None]) -> None:
        self._window_fn = window_fn
        self._emit = emit

    def process(self, wv: WindowedValue) -> None:
        windows = tuple(self._window_fn.assign(wv.timestamp))
        self._emit(WindowedValue(wv.value, wv.timestamp, windows, wv.pane))


class _GBKOp:
    """GroupByKey: insert, merge, fire, finalise, expire.

    Inserts judge lateness against the node's own input watermark cell;
    ``advance`` raises the cell, fires the panes whose trigger says so
    and drops the ones that can never change again, and ``close``
    force-drains the rest.  A GroupByKey below another one is advanced
    after it, so the panes the upper one fires in an advance arrive
    before the lower one's cell moves past them.  Processing-time
    triggers count pipeline arrivals, not elements reaching this node,
    so the operator reads its runner's arrival index.
    """

    def __init__(self, node: PCollection, runner: "_Runner",
                 emit: Callable[[Any], None], watermark: Timestamp) -> None:
        self.node = node
        self._runner = runner
        self.result = runner.result
        self._emit = emit
        #: the input watermark cell
        self.watermark = watermark
        #: the nearest GroupByKey above this one, whose :meth:`hold`
        #: bounds this one's cell; None below none (set by the runner)
        self.upstream: _GBKOp | None = None
        self.panes: dict[tuple[Any, Window], _PaneState] = {}
        #: merging windows: each key's live windows, in ``panes`` order
        self._sessions: dict[Any, list[Window]] = {}
        # How far past its end a window can still take a non-late
        # element.  Fixed windows: not at all.  A session merges an
        # element stamped t when t <= end (merge_sessions' touching
        # rule), and t is late once watermark >= t + gap - 1 + allowed
        # lateness; so nothing can reach a session once the watermark
        # is past end + gap - 1 + allowed lateness.  An unknown merging
        # window function never expires its panes.
        window_fn = node.windowing.window_fn
        self._reach: Timestamp | None = (
            0 if not window_fn.is_merging
            else window_fn.gap if isinstance(window_fn, Sessions)
            else None)
        self._obs = obs.is_enabled()
        self._registry = obs.get_registry() if self._obs else None

    def process(self, wv: WindowedValue) -> None:
        strategy = self.node.windowing
        watermark = self.watermark
        try:
            key, value = wv.value
        except (TypeError, ValueError):
            raise PlanError(
                "GroupByKey input must be (key, value) pairs; got "
                f"{wv.value!r}") from None
        for piece in wv.exploded():
            (window,) = piece.windows
            # Lateness: beyond allowed lateness the element is dropped.
            if watermark >= window.end - 1 + strategy.allowed_lateness:
                self.result.dropped_late += 1
                if self._obs:
                    self._registry.counter("dataflow.dropped_late").inc()
                continue
            if strategy.window_fn.is_merging:
                window = self._merge_into(key, window, strategy)
            pane = self.panes.get((key, window))
            if pane is None:
                pane = self.panes[(key, window)] = _PaneState(
                    strategy.trigger)
            pane.buffer.append(value)
            pane.had_data = True
            fire = strategy.trigger.on_element(
                pane.trigger_state, self._runner._arrival_index)
            if fire:
                timing = (PaneTiming.LATE if pane.on_time_fired
                          else PaneTiming.EARLY)
                self._fire(key, window, timing)

    def _merge_into(self, key: Any, window: Window,
                    strategy: WindowingStrategy) -> Window:
        """Session merging: coalesce the new proto-window with the key's
        live windows, transplanting buffered state."""
        active = self._sessions.setdefault(key, [])
        merged = strategy.window_fn.merge(active + [window])
        # Find the merged window that swallowed the new proto-window.
        target = next(w for w in merged if w.overlaps(window)
                      or w == window)
        if target not in active:
            fresh = _PaneState(strategy.trigger)
            for old in active:
                if not old.overlaps(target):
                    continue
                old_pane = self.panes.pop((key, old))
                fresh.buffer.extend(old_pane.buffer)
                fresh.retained.extend(old_pane.retained)
                fresh.pane_index = max(fresh.pane_index,
                                       old_pane.pane_index)
                fresh.on_time_fired |= old_pane.on_time_fired
                fresh.had_data |= old_pane.had_data
            # Replay the combined buffer into a fresh trigger state.
            for i in range(len(fresh.buffer)):
                strategy.trigger.on_element(fresh.trigger_state,
                                            self._runner._arrival_index)
            self.panes[(key, target)] = fresh
            active[:] = [w for w in active if not w.overlaps(target)]
            active.append(target)
        return target

    def advance(self, watermark: Timestamp) -> None:
        self.watermark = watermark
        strategy = self.node.windowing
        trigger = strategy.trigger
        # A pane is inert once no element that is not late can reach it
        # (see ``_reach``) and its buffer is empty after firing (close
        # would emit nothing): drop it.
        reach = self._reach
        horizon = None if reach is None else \
            watermark - reach - strategy.allowed_lateness + 1
        merging = strategy.window_fn.is_merging
        for (key, window) in sorted(
                self.panes, key=lambda kw: (kw[1], repr(kw[0]))):
            pane = self.panes[(key, window)]
            if trigger.on_watermark(pane.trigger_state, window, watermark):
                if pane.had_data:
                    self._fire(key, window, PaneTiming.ON_TIME)
                pane.on_time_fired = True
            if (horizon is not None and not pane.buffer
                    and window.end <= horizon):
                del self.panes[(key, window)]
                if merging:
                    sessions = self._sessions[key]
                    sessions.remove(window)
                    if not sessions:
                        del self._sessions[key]

    def hold(self) -> Timestamp | None:
        """The watermark this node's output holds back to: just before
        the stamp (``end - 1``) of the earliest pane that has not fired
        on time and still buffers, which a later firing or the close
        emits; None when there is none.  A GroupByKey below advances no
        further, so that pane does not reach it late."""
        ends = [window.end for (_, window), pane in self.panes.items()
                if pane.buffer and not pane.on_time_fired]
        return min(ends) - 2 if ends else None

    def close(self) -> None:
        """Drain: force-fire panes whose trigger never did (e.g. Never).

        Fired as ON_TIME — finalisation is the moment the watermark
        conceptually passes the end of every window.
        """
        for (key, window) in sorted(
                self.panes, key=lambda kw: (kw[1], repr(kw[0]))):
            pane = self.panes[(key, window)]
            if not pane.on_time_fired and pane.buffer:
                self._fire(key, window, PaneTiming.ON_TIME)
                pane.on_time_fired = True

    def _fire(self, key: Any, window: Window, timing: PaneTiming) -> None:
        strategy = self.node.windowing
        pane = self.panes[(key, window)]
        if strategy.accumulation is AccumulationMode.ACCUMULATING:
            contents = pane.retained + pane.buffer
            pane.retained = contents
        else:
            contents = pane.buffer
        pane.buffer = []
        if not contents:
            return
        strategy.trigger.on_fire(pane.trigger_state)
        info = PaneInfo(timing, pane.pane_index)
        pane.pane_index += 1
        if timing is PaneTiming.ON_TIME:
            pane.on_time_fired = True
        self.result.panes_by_timing[timing] += 1
        if self._obs:
            self._registry.counter("dataflow.trigger.firings",
                                   timing=timing.name).inc()
        combiner = self.node.spec.get("combiner")
        payload = combiner(list(contents)) if combiner else list(contents)
        self._emit(WindowedValue((key, payload),
                                 min(window.end - 1, MAX_TIMESTAMP - 1),
                                 (window,), info))


class _SinkOp:
    """Records outputs under a label; passes elements through."""

    __slots__ = ("_label", "_result", "_emit")

    def __init__(self, label: str, result: PipelineResult,
                 emit: Callable[[Any], None]) -> None:
        self._label = label
        self._result = result
        self._emit = emit

    def process(self, wv: WindowedValue) -> None:
        self._result.outputs[self._label].append(wv)
        self._emit(wv)


def _fan_out(deliveries: list[Callable[[Any], None]],
             count: Callable[[], None] | None) -> Callable[[Any], None]:
    """A node's delivery: straight into each child node's entry point,
    counting the emission first when obs is on."""
    def emit(value: Any) -> None:
        if count is not None:
            count()
        for deliver in deliveries:
            deliver(value)
    return emit


def _counted(count: Callable[[], None],
             deliver: Callable[[Any], None]) -> Callable[[Any], None]:
    """The obs-on entry point: counts the element in, then delivers it."""
    def entry(value: Any) -> None:
        count()
        deliver(value)
    return entry


class _Source:
    """A source's watermark and the nodes it drives."""

    __slots__ = ("watermark", "entries", "gbks")

    def __init__(self, watermark: Timestamp,
                 entries: list[Callable[[Any], None]],
                 gbks: list[_GBKOp]) -> None:
        self.watermark = watermark
        #: the child nodes' entry points
        self.entries = entries
        #: the GroupByKeys below this source, in pipeline order
        self.gbks = gbks

    def advance(self, watermark: Timestamp) -> None:
        """Advance the GroupByKeys in pipeline order.

        Each one's cell moves only when its turn comes, so the panes an
        upper GroupByKey fires reach a lower one that still judges them
        against the old watermark; the lower one's own advance then
        fires them.  A lower cell moves no further than the upper one's
        :meth:`_GBKOp.hold`, so a pane the upper one still buffers (a
        ``Never`` trigger's, say) is not late when it comes.
        """
        if watermark > self.watermark:
            self.watermark = watermark
            for gbk in self.gbks:
                target = watermark
                if gbk.upstream is not None:
                    hold = gbk.upstream.hold()
                    if hold is not None and hold < target:
                        target = hold
                if target > gbk.watermark:
                    gbk.advance(target)


class _Runner:
    """Drives the pipeline tree directly.

    Each non-source PCollection is one node, built with its children's
    entry points as its delivery; a GroupByKey also holds its own input
    watermark cell, which starts at its source generator's
    pre-observation value.  The runner replays each source in arrival
    order, advancing the source's GroupByKeys after every element the
    generator marks and to ``MAX_TIMESTAMP`` at the source's end (a
    lower one no further than the upper one's hold), then closes the
    GroupByKeys in pipeline order, each moving to ``MAX_TIMESTAMP`` only
    after the one above it has closed.  With obs on, node
    ``{kind}{i}`` counts ``exec.operator.records_in``/``records_out``
    under that operator label and ``layer="dataflow"``.
    """

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self.result = PipelineResult()
        self._arrival_index = 0
        registry = obs.get_registry() if obs.is_enabled() else None
        nodes = pipeline._nodes
        source_of: dict[int, PCollection] = {}
        start: dict[int, Timestamp] = {}
        for node in nodes:
            if node.kind == "source":
                source_of[id(node)] = node
                start[id(node)] = node.spec["watermark"].current().value
            else:
                source_of[id(node)] = source_of[id(node.parent)]
        # Leaves first: a node delivers into its children's entry points.
        entries: dict[int, Callable[[Any], None]] = {}
        gbks: list[tuple[PCollection, _GBKOp]] = []
        for index in range(len(nodes) - 1, -1, -1):
            node = nodes[index]
            if node.kind == "source":
                continue
            label = f"{node.kind}{index}"
            count = None
            if registry is not None:
                count = registry.counter(
                    "exec.operator.records_out", operator=label,
                    layer="dataflow").inc
            emit = _fan_out([entries[id(child)] for child in node.children],
                            count)
            op = self._node(node, emit, start[id(source_of[id(node)])])
            entries[id(node)] = op.process
            if registry is not None:
                entries[id(node)] = _counted(registry.counter(
                    "exec.operator.records_in", operator=label,
                    layer="dataflow").inc, op.process)
            if node.kind == "gbk":
                gbks.append((node, op))
        gbks.reverse()
        gbk_of = {id(node): op for node, op in gbks}
        for node, op in gbks:
            above = node.parent
            while above is not None and id(above) not in gbk_of:
                above = above.parent
            op.upstream = None if above is None else gbk_of[id(above)]
        #: In pipeline order, so each one's upstream comes before it.
        self._gbks = [op for _, op in gbks]
        self._sources = {
            id(node): _Source(
                start[id(node)],
                [entries[id(child)] for child in node.children],
                [op for gbk, op in gbks if source_of[id(gbk)] is node])
            for node in pipeline._sources}

    def _node(self, node: PCollection, emit: Callable[[Any], None],
              watermark: Timestamp) -> _ParDoOp | _WindowOp | _GBKOp | _SinkOp:
        if node.kind == "pardo":
            return _ParDoOp(node.spec["fn"], emit)
        if node.kind == "gbk":
            return _GBKOp(node, self, emit, watermark)
        if node.kind == "window":
            return _WindowOp(node.windowing.window_fn, emit)
        if node.kind == "sink":
            return _SinkOp(node.spec["label"], self.result, emit)
        raise PlanError(f"unexpected node kind {node.kind}")

    def run(self) -> PipelineResult:
        tracer = obs.get_tracer() if obs.is_enabled() else obs.NoopTracer()
        with tracer.span("dataflow.pipeline.run") as root:
            for index, node in enumerate(self.pipeline._sources):
                source = self._sources[id(node)]
                generator: WatermarkGenerator = node.spec["watermark"]
                with tracer.span("dataflow.source", index=index) as span:
                    for value, timestamp in node.spec["elements"]:
                        self._arrival_index += 1
                        wv = WindowedValue(value, timestamp,
                                           (GlobalWindows.WINDOW,))
                        mark = generator.observe(timestamp)
                        for deliver in source.entries:
                            deliver(wv)
                        if mark is not None:
                            source.advance(mark.value)
                    span.add(elements=len(node.spec["elements"]))
                source.advance(MAX_TIMESTAMP)
            # Close each GroupByKey before those below it move to the end,
            # so what it force-drains reaches them on time.
            for gbk in self._gbks:
                if gbk.watermark < MAX_TIMESTAMP:
                    gbk.advance(MAX_TIMESTAMP)
                gbk.close()
            root.add(dropped_late=self.result.dropped_late)
        return self.result
