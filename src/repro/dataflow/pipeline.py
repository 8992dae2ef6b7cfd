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
from repro.core.errors import PlanError
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
from repro.dataflow.windowfn import GlobalWindows, WindowFn
from repro.exec import Operator, Plan


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
        :mod:`repro.plan.monotone`, :func:`repro.plan.signature.plan_signature`
        and EXPLAIN to work without interpreting the payloads.
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
        """Execute the pipeline: the DAG is lowered onto the shared
        execution kernel (:mod:`repro.exec`) and each source is replayed
        in arrival order."""
        return _KernelRunner(self).run()


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
# Kernel lowering
# ---------------------------------------------------------------------------


class _ParDoOp(Operator):
    """ParDo as a kernel operator (stateless, fusible)."""

    fusible = True

    def __init__(self, fn: Callable[[Any], Iterable[Any]]) -> None:
        self._fn = fn

    def process_element(self, wv: WindowedValue,
                        input_index: int = 0) -> None:
        for value in self._fn(wv.value):
            self.emit(wv.with_value(value))


class _WindowOp(Operator):
    """Window assignment as a kernel operator (stateless, fusible)."""

    fusible = True

    def __init__(self, window_fn: WindowFn) -> None:
        self._window_fn = window_fn

    def process_element(self, wv: WindowedValue,
                        input_index: int = 0) -> None:
        windows = tuple(self._window_fn.assign(wv.timestamp))
        self.emit(WindowedValue(wv.value, wv.timestamp, windows, wv.pane))


class _GBKOp(Operator):
    """GroupByKey as a kernel operator: insert, merge, fire, finalise.

    Inserts judge lateness against the kernel's tracked watermark,
    ``process_watermark`` fires the panes whose trigger says so, and
    ``close`` force-drains the rest.  Processing-time triggers count
    pipeline arrivals, not elements reaching this node, so the operator
    reads its runner's arrival index.
    """

    def __init__(self, node: PCollection, runner: "_KernelRunner") -> None:
        self.node = node
        self._runner = runner
        self.result = runner.result
        self.panes: dict[tuple[Any, Window], _PaneState] = {}
        self.merged_away: set[tuple[Any, Window]] = set()
        self._obs = obs.is_enabled()
        self._registry = obs.get_registry() if self._obs else None

    def open(self, ctx) -> None:
        super().open(ctx)
        self._watermark = ctx.watermark

    def process_element(self, wv: WindowedValue,
                        input_index: int = 0) -> None:
        strategy = self.node.windowing
        watermark = self._watermark()
        try:
            key, value = wv.value
        except (TypeError, ValueError):
            raise PlanError(
                "GroupByKey input must be (key, value) pairs; got "
                f"{wv.value!r}") from None
        for piece in wv.exploded():
            (window,) = piece.windows
            # Lateness: beyond allowed lateness the element is dropped.
            if watermark >= window.end - 1 + strategy.allowed_lateness \
                    and watermark >= window.end - 1:
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
        active windows, transplanting buffered state."""
        active = [w for (k, w) in self.panes if k == key
                  and (k, w) not in self.merged_away]
        merged = strategy.window_fn.merge(active + [window])
        # Find the merged window that swallowed the new proto-window.
        target = next(w for w in merged if w.overlaps(window)
                      or w == window)
        if target not in active:
            absorbed = [w for w in active if w.overlaps(target)]
            fresh = _PaneState(strategy.trigger)
            for old in absorbed:
                old_pane = self.panes.pop((key, old))
                self.merged_away.add((key, old))
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
        return target

    def process_watermark(self, watermark: Timestamp,
                          input_index: int = 0) -> None:
        trigger = self.node.windowing.trigger
        for (key, window) in sorted(
                self.panes, key=lambda kw: (kw[1], repr(kw[0]))):
            pane = self.panes[(key, window)]
            if trigger.on_watermark(pane.trigger_state, window, watermark):
                if pane.had_data:
                    self._fire(key, window, PaneTiming.ON_TIME)
                pane.on_time_fired = True

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
        self.emit(WindowedValue((key, payload),
                                min(window.end - 1, MAX_TIMESTAMP - 1),
                                (window,), info))


class _SinkOp(Operator):
    """Records outputs under a label; passes elements through."""

    fusible = True

    def __init__(self, label: str, result: PipelineResult) -> None:
        self._label = label
        self._result = result

    def process_element(self, wv: WindowedValue,
                        input_index: int = 0) -> None:
        self._result.outputs[self._label].append(wv)
        self.emit(wv)


class _KernelRunner:
    """Lowers the pipeline DAG onto a :class:`repro.exec.Plan`.

    Sources become plan channels whose initial watermark matches the
    generator's pre-observation value.  The driver replays each source in
    arrival order, advancing the channel's watermark after every element
    the generator marks; element routing, watermark propagation and
    per-operator counters all come from the kernel.
    """

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self.result = PipelineResult()
        self._arrival_index = 0
        self.plan = Plan()
        names: dict[int, str] = {}
        for index, node in enumerate(pipeline._nodes):
            name = f"{node.kind}{index}"
            names[id(node)] = name
            if node.kind == "source":
                generator: WatermarkGenerator = node.spec["watermark"]
                self.plan.add_source(
                    name, initial_watermark=generator.current().value)
                continue
            parent_name = names[id(node.parent)]
            if node.kind == "pardo":
                op: Operator = _ParDoOp(node.spec["fn"])
            elif node.kind == "gbk":
                op = _GBKOp(node, self)
            elif node.kind == "window":
                op = _WindowOp(node.windowing.window_fn)
            elif node.kind == "sink":
                op = _SinkOp(node.spec["label"], self.result)
            else:
                raise PlanError(f"unexpected node kind {node.kind}")
            self.plan.add_operator(name, op, [parent_name])
        self._source_channels = {
            id(source): names[id(source)]
            for source in pipeline._sources}
        self.plan.fuse()

    def run(self) -> PipelineResult:
        tracer = obs.get_tracer() if obs.is_enabled() else obs.NoopTracer()
        self.plan.open(layer="dataflow")
        with tracer.span("dataflow.pipeline.run") as root:
            for index, source in enumerate(self.pipeline._sources):
                channel = self._source_channels[id(source)]
                generator: WatermarkGenerator = source.spec["watermark"]
                with tracer.span("dataflow.source", index=index) as span:
                    for value, timestamp in source.spec["elements"]:
                        self._arrival_index += 1
                        wv = WindowedValue(value, timestamp,
                                           (GlobalWindows.WINDOW,))
                        mark = generator.observe(timestamp)
                        self.plan.push(channel, wv)
                        if mark is not None:
                            self.plan.advance_watermark(channel, mark.value)
                    span.add(elements=len(source.spec["elements"]))
                self.plan.advance_watermark(channel, MAX_TIMESTAMP)
            self.plan.close()
            root.add(dropped_late=self.result.dropped_late)
        return self.result
