"""Kernel plans: named operators wired into a push-based dataflow.

A :class:`Plan` is the kernel's unit of execution.  Layers lower their
queries to a plan — sources are named input channels, operators are
:class:`~repro.exec.operator.Operator` instances — then drive it with
``push`` / ``advance_watermark`` / ``mark_idle`` / ``close``.

The plan owns the three cross-cutting concerns the four legacy engines
each reimplemented:

* **watermark propagation** — every operator gets a
  :class:`~repro.exec.watermarks.WatermarkTracker` over its input
  channels; advancement is two-phase (all trackers update in topological
  order, then ``process_watermark`` fires in plan order) so elements
  emitted by an upstream firing reach downstream operators that already
  observe the new watermark, matching Dataflow pane semantics.
* **idle sources** — a source may declare ``idle_timeout`` (measured in
  plan-wide pushes); once it falls that far behind it is excluded from
  downstream min-combines, and ``mark_idle``/``advance_watermark`` give
  callers a manual escape hatch.  One fix, every layer.
* **observability** — when :mod:`repro.obs` is enabled *before*
  ``open()``, ``exec.operator.records_in`` / ``records_out`` counters per
  operator, recorded at the plan boundary instead of inside each engine;
  with :mod:`repro.obs.profile` on as well, the plan additionally grows
  per-operator profiling collectors (in/out, sampled self-time, watermark
  lag).  Both decisions are taken once at open time, so the disabled hot
  path delivers straight to ``process_element``: no registry counter, no
  collector allocation, no timing calls, just one ``is None`` check per
  plan-wide push.

``fuse`` collapses chains of fusible operators into
:class:`~repro.exec.operator.FusedOperator` nodes before ``open``.
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Callable

import repro.obs as obs
from repro.core.time import Timestamp
from repro.exec.fusion import fuse_fixpoint
from repro.exec.operator import Emitter, Operator, OperatorContext
from repro.exec.state import DictStateBackend, StateBackend
from repro.exec.watermarks import WatermarkTracker
from repro.obs import profile as _profile


class _Source:
    """A named input channel of the plan."""

    __slots__ = ("name", "idle_timeout", "initial_watermark", "targets",
                 "last_seq", "deliveries", "watermark")

    def __init__(self, name: str, idle_timeout: int | None,
                 initial_watermark: Timestamp) -> None:
        self.name = name
        self.idle_timeout = idle_timeout
        self.initial_watermark = initial_watermark
        self.targets: list[tuple["_Node", int]] = []
        self.last_seq = 0
        #: bound per-target entry points, precomputed at open()
        self.deliveries: list[tuple[Callable[..., None], int]] = []
        #: last advanced watermark (read pull-based for lag estimates)
        self.watermark = initial_watermark


class _Node:
    """An operator plus its plan wiring (inputs, targets, tracker, obs)."""

    __slots__ = ("name", "op", "inputs", "targets", "tracker", "plan",
                 "fires_watermark", "profile", "profiler", "count",
                 "_registry", "_in_counter", "_out_counter")

    def __init__(self, name: str, op: Operator, inputs: list[str]) -> None:
        self.name = name
        self.op = op
        self.inputs = inputs
        self.targets: list[tuple["_Node", int]] = []
        self.tracker: WatermarkTracker | None = None
        self.plan: "Plan | None" = None
        self.fires_watermark = True
        self.profile = None
        #: flat copies of plan state for the profiled entry point — one
        #: attribute load each instead of two chained ones per element
        self.profiler = None
        self.count = False
        self._registry = None
        self._in_counter = None
        self._out_counter = None

    def _counters(self):
        # The global registry is swapped by obs.reset() between tests, so
        # the cached counter handles are guarded by registry identity.
        registry = obs.get_registry()
        if registry is not self._registry:
            labels = self.plan.labels
            self._in_counter = registry.counter(
                "exec.operator.records_in", operator=self.name, **labels)
            self._out_counter = registry.counter(
                "exec.operator.records_out", operator=self.name, **labels)
            self._registry = registry
        return self._in_counter, self._out_counter

    def receive(self, value: Any, input_index: int) -> None:
        """The counting entry point (only ever wired by ``open()`` when
        obs was enabled)."""
        self._counters()[0].inc()
        self.op.process_element(value, input_index)

    def preceive(self, value: Any, input_index: int) -> None:
        """The profiled entry point (only ever wired by ``open()`` when
        profiling was enabled, so the plain hot path never pays for it).

        Self-time accounting: the call is timed inclusively, downstream
        work that ran synchronously inside it (via the emitter reaching
        other ``preceive`` frames) accumulates in the stack frame pushed
        here, and the difference is this operator's own busy time — which
        is why busy shares across a plan sum to ~100%.
        """
        prof = self.profile
        prof.records_in += 1
        if self.count:
            self._counters()[0].inc()
        profiler = self.profiler
        if profiler.timing:
            stack = profiler.stack
            stack.append(0.0)
            started = _perf()
            self.op.process_element(value, input_index)
            elapsed = _perf() - started
            child_time = stack.pop()
            prof.busy_seconds += elapsed - child_time
            prof.timed_in += 1
            if stack:
                stack[-1] += elapsed
        else:
            self.op.process_element(value, input_index)



class _NodeEmitter(Emitter):
    """The counting emitter: counts a node's emissions, then routes them
    to every downstream (node, input) pair's counting entry point."""

    __slots__ = ("_node", "_targets")

    def __init__(self, node: _Node) -> None:
        self._node = node
        self._targets = node.targets

    def emit(self, value: Any) -> None:
        self._node._counters()[1].inc()
        for target, input_index in self._targets:
            target.receive(value, input_index)


class _FastEmitter(Emitter):
    """The obs-off emitter: straight to downstream ``process_element``."""

    __slots__ = ("_deliveries",)

    def __init__(self, node: _Node) -> None:
        self._deliveries = [(target.op.process_element, input_index)
                            for target, input_index in node.targets]

    def emit(self, value: Any) -> None:
        for deliver, input_index in self._deliveries:
            deliver(value, input_index)


class _ProfilingEmitter(Emitter):
    """Counts emissions into the node's profile, then delivers downstream
    through the profiled entry points.  Subsumes ``_NodeEmitter`` when the
    plan also counts into the registry."""

    __slots__ = ("_node", "_profile", "_count", "_deliveries")

    def __init__(self, node: _Node) -> None:
        self._node = node
        self._profile = node.profile
        self._count = node.count
        self._deliveries = [(target.preceive, input_index)
                            for target, input_index in node.targets]

    def emit(self, value: Any) -> None:
        self._profile.records_out += 1
        if self._count:
            self._node._counters()[1].inc()
        for deliver, input_index in self._deliveries:
            deliver(value, input_index)


class Plan:
    """A wired set of kernel operators plus sources, ready to push into."""

    def __init__(self) -> None:
        self._sources: dict[str, _Source] = {}
        self._nodes: dict[str, _Node] = {}
        self._order: list[_Node] = []
        self._opened = False
        self._seq = 0
        self._idle: set[str] = set()
        self._track_idle = False
        self._profiler: "_profile.PlanProfiler | None" = None
        self.labels: dict[str, str] = {}

    # -- construction ----------------------------------------------------------

    def add_source(self, name: str, idle_timeout: int | None = None,
                   initial_watermark: Timestamp = -1) -> str:
        if name in self._sources or name in self._nodes:
            raise ValueError(f"duplicate plan channel {name!r}")
        self._sources[name] = _Source(name, idle_timeout, initial_watermark)
        return name

    def add_operator(self, name: str, op: Operator,
                     inputs: list[str]) -> str:
        if name in self._sources or name in self._nodes:
            raise ValueError(f"duplicate plan channel {name!r}")
        if not inputs:
            raise ValueError(f"operator {name!r} needs at least one input")
        for channel in inputs:
            if channel not in self._sources and channel not in self._nodes:
                raise ValueError(
                    f"operator {name!r} reads unknown channel {channel!r}")
        node = _Node(name, op, list(inputs))
        self._nodes[name] = node
        self._order.append(node)
        return name

    def operator(self, name: str) -> Operator:
        return self._nodes[name].op

    def node_names(self) -> list[str]:
        return [node.name for node in self._order]

    # -- fusion ----------------------------------------------------------------

    def fuse(self) -> int:
        """Collapse chains of fusible operators; returns fusions applied."""
        if self._opened:
            raise RuntimeError("fuse() must run before open()")
        from repro.exec.operator import FusedOperator

        def consumers(channel: str) -> list[_Node]:
            return [node for node in self._order
                    for inp in node.inputs if inp == channel]

        def edges():
            for down in self._order:
                if len(down.inputs) == 1 and down.inputs[0] in self._nodes:
                    yield (self._nodes[down.inputs[0]], down)

        def can_fuse(edge) -> bool:
            up, down = edge
            return (up.op.fusible and down.op.fusible
                    and len(consumers(up.name)) == 1)

        def merge(edge) -> None:
            up, down = edge
            down.op = FusedOperator([up.op, down.op])
            down.inputs = list(up.inputs)
            del self._nodes[up.name]
            self._order.remove(up)

        return fuse_fixpoint(edges, can_fuse, merge)

    # -- lifecycle -------------------------------------------------------------

    def open(self, state_factory: Callable[[], StateBackend]
             = DictStateBackend, **labels: str) -> None:
        """Wire targets/trackers and open every operator in plan order."""
        if self._opened:
            raise RuntimeError("plan already opened")
        self._opened = True
        self.labels = dict(labels)
        # Channel initial watermarks propagate: a node's initial combined
        # mark is the min over its inputs' initials.
        initials: dict[str, Timestamp] = {
            name: src.initial_watermark
            for name, src in self._sources.items()}
        for node in self._order:
            node.plan = self
            for index, channel in enumerate(node.inputs):
                upstream = self._sources.get(channel) or self._nodes[channel]
                upstream.targets.append((node, index))
            node.tracker = WatermarkTracker(
                list(node.inputs),
                initials={ch: initials[ch] for ch in node.inputs})
            initials[node.name] = node.tracker.combined
        # Counting and profiling are decided once, here: plans opened while
        # obs is off never touch the registry, allocate a collector or take
        # a timing call.
        count = obs.is_enabled()
        if _profile._ENABLED:
            self._profiler = _profile.PlanProfiler(self)
            for node in self._order:
                node.profile = self._profiler.register(node.name, node.op)
                node.profiler = self._profiler
                node.count = count
        for node in self._order:
            if self._profiler is not None:
                emitter: Emitter = _ProfilingEmitter(node)
            elif count:
                emitter = _NodeEmitter(node)
            else:
                emitter = _FastEmitter(node)
            node.op.open(OperatorContext(
                name=node.name, emitter=emitter,
                state_factory=state_factory,
                watermark_fn=(lambda tracker=node.tracker:
                              tracker.combined)))
        # Hot-path precomputation: pushes bypass per-source idle
        # bookkeeping entirely when no source declares a timeout, and
        # deliver straight to ``process_element`` when obs is off.
        self._track_idle = any(src.idle_timeout is not None
                               for src in self._sources.values())
        from repro.exec.operator import FusedOperator
        for node in self._order:
            op_type = type(node.op)
            overrides = (op_type.process_watermark
                         is not Operator.process_watermark)
            if op_type is FusedOperator:
                overrides = bool(node.op._wm_members)
            node.fires_watermark = overrides
        for src in self._sources.values():
            if self._profiler is not None:
                entry = lambda node: node.preceive  # noqa: E731
            elif count:
                entry = lambda node: node.receive  # noqa: E731
            else:
                entry = lambda node: node.op.process_element  # noqa: E731
            src.deliveries = [(entry(node), input_index)
                              for node, input_index in src.targets]

    def push(self, source: str, value: Any) -> None:
        """Inject one element at ``source``; it flows to completion."""
        src = self._sources[source]
        if self._track_idle:
            self._seq += 1
            src.last_seq = self._seq
            if source in self._idle:
                self._reactivate(source)
            self._expire_idle_sources()
        elif self._idle and source in self._idle:
            self._reactivate(source)
        profiler = self._profiler
        if profiler is not None:
            profiler.tick += 1
            profiler.timing = profiler.tick % profiler.sample_every == 0
            if profiler.tick % profiler.flight_every == 0:
                _profile._RECORDER.record(
                    "element.push", plan=profiler.label, source=source,
                    tick=profiler.tick)
        for deliver, input_index in src.deliveries:
            deliver(value, input_index)

    def advance_watermark(self, source: str, watermark: Timestamp) -> None:
        """Advance ``source``'s watermark; fire operators whose combined
        input watermark moved (two-phase: track, then fire in plan order).
        """
        src = self._sources[source]
        src.watermark = watermark
        if self._track_idle:
            src.last_seq = self._seq
        if self._idle and source in self._idle:
            self._reactivate(source)
        profiler = self._profiler
        if profiler is not None:
            profiler.tick += 1
            profiler.timing = profiler.tick % profiler.sample_every == 0
            _profile._RECORDER.record(
                "watermark.advance", plan=profiler.label, source=source,
                watermark=watermark)
        updates: dict[str, Timestamp] = {source: watermark}
        self._propagate(updates)

    def mark_idle(self, source: str) -> None:
        """Manually idle a source so it stops holding back event time."""
        if source in self._idle:
            return
        self._idle.add(source)
        self._propagate_idle({source})

    def close(self) -> None:
        """Close every operator in plan order; final output cascades."""
        for node in self._order:
            node.op.close()

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {node.name: node.op.snapshot() for node in self._order}

    def restore(self, state: dict[str, Any]) -> None:
        for node in self._order:
            if node.name in state:
                node.op.restore(state[node.name])
        # Idle bookkeeping is execution-time state, not operator state: a
        # restored plan starts a fresh delivery sequence, so stale
        # ``last_seq`` values (captured when the crashed run was N pushes
        # in) would either instantly re-idle a live source or, if the
        # source was idle at the crash, keep it excluded from downstream
        # min-combines forever.  Reset the clock and re-activate
        # everything; the trackers' combined watermarks are monotone, so
        # re-activation never regresses event time.
        self._seq = 0
        for name, src in self._sources.items():
            src.last_seq = 0
            if name in self._idle:
                self._reactivate(name)
        self._idle.clear()

    # -- internals -------------------------------------------------------------

    def _propagate(self, updates: dict[str, Timestamp]) -> None:
        fired: list[tuple[_Node, Timestamp]] = []
        get = updates.get
        for node in self._order:
            advanced = None
            tracker = node.tracker
            for channel in node.inputs:
                value = get(channel)
                if value is not None:
                    new = tracker.advance(channel, value)
                    if new is not None:
                        advanced = new
            if advanced is not None:
                updates[node.name] = advanced
                if node.fires_watermark:
                    fired.append((node, advanced))
        profiler = self._profiler
        if profiler is not None and profiler.timing:
            for node, watermark in fired:
                self._timed_fire(node, watermark, profiler)
        else:
            for node, watermark in fired:
                node.op.process_watermark(watermark)

    def _timed_fire(self, node: _Node, watermark: Timestamp,
                    profiler: "_profile.PlanProfiler") -> None:
        # Watermark firings (pane emission, window eviction) are often the
        # real cost of a windowed plan; attribute them with the same
        # self-time stack discipline as element flows.
        stack = profiler.stack
        stack.append(0.0)
        started = _perf()
        node.op.process_watermark(watermark)
        elapsed = _perf() - started
        child_time = stack.pop()
        node.profile.busy_seconds += elapsed - child_time
        if stack:
            stack[-1] += elapsed

    def _propagate_idle(self, idle_channels: set[str]) -> None:
        fired: list[tuple[_Node, Timestamp]] = []
        for node in self._order:
            advanced = None
            for channel in node.inputs:
                if channel in idle_channels:
                    new = node.tracker.mark_idle(channel)
                    if new is not None:
                        advanced = new
            if advanced is not None and node.fires_watermark:
                fired.append((node, advanced))
            if all(ch in idle_channels or ch in self._idle
                   for ch in node.inputs):
                idle_channels.add(node.name)
                self._idle.add(node.name)
        for node, watermark in fired:
            node.op.process_watermark(watermark)

    def _reactivate(self, source: str) -> None:
        self._idle.discard(source)
        active = {source}
        for node in self._order:
            woke = False
            for channel in node.inputs:
                if channel in active:
                    node.tracker.mark_active(channel)
                    woke = True
            if woke and node.name in self._idle:
                self._idle.discard(node.name)
                active.add(node.name)

    def _expire_idle_sources(self) -> None:
        for name, src in self._sources.items():
            if (src.idle_timeout is not None and name not in self._idle
                    and self._seq - src.last_seq > src.idle_timeout):
                self.mark_idle(name)
