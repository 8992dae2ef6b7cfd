"""Continuous EXPLAIN ANALYZE: per-operator profiling and introspection.

The profiling layer the adaptivity loop and serving tier sit on (ROADMAP
items 4 and 5): where :mod:`repro.obs` gives raw counters/gauges, this
module attributes *cost* to individual operators and renders it back onto
plans as a live EXPLAIN ANALYZE.  Four pieces:

* **Per-operator collectors** — :class:`OperatorProfile` records flowing
  in/out (live selectivity), busy wall-time via *sampled* self-time
  timing (1 in ``sample_every`` element flows is timed; nesting is
  untangled with a child-time stack so shares sum to ~100%), plus
  pull-based state-size and watermark-lag estimates.  The kernel
  (:mod:`repro.exec.plan`) wires these at ``open()`` time **only when**
  :func:`enable` has been called — the disabled hot path does zero
  profiling work (no collector allocation, no timing calls), which the
  tier-1 guard test pins.
* **Backpressure telemetry** — queue peak/pressure tracking lives on
  :class:`repro.dsms.queues.InputQueue` and the runtime mailboxes;
  :class:`StallDetector` spots sources that stopped producing while the
  rest of the engine advances.
* **Flight recorder** — :class:`FlightRecorder`, a bounded ring of recent
  structured events (element pushes, watermark advances, checkpoint
  barriers, recovery attempts, queue pressure), dumpable on demand or on
  crash (:func:`dump_on_crash`).
* **Introspection surface** — :func:`explain_analyze` annotates a plan
  with live stats, :func:`render_top` is the ``python -m repro.obs top``
  console view, and :func:`write_snapshot` is the JSONL endpoint.

Import discipline: this module imports only the standard library at
module level (the execution layers import it on *their* hot paths, so it
must not import them back).  Everything from ``repro.*`` is imported
lazily inside functions.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
import weakref
from collections import deque
from typing import Any, Iterator, Mapping

#: Profiling master switch.  Hot paths read this module attribute
#: directly (one load + one truth test); it is flipped only through
#: :func:`enable` / :func:`disable` / :func:`reset`.
_ENABLED = False

#: Default sampling rate: 1 in N element flows through a plan is timed.
DEFAULT_SAMPLE_EVERY = 16

#: One in N plan pushes lands an ``element.push`` flight-recorder event.
FLIGHT_EVERY = 64

#: Queue occupancy fraction at which the pressure signal trips.
PRESSURE_THRESHOLD = 0.8

_sample_every = DEFAULT_SAMPLE_EVERY


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """A bounded ring buffer of recent structured events.

    Everything interesting that happened lately — element pushes,
    watermark advances, checkpoint barriers, recovery attempts, queue
    pressure crossings — lands here as a small dict; the ring keeps the
    newest ``capacity`` events and can be dumped as JSONL on demand or on
    crash.  Recording is an O(1) deque append, but call sites still gate
    on :data:`_ENABLED` so the disabled path pays nothing at all.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, **fields: Any) -> None:
        self._seq += 1
        self._events.append({"seq": self._seq, "kind": kind,
                             "wall": time.time(), **fields})

    def events(self) -> list[dict[str, Any]]:
        return list(self._events)

    def tail(self, n: int = 16) -> list[dict[str, Any]]:
        if n <= 0:
            return []
        return list(self._events)[-n:]

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= ``len`` once the ring wraps)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    def dump_jsonl(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write every retained event, one JSON object per line."""
        path = pathlib.Path(path)
        lines = [json.dumps(event, sort_keys=True, default=repr)
                 for event in self._events]
        path.write_text("\n".join(lines) + ("\n" if lines else ""),
                        encoding="utf-8")
        return path


_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    return _RECORDER


@contextlib.contextmanager
def dump_on_crash(path: str | pathlib.Path) -> Iterator[FlightRecorder]:
    """Dump the flight recorder to ``path`` if the body raises."""
    try:
        yield _RECORDER
    except BaseException:
        _RECORDER.dump_jsonl(path)
        raise


# ---------------------------------------------------------------------------
# Per-operator collectors
# ---------------------------------------------------------------------------


class OperatorProfile:
    """Live cost collectors for one kernel plan node.

    ``records_in``/``records_out`` are exact; ``busy_seconds`` is the
    *sampled self-time* sum — only 1 in ``sample_every`` element flows is
    timed (``timed_in`` counts them), and nested downstream work is
    subtracted via the profiler's child-time stack, so busy shares across
    a plan sum to ~100% regardless of how deeply pushes nest.
    """

    __slots__ = ("name", "kind", "records_in", "records_out",
                 "busy_seconds", "timed_in")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.records_in = 0
        self.records_out = 0
        self.busy_seconds = 0.0
        self.timed_in = 0

    @property
    def selectivity(self) -> float | None:
        if not self.records_in:
            return None
        return self.records_out / self.records_in

    def as_dict(self) -> dict[str, Any]:
        return {"operator": self.name, "kind": self.kind,
                "records_in": self.records_in,
                "records_out": self.records_out,
                "selectivity": self.selectivity,
                "busy_seconds": self.busy_seconds,
                "timed_in": self.timed_in}


#: Live plan profilers (weakly held; obs.reset() drops them eagerly).
_PROFILERS: "weakref.WeakSet[PlanProfiler]" = weakref.WeakSet()


class PlanProfiler:
    """Per-plan profiling state: collectors, sampling tick, timing stack.

    Created by :meth:`repro.exec.plan.Plan.open` **iff** profiling was
    enabled before the plan opened.  ``tick`` advances per plan-wide
    push/advance; ``timing`` is the per-flow sampling decision (set once
    per push so every operator in one element's synchronous flow is timed
    consistently).  ``stack`` holds one accumulated-child-time frame per
    in-flight timed call; the kernel subtracts it to get self-time.
    """

    def __init__(self, plan: Any, sample_every: int | None = None) -> None:
        self.plan = plan
        self.sample_every = max(1, sample_every
                                if sample_every is not None
                                else _sample_every)
        self.flight_every = FLIGHT_EVERY
        self.label = plan.labels.get("layer", "kernel") or "kernel"
        self.tick = 0
        self.timing = False
        self.stack: list[float] = []
        self.profiles: dict[str, OperatorProfile] = {}
        _PROFILERS.add(self)

    def register(self, name: str, op: Any) -> OperatorProfile:
        profile = OperatorProfile(name, type(op).__name__)
        self.profiles[name] = profile
        return profile

    # -- pull-based expensive stats (snapshot time only) ----------------------

    def _high_watermark(self) -> Any:
        marks = [src.watermark for src in self.plan._sources.values()]
        return max(marks) if marks else None

    def snapshot(self) -> dict[str, Any]:
        """Everything about the plan, pulled live (never on the hot path)."""
        high = self._high_watermark()
        total_busy = sum(p.busy_seconds for p in self.profiles.values())
        operators = []
        for node in self.plan._order:
            profile = self.profiles.get(node.name)
            if profile is None:  # registered after a fuse? defensive only
                continue
            entry = profile.as_dict()
            entry["busy_share"] = (profile.busy_seconds / total_busy
                                   if total_busy else None)
            combined = node.tracker.combined if node.tracker else None
            entry["watermark"] = combined
            entry["watermark_lag"] = (
                max(0, high - combined)
                if high is not None and combined is not None else None)
            entry["state_entries"] = state_entries(node.op)
            operators.append(entry)
        return {"label": self.label, "labels": dict(self.plan.labels),
                "sample_every": self.sample_every, "ticks": self.tick,
                "high_watermark": high,
                "total_busy_seconds": total_busy,
                "operators": operators}

    def publish(self, registry: Any) -> None:
        """Idempotent push of the collectors into a metrics registry."""
        labels = dict(self.plan.labels)
        for profile in self.profiles.values():
            tags = dict(labels, operator=profile.name)
            registry.gauge("exec.profile.records_in", **tags).set(
                profile.records_in)
            registry.gauge("exec.profile.records_out", **tags).set(
                profile.records_out)
            registry.gauge("exec.profile.busy_seconds", **tags).set(
                profile.busy_seconds)


# ---------------------------------------------------------------------------
# State-size estimation
# ---------------------------------------------------------------------------


def state_entries(op: Any) -> int | None:
    """Entries held by an operator's state, or None when unknowable.

    Pull-based and duck-typed: kernel operators keep a ``state``
    :class:`~repro.exec.state.StateBackend`, CQL adapters expose their
    wrapped physical operator's ``state_size``, fused chains sum their
    members.
    """
    from repro.exec.operator import FusedOperator
    from repro.exec.state import StateBackend

    if isinstance(op, FusedOperator):
        parts = [state_entries(member) for member in op.members]
        known = [p for p in parts if p is not None]
        return sum(known) if known else None
    phys = getattr(op, "phys", None)
    if phys is not None:
        size = getattr(phys, "state_size", None)
        return int(size) if size is not None else 0
    state = getattr(op, "state", None)
    if isinstance(state, StateBackend):
        return state.estimated_entries()
    size = getattr(op, "state_size", None)
    if isinstance(size, int):
        return size
    return None


def state_bytes(op: Any) -> int | None:
    """A cheap serialized-size estimate of an operator's state.

    Uses the backend's sampling estimator when there is one, else the
    repr length of the operator's state: a CQL operator's
    ``_STATE_ATTRS``, or a kernel operator's own snapshot.  Only ever
    called from introspection surfaces (explain/snapshot), never on a
    hot path.
    """
    from repro.exec.state import StateBackend

    state = getattr(op, "state", None)
    if isinstance(state, StateBackend):
        return state.estimated_bytes()
    attrs = getattr(op, "_STATE_ATTRS", None)
    if attrs is not None:
        return len(repr([getattr(op, attr) for attr in attrs]))
    snapshot = getattr(op, "snapshot", None)
    if snapshot is None:
        return None
    try:
        return len(repr(snapshot()))
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Stall detection
# ---------------------------------------------------------------------------


class StallDetector:
    """Per-source stall detection over a shared arrival tick.

    Every arrival (on any stream) advances a global tick and stamps its
    stream; a stream whose gap to the tick exceeds ``threshold`` is
    *stalled* — the engine is making progress while this source is not.
    Streams registered before producing anything report the full tick as
    their gap, which is exactly the crash-recovered-source case.
    """

    def __init__(self, threshold: int = 256) -> None:
        self.threshold = threshold
        self.tick = 0
        self._last: dict[str, int] = {}

    def register(self, stream: str) -> None:
        self._last.setdefault(stream, 0)

    def note_arrival(self, stream: str) -> None:
        self.tick += 1
        self._last[stream] = self.tick

    def gaps(self) -> dict[str, int]:
        return {stream: self.tick - last
                for stream, last in sorted(self._last.items())}

    def stalled(self) -> dict[str, int]:
        """Streams currently behind by more than the threshold."""
        return {stream: gap for stream, gap in self.gaps().items()
                if gap > self.threshold}

    def snapshot(self) -> dict[str, Any]:
        return {"tick": self.tick, "threshold": self.threshold,
                "gaps": self.gaps(), "stalled": sorted(self.stalled())}


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def enable(sample_every: int | None = None) -> None:
    """Turn profiling on.  Plans opened from now on grow collectors.

    ``sample_every`` tunes the timing sample rate (1 in N element flows;
    default :data:`DEFAULT_SAMPLE_EVERY`).  Already-open plans are not
    retrofitted — the profiling decision is taken once at ``open()`` so
    the disabled hot path stays untouched.
    """
    global _ENABLED, _sample_every
    if sample_every is not None:
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        _sample_every = sample_every
    _ENABLED = True


def disable() -> None:
    """Stop profiling; existing collectors stay readable until reset."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Back to cold: disabled, empty recorder, profilers dropped."""
    global _ENABLED, _sample_every
    _ENABLED = False
    _sample_every = DEFAULT_SAMPLE_EVERY
    _RECORDER.clear()
    _PROFILERS.clear()


# ---------------------------------------------------------------------------
# Snapshot endpoint (JSONL)
# ---------------------------------------------------------------------------


def profile_snapshot(include_metrics: bool = False) -> dict[str, Any]:
    """One JSON-ready dict of everything the profiling layer knows.

    The payload the future adaptivity loop / serving tier polls: every
    live plan profiler's operators, the flight-recorder tail, and
    (optionally) the full metrics registry.  Profiler collectors are also
    published into the global registry so exporters see them.
    """
    import repro.obs as obs

    registry = obs.get_registry()
    plans = []
    for profiler in sorted(_PROFILERS, key=lambda p: p.label):
        profiler.publish(registry)
        plans.append(profiler.snapshot())
    payload: dict[str, Any] = {
        "type": "profile",
        "profiling": _ENABLED,
        "plans": plans,
        "flight_recorder": {"capacity": _RECORDER.capacity,
                            "recorded": _RECORDER.recorded,
                            "retained": len(_RECORDER),
                            "tail": _RECORDER.tail(16)},
    }
    if include_metrics:
        payload["metrics"] = registry.snapshot()
    return payload


def write_snapshot(path: str | pathlib.Path,
                   include_metrics: bool = True) -> pathlib.Path:
    """Append one profile snapshot as a JSONL line (the poll endpoint)."""
    path = pathlib.Path(path)
    line = json.dumps(profile_snapshot(include_metrics=include_metrics),
                      sort_keys=True, default=repr)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def explain_analyze(target: Any) -> str:
    """Render ``target`` with its live execution statistics.

    Dispatches by duck type: a DSMS :class:`~repro.dsms.engine.QueryHandle`
    (queue + busy header, then its query), a
    :class:`~repro.cql.executor.ContinuousQuery` (the logical IR annotated
    per node), or an opened :class:`repro.exec.Plan` (the profiler's
    per-node table).
    """
    if hasattr(target, "query") and hasattr(target, "queue"):
        return _explain_handle(target)
    if hasattr(target, "_root") and hasattr(target, "plan"):
        return _explain_continuous(target)
    if hasattr(target, "_order") and hasattr(target, "_sources"):
        return _explain_kernel_plan(target)
    raise TypeError(f"cannot explain_analyze {type(target).__name__}")


def analyze(target: Any) -> dict[str, Any]:
    """The structured (JSON-ready) form of :func:`explain_analyze`."""
    if hasattr(target, "query") and hasattr(target, "queue"):
        queue = target.queue
        out = {"query": target.name,
               "busy_seconds": getattr(target, "busy_seconds", 0.0),
               "queue": {"depth": len(queue), "capacity": queue.capacity,
                         "peak": queue.peak, "dropped": queue.dropped,
                         "pressure_events": queue.pressure_events},
               **analyze(target.query)}
        out["parallelism"] = target.query.parallelism
        rescales = getattr(target, "rescales", None)
        if rescales:
            out["rescales"] = [
                {"from": r.parallelism_from, "to": r.parallelism_to,
                 "instant": r.instant,
                 "migrated_entries": r.migrated_entries,
                 "seconds": r.seconds} for r in rescales]
        autoscaler = getattr(target, "autoscaler", None)
        if autoscaler is not None:
            out["autoscale"] = autoscaler.as_dict()
        return out
    if hasattr(target, "_root") and hasattr(target, "plan"):
        operators, total_busy = _continuous_operator_stats(target)
        return {"operators": operators,
                "total_busy_seconds": total_busy,
                "deltas_processed": target.deltas_processed,
                "emissions": len(target.emissions())}
    profiler = getattr(target, "_profiler", None)
    if profiler is not None:
        return profiler.snapshot()
    raise TypeError(f"cannot analyze {type(target).__name__}")


def _continuous_operator_stats(query: Any,
                               ) -> tuple[list[dict[str, Any]], float]:
    """Per-operator stats for a ContinuousQuery, shared ops counted once."""
    seen: set[int] = set()
    operators: list[dict[str, Any]] = []
    total_busy = 0.0
    for index, (label, op) in enumerate(query.operators()):
        if id(op) in seen:
            continue
        seen.add(id(op))
        total_busy += op.eval_seconds
        rows_in = (op.received if op.children
                   else getattr(op, "arrivals", op.received))
        entry: dict[str, Any] = {
            "operator": label, "index": index,
            "records_in": rows_in, "records_out": op.emitted,
            "selectivity": op.emitted / rows_in if rows_in else None,
            "busy_seconds": op.eval_seconds,
        }
        size = getattr(op, "state_size", None)
        if size is not None:
            entry["state_entries"] = size
            entry["state_bytes"] = state_bytes(op)
        if op.barrier_bytes is not None:
            entry["checkpoint_bytes"] = op.barrier_bytes
        operators.append(entry)
    for entry in operators:
        entry["busy_share"] = (entry["busy_seconds"] / total_busy
                               if total_busy else None)
    return operators, total_busy


def _continuous_node_stats(query: Any) -> dict[int, dict[str, Any]]:
    """Stats keyed by ``id(logical node)`` for the IR renderer: a node a
    fissioned query runs once per partition gets its copies' sum."""
    phys_map: Mapping[int, list[Any]] = query._phys_by_logical
    distinct: dict[int, Any] = {}
    for ops in phys_map.values():
        for op in ops:
            distinct[id(op)] = op
    total_busy = sum(op.eval_seconds for op in distinct.values())
    stats: dict[int, dict[str, Any]] = {}
    for node_id, ops in phys_map.items():
        rows_in = sum(op.received if op.children
                      else getattr(op, "arrivals", op.received)
                      for op in ops)
        rows_out = sum(op.emitted for op in ops)
        busy = sum(op.eval_seconds for op in ops)
        entry: dict[str, Any] = {
            "rows_in": rows_in, "rows_out": rows_out,
            "selectivity": rows_out / rows_in if rows_in else None,
            "busy_seconds": busy,
            "busy_share": busy / total_busy if total_busy else None,
        }
        if hasattr(ops[0], "state_size"):
            entry["state_entries"] = sum(op.state_size for op in ops)
            entry["state_bytes"] = sum(state_bytes(op) for op in ops)
        checkpointed = [op.barrier_bytes for op in ops
                        if op.barrier_bytes is not None]
        if checkpointed:
            entry["checkpoint_bytes"] = sum(checkpointed)
        stats[node_id] = entry
    # The R2S root is driver-level, not a physical operator: annotate it
    # with the driver's accounting so the tree has no bare lines.
    plan = query.plan
    if id(plan) not in stats:
        stats[id(plan)] = {"rows_in": query.deltas_processed,
                           "rows_out": len(query.emissions()),
                           "selectivity": None, "busy_seconds": None,
                           "busy_share": None}
    return stats


def _explain_continuous(query: Any) -> str:
    from repro.plan.explain import explain_analyzed

    stats = _continuous_node_stats(query)
    operators, total_busy = _continuous_operator_stats(query)
    lines = ([f"fissioned x{query.parallelism} (per-node stats summed "
              f"across partitions)"] if query.parallelism > 1 else [])
    lines.append(explain_analyzed(query.plan, stats))
    shares = [entry["busy_share"] for entry in operators
              if entry["busy_share"] is not None]
    if total_busy:
        lines.append(f"total busy: {total_busy:.6f}s over "
                     f"{len(operators)} operators "
                     f"(shares sum {sum(shares) * 100:.1f}%)")
    else:
        lines.append("total busy: 0s — enable timing with obs.enable() "
                     "before running the workload")
    lines.append(f"deltas processed: {query.deltas_processed}, "
                 f"emissions: {len(query.emissions())}")
    return "\n".join(lines)


def _explain_handle(handle: Any) -> str:
    queue = handle.queue
    busy = getattr(handle, "busy_seconds", 0.0)
    lines = [
        f"query {handle.name!r}: processed={handle.metrics.processed} "
        f"emitted={handle.metrics.emitted} busy={busy:.6f}s",
        f"queue: depth={len(queue)}/{queue.capacity} peak={queue.peak} "
        f"dropped={queue.dropped} "
        f"pressure_events={queue.pressure_events}",
    ]
    rescales = getattr(handle, "rescales", None)
    if rescales:
        steps = " ".join(f"{r.parallelism_from}→{r.parallelism_to}"
                         f"@{r.instant}" for r in rescales)
        lines.append(f"rescales: {steps}")
    autoscaler = getattr(handle, "autoscaler", None)
    if autoscaler is not None:
        state = autoscaler.as_dict()
        last = state["last_decision"]
        lines.append(
            f"autoscale: polls={state['polls']} "
            f"rescales={state['rescales']} "
            + (f"last={last['action']}→{last['parallelism']} "
               f"({last['reason']})" if last else "last=-"))
    return "\n".join(lines) + "\n" + _explain_continuous(handle.query)


def _format_cell(value: Any, fmt: str = "") -> str:
    if value is None:
        return "-"
    return format(value, fmt) if fmt else str(value)


def _explain_kernel_plan(plan: Any) -> str:
    profiler = getattr(plan, "_profiler", None)
    if profiler is None:
        from repro.plan.explain import explain_kernel
        return (explain_kernel(plan)
                + "\n(profiling disabled — call obs.enable(profile=True) "
                  "before the plan opens to collect live stats)")
    snapshot = profiler.snapshot()
    header = ["operator", "kind", "in", "out", "sel", "busy%", "state",
              "wm_lag"]
    rows = [[entry["operator"], entry["kind"],
             _format_cell(entry["records_in"]),
             _format_cell(entry["records_out"]),
             _format_cell(entry["selectivity"], ".3f"),
             _format_cell(None if entry["busy_share"] is None
                          else entry["busy_share"] * 100, ".1f"),
             _format_cell(entry["state_entries"]),
             _format_cell(entry["watermark_lag"])]
            for entry in snapshot["operators"]]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              if rows else len(header[i]) for i in range(len(header))]
    out = [f"kernel plan [{snapshot['label']}] "
           f"(sampled 1/{snapshot['sample_every']}, "
           f"ticks={snapshot['ticks']})"]
    out.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(" | ".join(cell.ljust(w) for cell, w in zip(row, widths))
               for row in rows)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# The `top` console view
# ---------------------------------------------------------------------------


def render_top(registry: Any = None, limit: int = 10) -> str:
    """Per-query / per-operator hot spots, refreshed from the registry.

    Two panes: standing queries ranked by busy time (DSMS attribution),
    and operators ranked by eval/busy seconds (CQL executor accounting
    plus any kernel plan profilers).
    """
    import repro.obs as obs

    registry = registry if registry is not None else obs.get_registry()
    for profiler in _PROFILERS:
        profiler.publish(registry)

    def table(title: str, header: list[str],
              rows: list[list[str]]) -> list[str]:
        widths = [max(len(header[i]), *(len(r[i]) for r in rows))
                  if rows else len(header[i]) for i in range(len(header))]
        out = [f"== {title} =="]
        out.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        out.append("-+-".join("-" * w for w in widths))
        out.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths))
                   for row in rows)
        return out

    # -- pane 1: queries ------------------------------------------------------
    queries: dict[str, dict[str, Any]] = {}
    for metric in registry.children("dsms.query.processed"):
        queries.setdefault(metric.labels.get("query", "?"), {})[
            "processed"] = metric.value
    for metric in registry.children("dsms.query.emitted"):
        queries.setdefault(metric.labels.get("query", "?"), {})[
            "emitted"] = metric.value
    for metric in registry.children("dsms.query.busy_seconds"):
        queries.setdefault(metric.labels.get("query", "?"), {})[
            "busy"] = metric.value
    for metric in registry.children("dsms.queue.peak_depth"):
        queries.setdefault(metric.labels.get("query", "?"), {})[
            "peak"] = metric.value
    query_rows = sorted(queries.items(),
                        key=lambda kv: kv[1].get("busy", 0.0),
                        reverse=True)[:limit]
    pane1 = table(
        "top queries", ["query", "busy_s", "processed", "emitted", "peak_q"],
        [[name,
          _format_cell(stats.get("busy"), ".6f"),
          _format_cell(stats.get("processed")),
          _format_cell(stats.get("emitted")),
          _format_cell(stats.get("peak"))]
         for name, stats in query_rows])

    # -- pane 2: operators ----------------------------------------------------
    operators: list[tuple[float, list[str]]] = []
    for metric in registry.children("exec.operator.eval_seconds"):
        labels = metric.labels
        tags = {k: v for k, v in labels.items()}
        ins = registry.get("exec.operator.records_in", **tags)
        outs = registry.get("exec.operator.records_out", **tags)
        operators.append((metric.value, [
            labels.get("operator", "?"),
            labels.get("query", labels.get("layer", "-")),
            f"{metric.value:.6f}",
            _format_cell(ins.value if ins else None),
            _format_cell(outs.value if outs else None)]))
    for metric in registry.children("exec.profile.busy_seconds"):
        labels = metric.labels
        tags = {k: v for k, v in labels.items()}
        ins = registry.get("exec.profile.records_in", **tags)
        outs = registry.get("exec.profile.records_out", **tags)
        operators.append((metric.value, [
            labels.get("operator", "?"),
            labels.get("layer", "-"),
            f"{metric.value:.6f}",
            _format_cell(int(ins.value) if ins else None),
            _format_cell(int(outs.value) if outs else None)]))
    operators.sort(key=lambda pair: pair[0], reverse=True)
    pane2 = table("hot operators",
                  ["operator", "query/layer", "busy_s", "in", "out"],
                  [row for _, row in operators[:limit]])

    # -- pane 3: pressure & stalls -------------------------------------------
    pressure_rows: list[list[str]] = []
    for metric in registry.children("dsms.queue.pressure_events"):
        if metric.value:
            pressure_rows.append([
                f"queue[{metric.labels.get('query', '?')}]",
                f"pressure_events={metric.value}"])
    for metric in registry.children("dsms.source.stalled"):
        if metric.value:
            pressure_rows.append([
                f"source[{metric.labels.get('stream', '?')}]", "STALLED"])
    lines = pane1 + [""] + pane2
    if pressure_rows:
        lines += [""] + table("backpressure", ["where", "signal"],
                              pressure_rows)
    return "\n".join(lines)
