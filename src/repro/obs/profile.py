"""Continuous EXPLAIN ANALYZE: per-operator profiling and introspection.

The profiling layer the serving tier sits on (ROADMAP items 4 and 5):
where :mod:`repro.obs` gives raw counters/gauges, this module attributes
*cost* to individual operators and renders it back onto plans as a live
EXPLAIN ANALYZE.  Four pieces:

* **Per-operator statistics** — read from the CQL executor's own
  per-operator accounting (tuples in/out, so live selectivity; eval
  seconds while obs is on, so busy shares that sum to ~100%; state size
  and the bytes each operator's last checkpoint copied), pulled only when
  a surface asks.
* **Backpressure telemetry** — queue peak/pressure tracking lives on
  :class:`repro.dsms.queues.InputQueue` and the runtime mailboxes;
  :class:`StallDetector` spots sources that stopped producing while the
  rest of the engine advances.
* **Flight recorder** — :class:`FlightRecorder`, a bounded ring of recent
  structured events (checkpoints and barriers, recovery attempts, queue
  and channel pressure), dumpable on demand or on crash
  (:func:`dump_on_crash`).
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
from collections import deque
from typing import Any, Iterator, Mapping

#: Profiling master switch.  Hot paths read this module attribute
#: directly (one load + one truth test); it is flipped only through
#: :func:`enable` / :func:`disable` / :func:`reset`.
_ENABLED = False

#: Queue occupancy fraction at which the pressure signal trips.
PRESSURE_THRESHOLD = 0.8


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """A bounded ring buffer of recent structured events.

    Everything interesting that happened lately — checkpoints and
    barriers, recovery attempts, queue and channel pressure crossings —
    lands here as a small dict; the ring keeps the newest ``capacity``
    events and can be dumped as JSONL on demand or on crash.  Recording is an O(1) deque append, but call sites still gate
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
# State-size estimation
# ---------------------------------------------------------------------------


def state_bytes(op: Any) -> int | None:
    """A cheap serialized-size estimate of an operator's state.

    The repr length of the operator's state: a CQL operator's
    ``_STATE_ATTRS``, or any other operator's own snapshot.  Only ever
    called from introspection surfaces (explain/snapshot), never on a
    hot path.
    """
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


def enable() -> None:
    """Turn profiling on: the flight recorder starts receiving events."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Stop profiling; recorded events stay readable until reset."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Back to cold: disabled, empty recorder."""
    global _ENABLED
    _ENABLED = False
    _RECORDER.clear()


# ---------------------------------------------------------------------------
# Snapshot endpoint (JSONL)
# ---------------------------------------------------------------------------


def profile_snapshot(include_metrics: bool = False) -> dict[str, Any]:
    """One JSON-ready dict of everything the profiling layer knows.

    The flight-recorder tail and (optionally) the full metrics
    registry.
    """
    import repro.obs as obs

    payload: dict[str, Any] = {
        "type": "profile",
        "profiling": _ENABLED,
        "flight_recorder": {"capacity": _RECORDER.capacity,
                            "recorded": _RECORDER.recorded,
                            "retained": len(_RECORDER),
                            "tail": _RECORDER.tail(16)},
    }
    if include_metrics:
        payload["metrics"] = obs.get_registry().snapshot()
    return payload


def write_snapshot(path: str | pathlib.Path,
                   include_metrics: bool = True) -> pathlib.Path:
    """Append one profile snapshot as a JSONL line."""
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
    (queue + busy header, then its query) or a
    :class:`~repro.cql.executor.ContinuousQuery` (the logical IR annotated
    per node).
    """
    if hasattr(target, "query") and hasattr(target, "queue"):
        return _explain_handle(target)
    if hasattr(target, "_root") and hasattr(target, "plan"):
        return _explain_continuous(target)
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
        return out
    if hasattr(target, "_root") and hasattr(target, "plan"):
        operators, total_busy = _continuous_operator_stats(target)
        return {"operators": operators,
                "total_busy_seconds": total_busy,
                "deltas_processed": target.deltas_processed,
                "emissions": len(target.emissions())}
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
    return "\n".join(lines) + "\n" + _explain_continuous(handle.query)


def _format_cell(value: Any, fmt: str = "") -> str:
    if value is None:
        return "-"
    return format(value, fmt) if fmt else str(value)


# ---------------------------------------------------------------------------
# The `top` console view
# ---------------------------------------------------------------------------


def render_top(registry: Any = None, limit: int = 10) -> str:
    """Per-query / per-operator hot spots, refreshed from the registry.

    Two panes: standing queries ranked by busy time (DSMS attribution),
    and operators ranked by eval seconds (CQL executor accounting).
    """
    import repro.obs as obs

    registry = registry if registry is not None else obs.get_registry()

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
