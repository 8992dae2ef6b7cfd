"""obs — the unified observability layer.

One registry and one tracer, shared by every engine
layer (``cql`` executor, ``dsms`` engine, ``runtime`` jobs, ``dataflow``
pipelines).  The module-level accessors are the single entry point:

* :func:`get_registry` — the global :class:`MetricsRegistry`; counters,
  gauges and histograms are always live (an increment is one attribute
  add, so layers record them unconditionally).
* :func:`get_tracer` — the global tracer.  **Disabled by default**: layers
  receive a shared :class:`NoopTracer` whose spans cost ~nothing; call
  :func:`enable` to swap in a recording :class:`Tracer` (and to turn on
  the optional timing instrumentation hot paths gate behind
  :func:`is_enabled`).
* :func:`reset` — fresh registry/tracer and back to disabled; the
  repo's ``conftest.py`` calls this around every test.

Typical session::

    import repro.obs as obs
    from repro.obs.export import to_jsonl, console_table

    obs.enable()
    ... run queries ...
    print(console_table(obs.get_registry()))
    dump = to_jsonl(obs.get_registry(), obs.get_tracer())
"""

from __future__ import annotations

from repro.obs.export import (
    console_table,
    summary,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, Metric
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NoopSpan, NoopTracer, Span, Tracer
from repro.obs import profile as _profile
from repro.obs.profile import (
    FlightRecorder,
    StallDetector,
    analyze,
    dump_on_crash,
    explain_analyze,
    get_flight_recorder,
    profile_snapshot,
    render_top,
    write_snapshot,
)

_NOOP_TRACER = NoopTracer()


class _ObsState:
    """The process-wide observability singleton."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Tracer | NoopTracer = _NOOP_TRACER
        self.enabled = False


_STATE = _ObsState()


def get_registry() -> MetricsRegistry:
    """The global metrics registry (always recording)."""
    return _STATE.registry


def get_tracer() -> Tracer | NoopTracer:
    """The global tracer: no-op while disabled, recording once enabled."""
    return _STATE.tracer


def is_enabled() -> bool:
    """Whether full observability (tracing + timing) is on."""
    return _STATE.enabled


def enable(profile: bool = False) -> None:
    """Turn on tracing and the timing instrumentation layers gate on.

    ``profile=True`` additionally switches on the profiling layer
    (:mod:`repro.obs.profile`): the flight recorder starts receiving
    events.

    Re-enabling after :func:`disable` keeps the already-recorded traces —
    only :func:`reset` discards them.
    """
    if not _STATE.enabled:
        _STATE.enabled = True
        if not isinstance(_STATE.tracer, Tracer):
            _STATE.tracer = Tracer()
    if profile:
        _profile.enable()


def disable() -> None:
    """Stop tracing/timing/profiling; recorded data stays readable until
    reset.

    Instrumentation sites gate span creation on :func:`is_enabled`, so the
    recording tracer can stay in place purely as a read handle.
    """
    _STATE.enabled = False
    _profile.disable()


def is_profiling() -> bool:
    """Whether the per-operator profiling layer is on."""
    return _profile.is_enabled()


def reset() -> None:
    """Fresh registry and tracer; observability disabled."""
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = _NOOP_TRACER
    _STATE.enabled = False
    _profile.reset()


__all__ = [
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "Span", "Tracer", "NoopSpan", "NoopTracer",
    "FlightRecorder", "StallDetector",
    "get_registry", "get_tracer",
    "is_enabled", "enable", "disable", "reset", "is_profiling",
    "explain_analyze", "analyze", "render_top", "get_flight_recorder",
    "profile_snapshot", "write_snapshot", "dump_on_crash",
    "to_jsonl", "to_prometheus", "write_jsonl", "console_table", "summary",
]
