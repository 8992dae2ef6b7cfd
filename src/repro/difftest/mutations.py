"""Mutation smoke-check: seeded bugs the oracle must catch.

Each mutant monkeypatches one known bug class into a live layer and
restores the original on exit.  If the differential oracle cannot find a
divergence while a mutant is active, the oracle itself is broken — this
is the harness testing the harness.

The mutants cover the bug classes named by the issue:

* ``range-off-by-one``     — window bounds: plain ``[Range r]`` windows
  expire one tick late in the executor.
* ``dropped-expiry``       — the executor's event-time agenda silently
  drops scheduled instants, so windows never evict.
* ``null-counting-count``  — NULL handling: the generated COUNT(expr)
  fold counts NULL values (SQL says it must not).
* ``sliding-expiry-capped``— the core sparse change-log caps a sliding
  window's expiry boundary at ``t + size``, losing the expiry of gappy
  ``slide > size`` windows (the historical bug, reintroduced).
* ``state-log-coalesce``   — the change-log logs only the first fold of
  an instant: a second commit at the log's newest version changes the
  answer but logs no batch, so an instant whose arrivals were split
  across quanta has a history (and a Store history) that misses a fold.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.core import windows as core_windows
from repro.core.operators import AggregateKind
from repro.core.relation import Changelog
from repro.cql import executor as cql_executor
from repro.cql import kernels as cql_kernels
from repro.cql.ast import WindowSpecKind


@contextlib.contextmanager
def range_off_by_one() -> Iterator[None]:
    """Plain [Range r] windows expire at ``t + r + 1`` in the executor."""
    original = cql_executor.StreamSourceOp.__init__

    def mutated(self, scan, spec, agenda, prefilter=None):
        original(self, scan, spec, agenda, prefilter=prefilter)
        if spec.kind is WindowSpecKind.RANGE and not spec.slide:
            self._lifetime += 1

    cql_executor.StreamSourceOp.__init__ = mutated
    try:
        yield
    finally:
        cql_executor.StreamSourceOp.__init__ = original


@contextlib.contextmanager
def dropped_expiry() -> Iterator[None]:
    """The agenda forgets everything scheduled — no window ever closes."""
    original = cql_executor.Agenda.schedule

    def mutated(self, t):
        return None

    cql_executor.Agenda.schedule = mutated
    try:
        yield
    finally:
        cql_executor.Agenda.schedule = original


@contextlib.contextmanager
def null_counting_count() -> Iterator[None]:
    """COUNT(expr) counts NULL values in the generated aggregate fold."""
    original = cql_kernels.STEPS[AggregateKind.COUNT]

    def mutated(slot, value):
        # The injected bug: a NULL argument reaches COUNT's fold.  The
        # kernel cache is keyed by source, so this renders a new kernel.
        return [f"group.counts[{slot}] += mult"]

    cql_kernels.STEPS[AggregateKind.COUNT] = mutated
    try:
        yield
    finally:
        cql_kernels.STEPS[AggregateKind.COUNT] = original


@contextlib.contextmanager
def sliding_expiry_capped() -> Iterator[None]:
    """Reintroduce the gappy-window bug: expiry capped at ``t + size``."""
    original = core_windows.SlidingWindow.expiry_boundary

    def mutated(self, t):
        boundary = self.scope(t).start + self.slide
        # The historical bug never recorded a boundary beyond the window
        # extent; returning the arrival instant adds no new change point.
        return boundary if boundary <= t + self.size else t

    core_windows.SlidingWindow.expiry_boundary = mutated
    try:
        yield
    finally:
        core_windows.SlidingWindow.expiry_boundary = original


@contextlib.contextmanager
def state_log_coalesce() -> Iterator[None]:
    """A second fold at the log's newest version changes the contents but
    is not logged."""
    original = Changelog.commit

    def mutated(self, version, deltas):
        logged = len(self)
        again = bool(logged) and self._versions[-1] == version
        net = original(self, version, deltas)
        if again:
            del self._versions[logged:], self._batches[logged:]
        return net

    Changelog.commit = mutated
    try:
        yield
    finally:
        Changelog.commit = original


#: name -> (context manager, oracle leg: "cql" or "core")
MUTANTS: dict[str, tuple[Callable[[], contextlib.AbstractContextManager],
                         str]] = {
    "range-off-by-one": (range_off_by_one, "cql"),
    "dropped-expiry": (dropped_expiry, "cql"),
    "null-counting-count": (null_counting_count, "cql"),
    "sliding-expiry-capped": (sliding_expiry_capped, "core"),
    "state-log-coalesce": (state_log_coalesce, "cql"),
}


def apply_mutant(name: str) -> contextlib.AbstractContextManager:
    """Enter the named mutant's patch context."""
    factory, _leg = MUTANTS[name]
    return factory()
