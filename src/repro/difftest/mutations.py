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
* ``null-counting-count``  — NULL handling: the incremental COUNT(expr)
  accumulator counts NULL values (SQL says it must not).
* ``sliding-expiry-capped``— the core sparse change-log caps a sliding
  window's expiry boundary at ``t + size``, losing the expiry of gappy
  ``slide > size`` windows (the historical bug, reintroduced).
* ``state-log-coalesce``   — the executor's change-log keeps the first
  state per instant instead of the last, so an instant whose arrivals
  were split across quanta logs (and stores) an intermediate state.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.core import windows as core_windows
from repro.cql import executor as cql_executor
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
    """COUNT(expr) counts NULL values in the incremental accumulator."""
    original = cql_executor.AggregateOp.__init__
    count = cql_executor._COUNT

    def non_null(evaluator):
        # The injected bug: a NULL argument reaches the fold as a value.
        return lambda record: (0 if (value := evaluator(record)) is None
                               else value)

    def mutated(self, plan, in_schema):
        original(self, plan, in_schema)
        self._folds = [(step, non_null(evaluator) if step is count
                        else evaluator) for step, evaluator in self._folds]

    cql_executor.AggregateOp.__init__ = mutated
    try:
        yield
    finally:
        cql_executor.AggregateOp.__init__ = original


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
    """The change-log keeps the *first* state per instant: a later fold
    at the instant the log ends at leaves the tail as it was."""
    original = cql_executor.ContinuousQuery._log_state

    def mutated(self, t):
        if self._log and self._log[-1][0] == t:
            return
        original(self, t)

    cql_executor.ContinuousQuery._log_state = mutated
    try:
        yield
    finally:
        cql_executor.ContinuousQuery._log_state = original


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
