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
* ``join-probe-own-row``   — fused emission: the generated probe of a
  join's first (left) input reads the second input's columns from its
  own row, so a join that emits a projection above it (or tests a
  residual inline) emits wrong values for every left-driven match.
* ``join-probes-after-folds`` — the n-input delta order: a join of
  three or more inputs folds every input's batch before any input
  probes, so each probe reads the other inputs after this instant's
  folds and a combination of rows that arrive together joins once per
  input it arrived on.  A two-input join runs as it should, so only a
  join chain compiled into one operator can show it.
* ``bind-keeps-a-literal`` — prepared plans: binding a text's plan from
  its shape's leaves the first slot holding the memoised plan's literal,
  so a text registered after a literal sibling filters with the
  sibling's threshold (the DSMS configs register every case that way).
* ``obs-rescale-marks``    — two axes at once, obs × rescale: the
  historical bug where ``publish_metrics`` kept its marks by operator
  position and a rescale did not rebase them, so the first publication
  after a migration moves a counter backwards.  Every obs-off config
  misses it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator
from unittest import mock

from repro.core import windows as core_windows
from repro.core.operators import AggregateKind
from repro.core.relation import Changelog
from repro.cql import engine as cql_engine
from repro.cql import executor as cql_executor
from repro.cql import kernels as cql_kernels
from repro.cql.ast import WindowSpecKind
from repro.obs import get_registry
from repro.plan.ir import literals_of


def range_off_by_one() -> contextlib.AbstractContextManager:
    """Plain [Range r] windows expire at ``t + r + 1`` in the executor."""
    original = cql_executor.StreamSourceOp.__init__

    def mutated(self, scan, spec, agenda, prefilter=None):
        original(self, scan, spec, agenda, prefilter=prefilter)
        if spec.kind is WindowSpecKind.RANGE and not spec.slide:
            self._lifetime += 1

    return mock.patch.object(cql_executor.StreamSourceOp, "__init__",
                             mutated)


def dropped_expiry() -> contextlib.AbstractContextManager:
    """The agenda forgets everything scheduled — no window ever closes."""
    return mock.patch.object(cql_executor.Agenda, "schedule",
                             lambda self, t: None)


def null_counting_count() -> contextlib.AbstractContextManager:
    """COUNT(expr) counts NULL values in the generated aggregate fold."""

    def mutated(slot, value):
        # The injected bug: a NULL argument reaches COUNT's fold.  The
        # kernel cache is keyed by source, so this renders a new kernel.
        return [f"group.counts[{slot}] += mult"]

    return mock.patch.dict(cql_kernels.STEPS, {AggregateKind.COUNT: mutated})


def sliding_expiry_capped() -> contextlib.AbstractContextManager:
    """Reintroduce the gappy-window bug: expiry capped at ``t + size``."""

    def mutated(self, t):
        boundary = self.scope(t).start + self.slide
        # The historical bug never recorded a boundary beyond the window
        # extent; returning the arrival instant adds no new change point.
        return boundary if boundary <= t + self.size else t

    return mock.patch.object(core_windows.SlidingWindow, "expiry_boundary",
                             mutated)


def state_log_coalesce() -> contextlib.AbstractContextManager:
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

    return mock.patch.object(Changelog, "commit", mutated)


def join_probe_own_row() -> contextlib.AbstractContextManager:
    """A join's first input's probe reads the second input's columns
    from its own row."""
    original = cql_kernels._join_column

    def mutated(probing, position, widths):
        read, label = original(probing, position, widths)
        offset = position - widths[0]
        if probing == 0 and 0 <= offset < min(widths[:2]):
            # The injected bug: ``values`` (the probing row) where the
            # kernel must read ``match1`` (the second input's row).
            read = f"values[{offset}]"
        return read, label

    return mock.patch.object(cql_kernels, "_join_column", mutated)


def join_probes_after_folds() -> contextlib.AbstractContextManager:
    """A join of three or more inputs probes only after every fold."""
    original = cql_executor.JoinOp.process

    def mutated(self, t, child_deltas):
        if len(child_deltas) < 3:
            return original(self, t, child_deltas)
        states = self._states
        before = [({key: dict(entry) for key, entry in state.data.items()},
                   state.tally) for state in states]
        # Every input's fold first; the joins this emits are dropped.
        original(self, t, child_deltas)
        out: list = []
        for state, (data, tally), probe, deltas in zip(
                states, before, self._probes, child_deltas):
            if deltas:
                # The injected bug: each input probes the others as they
                # stand after the instant, folding its batch again into
                # a copy of its own index from before it.
                folded = state.data, state.tally
                state.data, state.tally = data, tally
                probe(self, deltas, out)
                state.data, state.tally = folded
        return out

    return mock.patch.object(cql_executor.JoinOp, "process", mutated)


def bind_keeps_a_literal() -> contextlib.AbstractContextManager:
    """A bound plan's first slot keeps the memoised plan's literal."""
    original = cql_engine.bind

    def mutated(plan, literals):
        memo = literals_of(plan)
        if literals and 0 in memo:
            literals = (memo[0], *literals[1:])
        return original(plan, literals)

    return mock.patch.object(cql_engine, "bind", mutated)


@contextlib.contextmanager
def obs_rescale_marks() -> Iterator[None]:
    """Publish marks keyed by operator position, never rebased."""

    def mutated(self, registry=None, prefix="exec.operator", **labels):
        registry = registry if registry is not None else get_registry()
        labels = dict(labels, layer="cql")
        marks = vars(self).setdefault("_position_marks", {})
        for index, (name, op) in enumerate(self.operators()):
            tags = dict(labels, operator=name, index=str(index))
            for field, value in (("records_in", op.received),
                                 ("records_out", op.emitted)):
                registry.counter(f"{prefix}.{field}", **tags).inc(
                    value - marks.get((index, field), 0))
                marks[(index, field)] = value

    query = cql_executor.ContinuousQuery
    with mock.patch.object(query, "publish_metrics", mutated), \
            mock.patch.object(query, "_rebase_metrics", lambda *_: None):
        yield


#: name -> (context manager, oracle leg: "cql" or "core")
MUTANTS: dict[str, tuple[Callable[[], contextlib.AbstractContextManager],
                         str]] = {
    "range-off-by-one": (range_off_by_one, "cql"),
    "dropped-expiry": (dropped_expiry, "cql"),
    "null-counting-count": (null_counting_count, "cql"),
    "sliding-expiry-capped": (sliding_expiry_capped, "core"),
    "state-log-coalesce": (state_log_coalesce, "cql"),
    "obs-rescale-marks": (obs_rescale_marks, "cql"),
    "join-probe-own-row": (join_probe_own_row, "cql"),
    "join-probes-after-folds": (join_probes_after_folds, "cql"),
    "bind-keeps-a-literal": (bind_keeps_a_literal, "cql"),
}


def apply_mutant(name: str) -> contextlib.AbstractContextManager:
    """Enter the named mutant's patch context."""
    factory, _leg = MUTANTS[name]
    return factory()
