"""Provoking failures: operator crashes, faulty transport, stalled sources.

Three injection primitives, one per failure class the survey's §4.2
recovery protocols must survive:

* **process crash** — :func:`install_crash` arms a :class:`CrashFuse` on
  one physical operator; after the fuse's progress budget is spent the
  operator raises :class:`InjectedCrash` *after* mutating its state but
  *before* its output reaches downstream — the torn in-flight state a
  consistent snapshot must be able to roll back.
* **faulty transport** — :class:`ChaosBroker` wraps a
  :class:`repro.runtime.broker.Broker` and runs every ``fetch`` through a
  seeded lossy channel that drops, duplicates and reorders deliveries
  (the at-most/at-least-once failure modes of a real log consumer).
* **stalled source** — :class:`SourceStall` withholds one source's
  arrivals for a window of the drive sequence, long enough for the DSMS
  :class:`~repro.obs.StallDetector` to flag it, then releases the held
  elements.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable

from repro.core.errors import ReproError


class InjectedCrash(ReproError):
    """A deliberately provoked failure (fault-injection harness)."""


class CrashFuse:
    """Counts progress and blows after ``at`` units, ``times`` times.

    The fuse is shared between an injector and the test driving it:
    ``fired`` tells the driver whether the fault actually triggered (a
    crash scheduled beyond the stream's end never does — such runs are
    skipped, not silently passed).
    """

    def __init__(self, at: int, times: int = 1) -> None:
        if at <= 0:
            raise ValueError(f"fuse threshold must be positive, got {at}")
        self.at = at
        self.times = times
        self.count = 0
        self.fired = 0

    def record(self, n: int = 1) -> bool:
        """Add ``n`` progress units; True when the crash should fire now."""
        self.count += n
        if self.fired < self.times and self.count >= self.at:
            self.fired += 1
            return True
        return False


def install_crash(query, position: int, fuse: CrashFuse) -> str:
    """Arm ``fuse`` on the operator at ``position`` of ``query``'s tree.

    ``position`` indexes :meth:`ContinuousQuery.operators` (depth-first).
    The operator's ``process`` is wrapped per instance: each invocation
    counts one progress unit plus one per emitted delta (so operators
    that absorb their input still make progress toward the threshold),
    and when the fuse blows the wrapper raises **after** the operator has
    already applied the batch to its state — the output is lost mid-air
    and the state is torn relative to downstream, which is exactly the
    inconsistency checkpoint rollback must erase.

    Returns the crashed operator's label.  The wrapper stays installed
    after the fuse is spent; replay runs through it untouched.
    """
    ops = query.operators()
    if not 0 <= position < len(ops):
        raise ValueError(
            f"operator position {position} out of range: plan has "
            f"{len(ops)} operators "
            f"({', '.join(label for label, _ in ops)})")
    label, op = ops[position]
    original = op.process

    def crashing(t: Any, child_deltas: Any,
                 _orig: Callable = original, _fuse: CrashFuse = fuse,
                 _label: str = label, _position: int = position) -> Any:
        deltas = _orig(t, child_deltas)
        if _fuse.record(1 + len(deltas)):
            raise InjectedCrash(
                f"injected crash in {_label} (operator {_position}) "
                f"at t={t}")
        return deltas

    op.process = crashing
    return label


class ChaosBroker:
    """A :class:`~repro.runtime.broker.Broker` behind a faulty network.

    Produce goes straight to the real log (the broker itself is durable);
    **fetch** responses pass through a seeded lossy channel: each record
    independently dropped with probability ``drop`` or echoed twice with
    probability ``duplicate``, and the whole response shuffled with
    probability ``reorder``.  Faults are tallied in :attr:`faults` so
    tests can assert the chaos actually happened.  Everything else
    delegates to the wrapped broker.
    """

    def __init__(self, broker, seed: int = 0, drop: float = 0.0,
                 duplicate: float = 0.0, reorder: float = 0.0) -> None:
        self._inner = broker
        self._rng = random.Random(seed)
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.faults: Counter = Counter()

    def fetch(self, topic_name: str, partition: int, offset: int,
              max_records: int | None = None):
        records = self._inner.fetch(topic_name, partition, offset,
                                    max_records)
        out = []
        for record in records:
            if self._rng.random() < self.drop:
                self.faults["dropped"] += 1
                continue
            out.append(record)
            if self._rng.random() < self.duplicate:
                out.append(record)
                self.faults["duplicated"] += 1
        if len(out) > 1 and self._rng.random() < self.reorder:
            self._rng.shuffle(out)
            self.faults["reordered"] += 1
        return out

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SourceStall:
    """Withholds one source's elements for a window of the drive sequence.

    The driver consults :meth:`admit` for every element it is about to
    ingest; during the stall window (drive steps ``[after,
    after+duration)``) elements of the stalled source are held instead of
    delivered, which starves the source while the others keep arriving —
    long enough for a :class:`~repro.dsms.engine.DSMSEngine`'s stall
    detector (fed while obs is on) to flag it.  :meth:`release` hands the
    held elements back for late delivery, which clears the flag.
    """

    def __init__(self, source: str, after: int, duration: int) -> None:
        self.source = source
        self.after = after
        self.duration = duration
        self._step = 0
        self.held: list[Any] = []

    def admit(self, source: str, value: Any) -> bool:
        """True → push now; False → held (stalled)."""
        step = self._step
        self._step += 1
        if (source == self.source
                and self.after <= step < self.after + self.duration):
            self.held.append(value)
            return False
        return True

    @property
    def stalling(self) -> bool:
        return self.after <= self._step < self.after + self.duration

    def release(self) -> list[Any]:
        """The held elements, oldest first; the stall is over."""
        held, self.held = self.held, []
        return held
