"""Load shedding policies (paper Section 3.2's DSMS-era challenges).

When arrival rate exceeds service capacity a DSMS must drop tuples.  The
classic policies are *random* shedding (drop a fraction, unbiased) and
*semantic* shedding (drop the least useful tuples first, by a user-supplied
utility).  Both trigger on queue pressure.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.errors import StateError
from repro.dsms.queues import InputQueue


class Shedder:
    """Base policy: decide whether to admit an arrival."""

    def __init__(self) -> None:
        self.shed = 0
        self.admitted = 0
        self.queue_dropped = 0

    def admit(self, value: Any, queue: InputQueue) -> bool:
        decision = self._decide(value, queue)
        if decision:
            self.admitted += 1
        else:
            self.shed += 1
        return decision

    def record_queue_drop(self) -> None:
        """Account a tuple the policy admitted but a full queue then dropped.

        Without this, tuples lost at the queue boundary bypass ``admit`` 's
        books entirely and ``shed_fraction`` under-reports the true drop
        rate.
        """
        self.queue_dropped += 1

    def _decide(self, value: Any, queue: InputQueue) -> bool:
        raise NotImplementedError

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered tuples dropped before processing — whether by
        the policy (``shed``) or by a full queue after admission."""
        total = self.shed + self.admitted
        return (self.shed + self.queue_dropped) / total if total else 0.0


class NoShedding(Shedder):
    """Admit everything (queues still drop when full).

    Every arrival offered to a queue it admits for (:meth:`admit_into`)
    is admitted, so ``admitted`` reads those queues' offers — what they
    admitted plus what they dropped — and an arrival costs it nothing."""

    def __init__(self) -> None:
        #: The queues it admits for (see :meth:`admit_into`), and what
        #: ``admitted`` takes off their offers.
        self._queues: list[InputQueue] = []
        self._offset = 0
        super().__init__()

    @property
    def admitted(self) -> int:
        n = -self._offset
        for queue in self._queues:
            n += queue.enqueued + queue.dropped
        return n

    @admitted.setter
    def admitted(self, value: int) -> None:
        self._offset += self.admitted - value

    def admit_into(self, queue: InputQueue) -> None:
        """Count every later offer to ``queue`` as admitted, without
        being asked (the DSMS door offers to it directly)."""
        self._offset += queue.enqueued + queue.dropped
        self._queues.append(queue)

    def _decide(self, value: Any, queue: InputQueue) -> bool:
        return True


class RandomShedder(Shedder):
    """Drop arrivals with probability proportional to queue pressure.

    Below ``threshold`` occupancy everything is admitted; above it, the
    drop probability ramps linearly to 1.0 at a full queue.  Deterministic
    under a seeded RNG (all our experiments seed it).
    """

    def __init__(self, threshold: float = 0.8, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise StateError(f"threshold must be in [0,1], got {threshold}")
        self.threshold = threshold
        self._rng = random.Random(seed)

    def _decide(self, value: Any, queue: InputQueue) -> bool:
        occupancy = queue.occupancy
        if occupancy >= 1.0:
            # A full queue means drop probability exactly 1.0 — admitting
            # here would only bounce off the queue anyway.  Checked first so
            # the outcome is deterministic rather than relying on
            # ``random() >= 1.0`` never being true by float convention.
            return False
        if occupancy <= self.threshold:
            return True
        if self.threshold >= 1.0:
            return True
        pressure = (occupancy - self.threshold) / (1.0 - self.threshold)
        return self._rng.random() >= pressure


class SemanticShedder(Shedder):
    """Drop the least useful tuples first.

    ``utility`` maps a tuple to a score; under pressure, tuples scoring
    below ``min_utility`` are shed.  This is the "semantic drop" of the
    DSMS literature: correctness degrades gracefully on unimportant data.
    """

    def __init__(self, utility: Callable[[Any], float],
                 min_utility: float, threshold: float = 0.8) -> None:
        super().__init__()
        self._utility = utility
        self.min_utility = min_utility
        self.threshold = threshold

    def _decide(self, value: Any, queue: InputQueue) -> bool:
        if queue.occupancy <= self.threshold:
            return True
        return self._utility(value) >= self.min_utility
