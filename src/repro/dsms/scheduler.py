"""Operator/query scheduling for the DSMS engine.

A DSMS multiplexes many standing queries over shared input queues; the
scheduler decides which query's pending work to run next.  We provide the
two classic policies: round-robin (fairness) and longest-queue-first
(drains backlogs, bounding memory — the Aurora-style heuristic).

The engine hands a scheduler its units' input queues, whose ``pending``
is a plain attribute: probing an idle queue calls nothing.
"""

from __future__ import annotations

from typing import Protocol, Sequence


class Schedulable(Protocol):
    """What the scheduler sees of a unit's input queue: its backlog."""

    @property
    def pending(self) -> int: ...


class Scheduler:
    """Base class: pick the index of the next query to service."""

    def next_index(self, queries: Sequence[Schedulable]) -> int | None:
        """Index of the next query with pending work, or None if idle."""
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """Service queries in rotation, skipping idle ones."""

    def __init__(self) -> None:
        self._cursor = 0

    def next_index(self, queries: Sequence[Schedulable]) -> int | None:
        n = len(queries)
        cursor = self._cursor
        for index in range(cursor, cursor + n):
            index %= n
            if queries[index].pending > 0:
                self._cursor = (index + 1) % n
                return index
        return None


class LongestQueueScheduler(Scheduler):
    """Always service the query with the largest backlog."""

    def next_index(self, queries: Sequence[Schedulable]) -> int | None:
        best_index = None
        best_pending = 0
        for index, query in enumerate(queries):
            if query.pending > best_pending:
                best_pending = query.pending
                best_index = index
        return best_index


class FIFOScheduler(Scheduler):
    """Service queries in registration order (first non-idle wins)."""

    def next_index(self, queries: Sequence[Schedulable]) -> int | None:
        for index, query in enumerate(queries):
            if query.pending > 0:
                return index
        return None
