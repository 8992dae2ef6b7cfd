"""Bounded inter-operator queues (paper Figure 3, the arrows).

DSMS architectures place bounded queues between stream sources and query
operators; when arrival rate exceeds service rate the queue fills and the
system must shed load (Section 3.2).  :class:`InputQueue` is that bounded
buffer, with drop accounting that the load-shedding policies and the
Figure 3 benchmark read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple

from repro.core.errors import StateError
from repro.core.time import Timestamp
from repro.obs import profile as _profile


class QueuedTuple(NamedTuple):
    """One enqueued arrival: payload + its event timestamp."""

    value: Any
    timestamp: Timestamp


class InputQueue:
    """A bounded FIFO between a stream and a query's operators.

    Beyond drop accounting the queue keeps always-on backpressure
    telemetry (a handful of integer compares per offer): ``peak`` is the
    depth high-water mark, and ``pressure_events`` counts upward crossings
    of the pressure threshold (80% occupancy by default) — the signal the
    adaptivity loop watches for sustained overload.  The crossing is
    edge-triggered: one sustained episode above the mark counts once,
    however many tuples arrive during it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise StateError(f"queue capacity must be positive, "
                             f"got {capacity}")
        self.capacity = capacity
        self._queue: deque[QueuedTuple] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.peak = 0
        self.pressure_events = 0
        self._pressure_mark = max(1, int(capacity * _profile.PRESSURE_THRESHOLD))
        self._pressured = False

    def offer(self, value: Any, timestamp: Timestamp) -> bool:
        """Try to enqueue; returns False (and counts a drop) when full."""
        depth = len(self._queue)
        if depth >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(QueuedTuple(value, timestamp))
        self.enqueued += 1
        depth += 1
        if depth > self.peak:
            self.peak = depth
        if depth >= self._pressure_mark and not self._pressured:
            self._pressured = True
            self.pressure_events += 1
            if _profile._ENABLED:
                _profile._RECORDER.record(
                    "queue.pressure", depth=depth, capacity=self.capacity)
        return True

    def poll(self) -> QueuedTuple | None:
        """Dequeue the oldest tuple, or None when empty."""
        if not self._queue:
            return None
        if self._pressured and len(self._queue) <= self._pressure_mark:
            self._pressured = False
        return self._queue.popleft()

    def poll_batch(self, limit: int | None = None) -> list[QueuedTuple]:
        """Dequeue the run of tuples sharing the head timestamp, at most
        ``limit`` of them (``None``: no cap — the whole head instant).

        The micro-batch drain: a batch never mixes instants (the executor
        evaluates one instant per batch), so the run stops at the first
        tuple carrying a different timestamp — or at ``limit``, whichever
        comes first.  Returns ``[]`` when empty.
        """
        queue = self._queue
        if limit is None:
            limit = len(queue)
        if not queue or limit <= 0:
            return []
        head_t = queue[0].timestamp
        out = [queue.popleft()]
        while queue and len(out) < limit and queue[0].timestamp == head_t:
            out.append(queue.popleft())
        if self._pressured and len(queue) <= self._pressure_mark:
            self._pressured = False
        return out

    def peek(self) -> QueuedTuple | None:
        return self._queue[0] if self._queue else None

    def clear(self) -> int:
        """Discard everything queued (recovery rollback: the arrival log
        re-offers these); returns how many tuples were dropped."""
        n = len(self._queue)
        self._queue.clear()
        return n

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return len(self._queue) / self.capacity

    @property
    def pressured(self) -> bool:
        """Whether the queue currently sits above the pressure mark."""
        return self._pressured

    def __repr__(self) -> str:
        return (f"InputQueue(len={len(self._queue)}/{self.capacity}, "
                f"dropped={self.dropped})")
