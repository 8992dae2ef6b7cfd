"""Bounded inter-operator queues (paper Figure 3, the arrows).

DSMS architectures place bounded queues between stream sources and query
operators; when arrival rate exceeds service rate the queue fills and the
system must shed load (Section 3.2).  :class:`InputQueue` is that bounded
buffer, with drop accounting that the load-shedding policies and the
Figure 3 benchmark read.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.errors import StateError
from repro.core.time import Timestamp
from repro.obs import profile as _profile


class InputQueue:
    """A bounded FIFO between a stream and a query's operators.

    The queue holds *runs*: consecutive arrivals of one stream sharing a
    timestamp, kept as one list, so admitting an arrival is one list
    append and a service quantum takes its instant with
    :meth:`poll_instant` in one piece, already split by stream.
    Arrivals stamped t1, t2, t1 stay three runs, and so do arrivals of
    streams A, B, A at one timestamp — FIFO order is never traded for
    grouping.

    Beyond drop accounting the queue keeps always-on backpressure
    telemetry (a handful of integer compares per offer): ``peak`` is the
    depth high-water mark, and ``pressure_events`` counts upward crossings
    of the pressure threshold (80% occupancy by default) — the signal the
    adaptivity loop watches for sustained overload.  The crossing is
    edge-triggered: one sustained episode above the mark counts once,
    however many tuples arrive during it; the queue re-arms once a poll
    leaves it below the mark.

    A tuple's *wait* is the number of tuples queued ahead of it when it
    was admitted.  A run opened after the last poll is admitted at
    consecutive depths, so each poll reports the waits of what it took as
    one ``range`` per run it drew from (:attr:`polled_waits`).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise StateError(f"queue capacity must be positive, "
                             f"got {capacity}")
        self.capacity = capacity
        #: The runs, oldest first:
        #: ``[timestamp, stream, values, wait of values[0]]``.
        self._runs: deque[list] = deque()
        #: The newest run while it may still grow: a poll closes it (the
        #: depth it was admitted at no longer holds), so the next arrival
        #: opens a new run even at the same timestamp.
        self._tail: list | None = None
        #: Values of the head run already polled.
        self._head = 0
        self._depth = 0
        self.enqueued = 0
        self.dropped = 0
        self.peak = 0
        self.pressure_events = 0
        #: The waits of the tuples the last poll returned, one ``range``
        #: per run it drew from, in arrival order.
        self.polled_waits: list[range] = []
        self._pressure_mark = max(1, int(capacity * _profile.PRESSURE_THRESHOLD))
        self._pressured = False

    def offer(self, value: Any, timestamp: Timestamp, stream: str) -> bool:
        """Try to enqueue ``value``, an arrival of ``stream``; returns
        False (and counts a drop) when full."""
        depth = self._depth
        if depth >= self.capacity:
            self.dropped += 1
            return False
        tail = self._tail
        if tail is not None and tail[0] == timestamp and tail[1] == stream:
            tail[2].append(value)
        else:
            self._tail = tail = [timestamp, stream, [value], depth]
            self._runs.append(tail)
        self.enqueued += 1
        self._depth = depth = depth + 1
        if depth > self.peak:
            self.peak = depth
        if depth >= self._pressure_mark and not self._pressured:
            self._pressured = True
            self.pressure_events += 1
            if _profile._ENABLED:
                _profile._RECORDER.record(
                    "queue.pressure", depth=depth, capacity=self.capacity)
        return True

    def poll_instant(self, limit: int | None = None,
                     ) -> tuple[Timestamp, list[tuple[str, list]]] | None:
        """Dequeue the values sharing the head timestamp, at most ``limit``
        of them (``None``: no cap — the whole head instant), in arrival
        order; returns ``(timestamp, chunks)``, or None when empty.

        ``chunks`` holds one ``(stream, values)`` pair per run the poll
        drew from, in arrival order — one per stream unless streams
        interleaved — each lined up with its ``range`` in
        :attr:`polled_waits`.  A quantum never mixes instants (the
        executor evaluates one instant per batch), so the take stops at
        the first value carrying another timestamp — or at ``limit``,
        splitting the run there.
        """
        runs = self._runs
        if not runs or (limit is not None and limit <= 0):
            return None
        self._tail = None
        t = runs[0][0]
        chunks: list[tuple[str, list]] = []
        waits = self.polled_waits = []
        wanted = remaining = self._depth if limit is None else limit
        # Runs of one timestamp sit side by side when a poll closed the
        # first before the second arrived, or when streams interleaved:
        # take them as one instant.
        while remaining and runs and runs[0][0] == t:
            _, stream, values, ahead = runs[0]
            start = self._head
            end = start + remaining
            if end >= len(values):
                end = len(values)
                runs.popleft()
                self._head = 0
                chunks.append((stream, values[start:] if start else values))
            else:
                self._head = end
                chunks.append((stream, values[start:end]))
            waits.append(range(ahead + start, ahead + end))
            remaining -= end - start
        self._depth -= wanted - remaining
        if self._pressured and self._depth < self._pressure_mark:
            self._pressured = False
        return t, chunks

    def clear(self) -> int:
        """Discard everything queued (recovery rollback: the arrival log
        re-offers these); returns how many tuples were dropped."""
        n = self._depth
        self._runs.clear()
        self._tail = None
        self._head = 0
        self._depth = 0
        return n

    def __len__(self) -> int:
        return self._depth

    @property
    def oldest(self) -> Timestamp | None:
        """The head instant's timestamp, None when empty."""
        return self._runs[0][0] if self._runs else None

    @property
    def newest(self) -> Timestamp | None:
        """The newest queued arrival's timestamp, None when empty."""
        return self._runs[-1][0] if self._runs else None

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return self._depth / self.capacity

    @property
    def pressured(self) -> bool:
        """Whether the queue currently sits above the pressure mark."""
        return self._pressured

    def __repr__(self) -> str:
        return (f"InputQueue(len={self._depth}/{self.capacity}, "
                f"dropped={self.dropped})")
