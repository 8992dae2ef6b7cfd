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
    telemetry: ``peak`` is the depth high-water mark (the depth only
    rises between polls, so a poll or clear folds it in, and an offer
    pays nothing for it), and ``pressure_events`` counts upward crossings
    of the pressure threshold (80% occupancy by default), published as
    ``dsms.queue.pressure_events`` and shown by EXPLAIN ANALYZE.  The
    crossing is edge-triggered: one sustained episode above the mark
    counts once, however many tuples arrive during it; the queue re-arms
    once a poll leaves it below the mark.

    A tuple's *wait* is the number of tuples queued ahead of it when it
    was admitted.  A run opened after the last poll is admitted at
    consecutive depths, so each poll reports the waits of what it took as
    one ``range`` per run it drew from (:attr:`polled_waits`).

    An arrival that joins the open run at a depth below :attr:`calm`
    reaches neither the pressure mark nor the capacity, so admitting it
    is the append and the depth alone: the DSMS door does exactly that
    inline, and calls :meth:`offer` only for the edges — a new run, or a
    queue at its pressure mark or capacity.  Nothing else is kept per
    arrival: :meth:`admitted` counts a stream's values from the runs'
    lengths.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise StateError(f"queue capacity must be positive, "
                             f"got {capacity}")
        self.capacity = capacity
        #: The runs, oldest first:
        #: ``[timestamp, stream, values, wait of values[0]]``.
        self._runs: deque[list] = deque()
        #: The newest run while it may still grow — its timestamp (None
        #: once closed), stream and values: a poll closes it (the depth
        #: it was admitted at no longer holds), so the next arrival opens
        #: a new run even at the same timestamp.
        self._open_t: Timestamp | None = None
        self._open_stream: str | None = None
        self._open: list = []
        #: Values of the head run already polled.
        self._head = 0
        #: The depth: values queued and not yet polled, the backlog a
        #: :class:`~repro.dsms.scheduler.Scheduler` reads.  A plain
        #: attribute, so a scheduler probing every queue calls nothing;
        #: only the queue writes it.
        self.pending = 0
        #: Values polled or cleared, ever: with the depth, what was
        #: enqueued (see :attr:`enqueued`).
        self._taken = 0
        #: The depth high-water mark as of the last poll or clear: the
        #: depth only rises between them (see :attr:`peak`).
        self._peak = 0
        self.dropped = 0
        self.pressure_events = 0
        #: The waits of the tuples the last poll returned, one ``range``
        #: per run it drew from, in arrival order.
        self.polled_waits: list[range] = []
        self._pressure_mark = max(1, int(capacity * _profile.PRESSURE_THRESHOLD))
        self._pressured = False
        #: The depth below which an admission into the open run crosses
        #: no mark (see the class doc).
        self.calm = min(self._pressure_mark, capacity) - 1
        #: Stream -> the values admitted in its runs before the newest
        #: (see :meth:`admitted`).
        self._counted: dict[str, int] = {}

    def offer(self, value: Any, timestamp: Timestamp, stream: str) -> bool:
        """Try to enqueue ``value``, an arrival of ``stream``; returns
        False (and counts a drop) when full."""
        depth = self.pending
        if depth >= self.capacity:
            self.dropped += 1
            return False
        if self._open_t == timestamp and self._open_stream == stream:
            self._open.append(value)
        else:
            if self._open:
                # The newest run becomes an older one: count it now.
                held = self._open_stream
                self._counted[held] = self._counted.get(held, 0) \
                    + len(self._open)
            self._open_t, self._open_stream = timestamp, stream
            self._open = values = [value]
            self._runs.append([timestamp, stream, values, depth])
        self.pending = depth = depth + 1
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
        self._open_t = None
        if self.pending > self._peak:
            self._peak = self.pending
        t = runs[0][0]
        chunks: list[tuple[str, list]] = []
        waits = self.polled_waits = []
        wanted = remaining = self.pending if limit is None else limit
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
        self.pending -= wanted - remaining
        self._taken += wanted - remaining
        if self._pressured and self.pending < self._pressure_mark:
            self._pressured = False
        return t, chunks

    def clear(self) -> int:
        """Discard everything queued (recovery rollback: the arrival log
        re-offers these); returns how many tuples were dropped."""
        n = self.pending
        if n > self._peak:
            self._peak = n
        self._taken += n
        self._runs.clear()
        self._open_t = None
        self._head = 0
        self.pending = 0
        return n

    def admitted(self, stream: str) -> int:
        """Values of ``stream`` the queue ever admitted: its older runs'
        count, plus the newest run's length when it is ``stream``'s.  A
        run's list only grows while it is open, and a poll hands it out
        to be read, so its length is final once it closes."""
        n = self._counted.get(stream, 0)
        if self._open_stream == stream:
            n += len(self._open)
        return n

    def __len__(self) -> int:
        """The depth (:attr:`pending`)."""
        return self.pending

    @property
    def enqueued(self) -> int:
        """Values the queue ever admitted."""
        return self.pending + self._taken

    @property
    def peak(self) -> int:
        """The depth high-water mark."""
        depth = self.pending
        return depth if depth > self._peak else self._peak

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
        return self.pending / self.capacity

    @property
    def pressured(self) -> bool:
        """Whether the queue currently sits above the pressure mark."""
        return self._pressured

    def __repr__(self) -> str:
        return (f"InputQueue(len={self.pending}/{self.capacity}, "
                f"dropped={self.dropped})")
