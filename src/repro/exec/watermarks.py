"""Min-combine watermark tracking for multi-input operators.

A :class:`WatermarkTracker` merges per-input watermarks with the standard
min-combine rule (Flink/Dataflow semantics): an operator's event-time
clock is the minimum of its inputs' clocks, and it only ever moves
forward.  Idle inputs are excluded from the minimum so one silent input
cannot stall downstream event time: ``runtime/job.py`` idles a subtask's
input channel once it has ended.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.core.time import Timestamp


class WatermarkTracker:
    """Min-merge of per-channel watermarks with idleness support."""

    def __init__(self, channels: Iterable[Hashable],
                 initial: Timestamp = -1,
                 initials: Mapping[Hashable, Timestamp] | None = None) -> None:
        self._marks: dict[Hashable, Timestamp] = {
            channel: (initials or {}).get(channel, initial)
            for channel in channels}
        self._idle: set[Hashable] = set()
        self._combined: Timestamp = min(self._marks.values(),
                                        default=initial)

    @property
    def combined(self) -> Timestamp:
        return self._combined

    def channel_mark(self, channel: Hashable) -> Timestamp:
        return self._marks[channel]

    def advance(self, channel: Hashable,
                watermark: Timestamp) -> Timestamp | None:
        """Record ``watermark`` on ``channel``.

        Returns the new combined watermark if it advanced, else ``None``.
        An advancing channel is implicitly active again.
        """
        marks = self._marks
        if watermark <= marks[channel]:
            if self._idle:
                self._idle.discard(channel)
            return None
        marks[channel] = watermark
        if self._idle:
            self._idle.discard(channel)
            return self._recombine()
        # No idle channels: min over all marks, skipping the list build.
        candidate = watermark if len(marks) == 1 else min(marks.values())
        if candidate > self._combined:
            self._combined = candidate
            return candidate
        return None

    def mark_idle(self, channel: Hashable) -> Timestamp | None:
        """Exclude ``channel`` from the min until it speaks again."""
        if channel in self._idle:
            return None
        self._idle.add(channel)
        return self._recombine()

    def mark_active(self, channel: Hashable) -> None:
        self._idle.discard(channel)

    def _recombine(self) -> Timestamp | None:
        live = [mark for channel, mark in self._marks.items()
                if channel not in self._idle]
        if not live:
            # All inputs idle: hold the clock rather than jumping ahead.
            return None
        candidate = min(live)
        if candidate > self._combined:
            self._combined = candidate
            return candidate
        return None
