"""Punctuations and watermarks — progress signals for unbounded inputs.

The survey's Section 4 credits streaming systems with making *out-of-order
processing* a first-class concern.  The mechanism is the watermark: an
assertion that no element with timestamp ≤ w will arrive any more.  This
module provides the message types shared by the dataflow and runtime layers
and the two standard watermark generators (periodic / bounded
out-of-orderness), plus general punctuations (predicate-scoped "end of
substream" markers, the DSMS-era ancestor of watermarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.time import MAX_TIMESTAMP, Timestamp


@dataclass(frozen=True, order=True)
class Watermark:
    """No element with ``timestamp <= value`` will arrive after this."""

    value: Timestamp

    @property
    def is_final(self) -> bool:
        """The end-of-stream watermark: everything has arrived."""
        return self.value >= MAX_TIMESTAMP


#: The watermark that closes a stream.
FINAL_WATERMARK = Watermark(MAX_TIMESTAMP)


@dataclass(frozen=True)
class Punctuation:
    """A predicate-scoped progress marker (Tucker et al. style).

    Asserts that no future element satisfies ``description``'s predicate —
    e.g. "no more readings for room 42".  Watermarks are the special case
    whose predicate is ``timestamp <= value``.
    """

    describes: Callable[[Any], bool] = field(compare=False)
    label: str = ""

    def matches(self, value: Any) -> bool:
        return self.describes(value)


class WatermarkGenerator:
    """Base class: observes (value, timestamp) pairs, emits watermarks."""

    def observe(self, timestamp: Timestamp) -> Watermark | None:
        """Feed one element timestamp; maybe return a new watermark."""
        raise NotImplementedError

    def current(self) -> Watermark:
        """The latest watermark implied by what has been observed."""
        raise NotImplementedError


class AscendingWatermarks(WatermarkGenerator):
    """For in-order streams: watermark trails the max timestamp by one."""

    def __init__(self) -> None:
        self._max_seen: Timestamp = -1

    def observe(self, timestamp: Timestamp) -> Watermark | None:
        if timestamp > self._max_seen:
            self._max_seen = timestamp
            return self.current()
        return None

    def current(self) -> Watermark:
        return Watermark(self._max_seen - 1) if self._max_seen >= 0 \
            else Watermark(-1)


class BoundedOutOfOrderness(WatermarkGenerator):
    """Flink's standard generator: watermark = max timestamp − bound − 1.

    Elements later than ``bound`` behind the maximum seen so far are late.
    """

    def __init__(self, bound: Timestamp) -> None:
        if bound < 0:
            raise ValueError(f"out-of-orderness bound must be >= 0, "
                             f"got {bound}")
        self.bound = bound
        self._max_seen: Timestamp = -1

    def observe(self, timestamp: Timestamp) -> Watermark | None:
        if timestamp > self._max_seen:
            self._max_seen = timestamp
            return self.current()
        return None

    def current(self) -> Watermark:
        return Watermark(self._max_seen - self.bound - 1)


class PeriodicWatermarks(WatermarkGenerator):
    """Emit a watermark only every ``period`` observations (amortises the
    per-element cost, the usual production configuration)."""

    def __init__(self, inner: WatermarkGenerator, period: int) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._inner = inner
        self._period = period
        self._count = 0

    def observe(self, timestamp: Timestamp) -> Watermark | None:
        self._inner.observe(timestamp)
        self._count += 1
        if self._count % self._period == 0:
            return self._inner.current()
        return None

    def current(self) -> Watermark:
        return self._inner.current()
