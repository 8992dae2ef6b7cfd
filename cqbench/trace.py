"""Span recording around the benchmark's calls into the engine.

Spans are opened from ``cqbench/workloads.py`` *around* public engine
calls — nothing inside ``src/`` is instrumented.  One root span per tick
(its ``tick`` field is the tick id; a pass's set-up is the root ``setup``,
tick ``-1``) and one child span per call kind per tick: a tick's 50
``ingest`` calls are one ``dsms.ingest`` span.  Spans stay in memory as
plain lists and are written out once, at exit, by :meth:`Tracer.dump`.

A span's *self time* is its duration minus the part covered by its child
spans, so the root's self time is what the load generator itself costs
(row-dict building, loop overhead, the latency stamps).
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# Field positions of one recorded span.
NAME, TICK, PARENT, START, END = range(5)


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_tick", "_index")

    def __init__(self, tracer: "Tracer", name: str, tick: int | None) -> None:
        self._tracer = tracer
        self._name = name
        self._tick = tick

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        tick = self._tick
        if tick is None:
            tick = tracer.spans[parent][TICK] if parent >= 0 else -1
        self._index = len(tracer.spans)
        stack.append(self._index)
        tracer.spans.append([self._name, tick, parent, perf_counter(), 0.0])
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][END] = end
        tracer._stack.pop()

    @property
    def seconds(self) -> float:
        """Duration of the (closed) span."""
        span = self._tracer.spans[self._index]
        return span[END] - span[START]


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def tick(self, tick: int) -> _OpenSpan:
        """Root span of one tick; tick ``-1`` is the pass's set-up."""
        return _OpenSpan(self, "tick" if tick >= 0 else "setup", tick)

    def span(self, name: str) -> _OpenSpan:
        """Child span around one kind of engine call."""
        return _OpenSpan(self, name, None)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def busy_by_name(self) -> dict[str, float]:
        """Summed self time per span name."""
        busy: dict[str, float] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            busy[span[NAME]] = busy.get(span[NAME], 0.0) + self_s
        return busy

    def dump(self, path: str) -> None:
        keys = ("name", "tick", "parent", "start", "end")
        with open(path, "w") as out:
            json.dump({"spans": [dict(zip(keys, span)) for span in self.spans],
                       "counts": dict(self.counts)}, out)


class _NoSpan:
    seconds = 0.0

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullTracer:
    """The untraced run: every hook is a no-op."""

    def tick(self, tick: int) -> _NoSpan:
        return _NO_SPAN

    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN

    def count(self, name: str, n: float = 1) -> None:
        return None


#: Stateless, so one instance serves as everybody's default.
NULL_TRACER = NullTracer()
