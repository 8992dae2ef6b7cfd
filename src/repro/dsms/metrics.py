"""Per-query DSMS metrics, backed by the :mod:`repro.obs` primitives.

Historically this module carried its own ad-hoc counters; it is now a thin
compatibility layer over :class:`repro.obs.metrics.Counter` and
:class:`repro.obs.metrics.Gauge` so the DSMS reports through the same
machinery as every other engine layer.  The public surface is unchanged:
``Gauge.observe/count/total/mean/max`` and ``QueryMetrics.as_dict()`` keep
their exact shapes (the Figure 3 benchmark output is byte-identical), with
two upgrades inherited from the shared primitives: ``max`` is correct for
all-negative observations (it used to be pinned at ``0.0``) and ``min`` is
now reported too.

The tuple-flow tallies stay plain integer attributes — the obs design rule
is that the hot path pays one attribute add — and the engine publishes
them straight into the registry's counters on demand, the same pull-based
publication the engines use.  ``ingested`` pays less still: an arrival
the query's queue admits costs it nothing, since the queue's runs count
it, and one shed or dropped is in ``shed`` or ``queue_dropped``
(:attr:`QueryMetrics.ingested`).
"""

from __future__ import annotations

from typing import Iterable

from repro.dsms.queues import InputQueue
from repro.obs.metrics import Gauge as _ObsGauge


class Gauge(_ObsGauge):
    """A running statistic: count / mean / min / max of observed values."""

    def __init__(self, name: str = "", **labels: str) -> None:
        super().__init__(name, labels)


class QueryMetrics:
    """Per-query accounting maintained by the DSMS engine.

    The tuple-flow tallies (``ingested``, ``shed``, ...) are plain ints on
    the hot path; the engine publishes the ``COUNTERS`` as
    ``dsms.query.<name>`` (see ``DSMSEngine.publish_observability``).
    """

    COUNTERS = ("ingested", "shed", "queue_dropped", "processed", "emitted")

    def __init__(self) -> None:
        self.shed = 0
        self.queue_dropped = 0
        self.processed = 0
        self.emitted = 0
        self.queue_wait = Gauge("queue_wait")
        self.scratch = Gauge("scratch")
        #: The queue whose admissions on ``_streams`` the query ingested
        #: (see :meth:`read_queue`), and what :attr:`ingested` takes off
        #: so that it reads on unbroken across a rebind or an assignment.
        self._queue: InputQueue | None = None
        self._streams: tuple[str, ...] = ()
        self._offset = 0

    @property
    def ingested(self) -> int:
        """Arrivals offered to the query: those shed or dropped, and those
        its queue admitted on the streams it reads, read off the queue's
        runs — so admitting an arrival costs these books nothing."""
        n = self.shed + self.queue_dropped - self._offset
        queue = self._queue
        if queue is not None:
            for stream in self._streams:
                n += queue.admitted(stream)
        return n

    @ingested.setter
    def ingested(self, value: int) -> None:
        self._offset += self.ingested - value

    def read_queue(self, queue: InputQueue, streams: Iterable[str]) -> None:
        """From now on count the arrivals ``queue`` admits on ``streams``
        as ingested; the count read so far is kept."""
        streams = tuple(streams)
        if queue is not self._queue or streams != self._streams:
            held = self.ingested
            self._queue, self._streams = queue, streams
            self.ingested = held

    def as_dict(self) -> dict[str, float]:
        return {
            "ingested": self.ingested,
            "shed": self.shed,
            "queue_dropped": self.queue_dropped,
            "processed": self.processed,
            "emitted": self.emitted,
            "mean_queue_wait": self.queue_wait.mean,
            "mean_scratch": self.scratch.mean,
            "peak_scratch": self.scratch.max,
        }
