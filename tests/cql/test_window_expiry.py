"""A ``[Range r]`` or ``[Now]`` window source's instant costs what is due,
not what the window holds, counted and not timed.

The source keeps its expiry times in one ascending deque beside the
buckets: an instant appends a new bucket's expiry and pops the due ones
off the front, so it never walks the buckets.  A rollback and a live
rescale write the buckets by other paths and rebuild the deque; after
either, the window still evicts in expiry order.
"""

import pytest

from repro.core import Schema
from repro.cql import ContinuousQuery, CQLEngine
from repro.runtime.rescale import rescale

OBS = Schema(["id", "room", "temp"])
ROOMS = ["kitchen", "lab", "hall", "attic"]


class CountingDict(dict):
    """Expiry buckets that count the keys iteration hands out."""

    iterated = 0

    def __iter__(self):
        for key in super().__iter__():
            self.iterated += 1
            yield key


def engine():
    cql = CQLEngine()
    cql.register_stream("Obs", OBS)
    return cql


def row(t, i=0):
    return {"id": 10 * t + i, "room": ROOMS[(t + i) % len(ROOMS)],
            "temp": t % 30}


def batches(ticks):
    """One to three arrivals an instant, with gaps where only expiries
    fire."""
    return [(t, {"Obs": [row(t, i) for i in range(1 + t % 3)]})
            for t in range(1, ticks) if t % 4]


def outputs(query):
    stream = query.emitted_stream()
    return (stream.timestamps(), stream.values(),
            sorted(query.current().items(), key=repr))


@pytest.mark.parametrize("r", [50, 5_000])
def test_an_instant_with_nothing_due_touches_no_bucket_past_the_first(r):
    query = engine().register_query(
        f"SELECT RSTREAM room, COUNT(*) AS n FROM Obs [Range {r}] "
        f"GROUP BY room")
    query.start()
    for t in range(1, r):
        query.push("Obs", row(t), t)
    (source,) = query._stream_sources["Obs"]
    buckets = source._expiries.data = CountingDict(source._expiries.data)
    assert len(buckets) == r - 1
    query.push("Obs", row(r), r)  # the earliest bucket expires at r + 1
    assert (buckets.iterated, source.evicted, len(buckets)) == (0, 0, r)
    query.push("Obs", row(r + 1), r + 1)
    assert (buckets.iterated, source.evicted, len(buckets)) == (0, 1, r)


@pytest.mark.parametrize("window", ["Range 5", "Now"])
def test_a_restore_then_evictions_in_order(window):
    cql = engine()
    text = f"SELECT ISTREAM room, COUNT(*) AS n FROM Obs [{window}] " \
           f"GROUP BY room"
    work = batches(30)
    clean, crashed = cql.register_query(text), cql.register_query(text)
    for query in (clean, crashed):
        query.start()
    for t, arrivals in work:
        clean.push_batch(t, arrivals)
    clean.finish()
    for t, arrivals in work[:8]:
        crashed.push_batch(t, arrivals)
    image = crashed.snapshot()
    for t, arrivals in work[8:14]:
        crashed.push_batch(t, arrivals)
    crashed.restore(image)
    (source,) = crashed._stream_sources["Obs"]
    assert list(source._expiry_order) == sorted(source._expiries.data)
    for t, arrivals in work[8:]:
        crashed.push_batch(t, arrivals)
    crashed.finish()
    assert outputs(crashed) == outputs(clean)


@pytest.mark.parametrize("widths", [(1, 3), (3, 2)])
def test_a_rescale_then_evictions_in_order(widths):
    cql = engine()
    plan = cql.plan("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 6] "
                    "GROUP BY room")
    work = batches(40)
    clean = ContinuousQuery(plan, cql.catalog)
    rescaled = ContinuousQuery(plan, cql.catalog, parallelism=widths[0])
    for query in (clean, rescaled):
        query.start()
    for position, (t, arrivals) in enumerate(work):
        if position == 10:
            rescale(rescaled, widths[1])
            for source in rescaled._stream_sources["Obs"]:
                assert list(source._expiry_order) == \
                    sorted(source._expiries.data)
        clean.push_batch(t, arrivals)
        rescaled.push_batch(t, arrivals)
    clean.finish()
    rescaled.finish()
    assert outputs(rescaled) == outputs(clean)
