"""C10 — Sections 2 / 4.1.3: the window-operator landscape.

Verwiebe et al.'s window taxonomy on one workload: every window type the
library implements run over the same stream (contents validated against
first principles), plus the aggregation-strategy comparison the Scotty
line of work makes: incremental per-window accumulators versus
re-aggregating window contents from the buffer at every report.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    best_times,
    observation_stream,
    room_observations,
    timed,
)
from repro.core import (
    Bag,
    CountWindow,
    LandmarkWindow,
    NowWindow,
    PartitionedWindow,
    RangeWindow,
    SessionWindow,
    SlidingWindow,
    SteppedRangeWindow,
    TumblingWindow,
    UnboundedWindow,
    merge_sessions,
    stream_to_relation,
)
from repro.core.operators import AggregateKind, AggregateSpec, aggregate

STREAM = observation_stream(200)

WINDOW_TYPES = [
    ("tumbling(100)", TumblingWindow(100)),
    ("sliding(100,50)", SlidingWindow(100, 50)),
    ("range(100)", RangeWindow(100)),
    ("stepped(100,50)", SteppedRangeWindow(100, 50)),
    ("now", NowWindow()),
    ("unbounded", UnboundedWindow()),
    ("landmark(500)", LandmarkWindow(500)),
    ("rows(25)", CountWindow(25)),
    ("partitioned(room,5)",
     PartitionedWindow(lambda r: r["room"], 5, key_names=("room",))),
]


def test_c10_window_landscape():
    table = ExperimentTable(
        "C10: window types over one 200-element stream",
        ["window", "change_points", "final_size", "seconds"])
    horizon = STREAM.max_timestamp
    for name, window in WINDOW_TYPES:
        relation, seconds = timed(
            lambda w=window: stream_to_relation(STREAM, w))
        table.add_row(name, len(relation),
                      len(relation.at(horizon)), seconds)
    table.show()


def test_c10_window_content_invariants():
    horizon = STREAM.max_timestamp
    unbounded = stream_to_relation(STREAM, UnboundedWindow())
    assert len(unbounded.at(horizon)) == len(STREAM)
    rows25 = stream_to_relation(STREAM, CountWindow(25))
    assert len(rows25.at(horizon)) == 25
    now = stream_to_relation(STREAM, NowWindow())
    assert len(now.at(horizon)) == len(STREAM.at(horizon))
    ranged = stream_to_relation(STREAM, RangeWindow(100))
    expected = Bag(e.value for e in STREAM
                   if e.timestamp > horizon - 100)
    assert ranged.at(horizon) == expected
    # Every range-window state is a subset of the unbounded state.
    for t in ranged.change_points():
        assert ranged.at(t) <= unbounded.at(t)


def test_c10_session_coverage():
    gaps = [e.timestamp for e in STREAM]
    sessions = merge_sessions(
        [SessionWindow(gap=30).assign(t)[0] for t in gaps])
    # Sessions partition the elements: every element in exactly one.
    for t in gaps:
        containing = [s for s in sessions if t in s]
        assert len(containing) == 1
    # And consecutive sessions are separated by more than the gap.
    for a, b in zip(sessions, sessions[1:]):
        assert b.start - a.end >= 0


def test_c10_incremental_vs_recompute_aggregation():
    """Scotty's point: per-window accumulators beat re-aggregating the
    buffer at every report, increasingly so for finer slides."""
    from repro.cql import CQLEngine
    from repro.core import Stream
    from repro.bench import OBSERVATION_SCHEMA
    rows = room_observations(300)
    stream = Stream.of_records(OBSERVATION_SCHEMA, rows)
    table = ExperimentTable(
        "C10: windowed aggregation — incremental vs recompute",
        ["range", "incremental_s", "recompute_s", "speedup"])
    speedups = []
    for window_range in (50, 200, 800):
        query_text = (f"SELECT COUNT(*) AS n, AVG(temp) AS a FROM Obs "
                      f"[Range {window_range}]")

        def incremental():
            engine = CQLEngine()
            engine.register_stream("Obs", OBSERVATION_SCHEMA)
            query = engine.register_query(query_text)
            query.run_recorded({"Obs": stream})
            return query.as_relation()

        def recompute():
            relation = stream_to_relation(
                stream, RangeWindow(window_range))
            return aggregate(relation, [], [
                AggregateSpec(AggregateKind.COUNT, None, "n"),
                AggregateSpec(AggregateKind.AVG, "temp", "a")])

        assert incremental() == recompute()
        inc_time, rec_time = best_times(incremental, recompute)
        table.add_row(window_range, inc_time, rec_time,
                      rec_time / inc_time)
        speedups.append(rec_time / inc_time)
    table.show()
    # Shape: bigger windows hold more state, so recompute falls behind.
    assert speedups[-1] > speedups[0]


@pytest.mark.benchmark(group="c10")
@pytest.mark.parametrize("name,window", WINDOW_TYPES[:4],
                         ids=[n for n, _ in WINDOW_TYPES[:4]])
def test_bench_c10_window(benchmark, name, window):
    result = benchmark(lambda: stream_to_relation(STREAM, window))
    assert len(result) > 0
