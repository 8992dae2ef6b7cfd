"""L1 — Listing 1: the paper's CQL example query.

``SELECT COUNT(P.ID) FROM Person P, RoomObservation O [Range 15 min]
WHERE P.id = O.id`` is parsed verbatim, planned, and executed both
incrementally and denotationally.  The experiment sweeps stream length:
the incremental executor's total work grows linearly while the reference
(recompute at every instant) grows quadratically.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    best_times,
    person_rows,
    room_observations,
    OBSERVATION_SCHEMA,
    PERSON_SCHEMA,
)
from repro.core import Stream, minutes
from repro.cql import CQLEngine, parse_query

#: The query text exactly as printed in the paper (Listing 1).
LISTING_1 = ("Select count(P.ID) "
             "From Person P, RoomObservation O [Range 15 min] "
             "Where P.id = O.id")


def build_engine():
    engine = CQLEngine()
    engine.register_stream("RoomObservation", OBSERVATION_SCHEMA)
    engine.register_relation("Person", PERSON_SCHEMA, rows=person_rows())
    return engine


def listing1_rows(n):
    # Observation gaps around a minute so the 15-minute window holds a
    # meaningful fraction of the stream.
    return room_observations(n, mean_gap=minutes(1))


def test_listing1_parses_and_runs_verbatim():
    statement = parse_query(LISTING_1)
    assert statement.sources[1].window.range_ == minutes(15)
    engine = build_engine()
    query = engine.register_query(LISTING_1)
    query.start()
    for row, t in listing1_rows(30):
        query.push("RoomObservation", row, t)
    (answer,) = list(query.current())
    # The unaliased aggregate projects under its printed name.
    assert answer.schema.fields == ("count(p.id)",)
    assert answer[0] >= 0


def test_listing1_incremental_matches_reference():
    engine = build_engine()
    rows = listing1_rows(40)
    query = engine.register_query(LISTING_1)
    query.run_recorded(
        {"RoomObservation": Stream.of_records(OBSERVATION_SCHEMA, rows)})
    reference = engine.run_one_shot(
        LISTING_1,
        {"RoomObservation": Stream.of_records(OBSERVATION_SCHEMA, rows)})
    assert query.as_relation() == reference


def test_listing1_incremental_scales_linearly():
    table = ExperimentTable(
        "Listing 1: incremental vs recompute",
        ["events", "incremental_s", "recompute_s", "ratio"])
    ratios = []
    for n in (40, 80, 160):
        rows = listing1_rows(n)
        stream = Stream.of_records(OBSERVATION_SCHEMA, rows)

        def incremental():
            engine = build_engine()
            query = engine.register_query(LISTING_1)
            return query.run_recorded({"RoomObservation": stream})

        def recompute():
            engine = build_engine()
            return engine.run_one_shot(
                LISTING_1, {"RoomObservation": stream})

        inc_time, ref_time = best_times(incremental, recompute)
        table.add_row(n, inc_time, ref_time, ref_time / inc_time)
        ratios.append(ref_time / inc_time)
    table.show()
    # Shape: recompute falls further behind as the stream grows.
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 1


@pytest.mark.benchmark(group="listing1")
def test_bench_listing1_push(benchmark):
    rows = listing1_rows(100)
    stream = Stream.of_records(OBSERVATION_SCHEMA, rows)

    def run():
        engine = build_engine()
        query = engine.register_query(LISTING_1)
        query.run_recorded({"RoomObservation": stream})
        return query.current()

    assert len(benchmark(run)) == 1
