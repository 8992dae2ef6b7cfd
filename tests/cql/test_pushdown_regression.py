"""Regression guard: the unified optimizer fires on the CQL engine path.

The paper's Listing 1 query (join of a relation with a windowed stream)
plus a selective stream predicate must come out of ``CQLEngine.plan``
with the filter pushed below the window and the equality promoted to
hash-join keys — and the optimised plan must produce exactly the results
of the naive one.
"""

import pytest

from repro.core import Schema
from repro.cql import CQLEngine
from repro.plan.signature import plan_signature

LISTING1 = ("SELECT COUNT(P.id) AS n "
            "FROM Person P, RoomObservation O [Range 15] "
            "WHERE P.id = O.id AND O.temp > 20")


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.register_stream("RoomObservation",
                           Schema(["id", "room", "temp"]))
    engine.register_relation(
        "Person", Schema(["id", "name"]),
        rows=[{"id": 1, "name": "ada"}, {"id": 2, "name": "bob"}])
    return engine


def test_pushdown_and_key_extraction_fire(engine):
    naive = plan_signature(engine.plan(LISTING1, optimize=False))
    optimized = plan_signature(engine.plan(LISTING1, optimize=True))
    # Naive: filter above the window, join unkeyed (cross product).
    assert "select(window" in naive or "cross" in naive
    # Optimised: the filter sits below the window, and the join is keyed.
    assert "window(select(stream_scan))" in optimized
    assert "equijoin" in optimized
    assert "cross" not in optimized


def test_optimised_results_match_naive(engine):
    rows = [
        ({"id": 1, "room": 7, "temp": 25}, 1),
        ({"id": 2, "room": 7, "temp": 15}, 2),   # filtered out
        ({"id": 1, "room": 8, "temp": 31}, 5),
        ({"id": 9, "room": 8, "temp": 40}, 6),   # no matching person
    ]
    states = []
    for optimize in (False, True):
        query = engine.register_query(LISTING1, optimize=optimize)
        query.start()
        for row, t in rows:
            query.push("RoomObservation", row, t)
        query.advance_to(40)  # expire the window entirely
        query.finish()
        states.append(query.as_relation())
    naive_state, optimized_state = states
    assert naive_state == optimized_state
