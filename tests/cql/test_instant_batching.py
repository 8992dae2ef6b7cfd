"""Multi-instant agenda drains.

When ``advance_to``/``finish`` owe the agenda several expiry instants,
one call evaluates them all in order.  These tests pin the contract: a
drain covering many instants is indistinguishable from stepping the
instants one ``advance_to`` at a time, including under a join.
"""

import pytest

from repro.core import Schema
from repro.cql import CQLEngine

OBS = Schema(["id", "room", "temp"])

PUSHES = [({"id": i, "room": f"r{i % 2}", "temp": 20 + i * 4}, t)
          for i, t in enumerate([0, 1, 2, 3, 4, 7, 9])]


def make_engine():
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    engine.register_relation(
        "Person", Schema(["id", "name"]),
        rows=[{"id": 1, "name": "ada"}, {"id": 2, "name": "bob"}])
    return engine


def drive(text, step_instants=False, drain_at=100):
    """Push the fixture, then drain pending expiries one way or another."""
    q = make_engine().register_query(text)
    emitted = []
    for record, t in PUSHES:
        emitted.extend(q.push("Obs", record, t))
    if step_instants:
        # One instant per call.
        for t in range(PUSHES[-1][1] + 1, drain_at + 1):
            emitted.extend(q.advance_to(t))
    else:
        emitted.extend(q.advance_to(drain_at))
    return ([(tuple(e.record.values), e.timestamp) for e in emitted],
            sorted(tuple(r.values) for r in q.current()))


QUERIES = [
    "SELECT ISTREAM id FROM Obs [Range 10] WHERE temp > 25",
    "SELECT DSTREAM id FROM Obs [Range 10]",
    "SELECT ISTREAM COUNT(*) AS n FROM Obs [Range 5]",
    "SELECT RSTREAM id, temp FROM Obs [Rows 3]",
    ("SELECT ISTREAM Obs.id, Person.name FROM Obs [Range 6], Person "
     "WHERE Obs.id = Person.id"),
]


class TestBatchedDrainParity:
    @pytest.mark.parametrize("text", QUERIES)
    def test_batched_drain_equals_stepped_drain(self, text):
        assert drive(text) == drive(text, step_instants=True)

    @pytest.mark.parametrize("text", QUERIES)
    def test_finish_drains_batched(self, text):
        q = make_engine().register_query(text)
        emitted = []
        for record, t in PUSHES:
            emitted.extend(q.push("Obs", record, t))
        emitted.extend(q.finish())
        stepped, _ = drive(text, step_instants=True)
        assert [(tuple(e.record.values), e.timestamp)
                for e in emitted] == stepped
