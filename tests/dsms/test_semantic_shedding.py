"""The shedding contract at the engine: a semantic utility decides on a
Record of the stream's schema, built only for it.

The DSMS keeps each arrival as a values tuple from ``ingest`` on; a
policy other than ``NoShedding`` still sees the row by field name, as
``examples/room_monitoring.py`` writes its utility, and sheds exactly
the arrivals it shed when arrivals were Records.
"""

from repro.bench import OBSERVATION_SCHEMA, room_observations
from repro.core import Record, Schema
from repro.dsms import DSMSEngine, SemanticShedder

FLOORS = ("SELECT R.floor, COUNT(*) AS readings FROM Obs O [Range 300], "
          "Rooms R WHERE O.room = R.room GROUP BY R.floor")

#: The arrivals (positions in ``room_observations(120)``) the scenario
#: below sheds, as measured when the engine queued Records.
SHED = [4, 6, 7, 8, 19, 21, 24, 25, 28, 32, 34, 37, 41, 54, 81, 83, 88,
        89, 98, 107, 108, 113, 115, 117, 118]


def test_a_semantic_utility_sees_records_and_sheds_the_same_arrivals():
    arrival, seen, shed = [None], [], []

    def utility(row):
        seen.append(row)
        if row["temp"] < 20:
            shed.append(arrival[0])
        return row["temp"]

    engine = DSMSEngine()
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    engine.register_relation(
        "Rooms", Schema(["room", "floor"]),
        rows=[{"room": f"room{i}", "floor": i % 3} for i in range(5)])
    shedder = SemanticShedder(utility=utility,
                              min_utility=20, threshold=0.5)
    floors = engine.register_query("floors", FLOORS, shedder=shedder,
                                   queue_capacity=4)
    for index, (row, t) in enumerate(room_observations(120)):
        arrival[0] = index
        engine.ingest("Obs", row, t)
        if t % 40 == 0:
            engine.run_until_idle()
    engine.run_until_idle()
    assert shed == SHED
    assert (shedder.shed, shedder.admitted, shedder.queue_dropped) \
        == (25, 95, 75)
    assert (floors.metrics.shed, floors.metrics.queue_dropped) == (25, 75)
    assert len(seen) == 105
    assert all(isinstance(row, Record) and row.schema == OBSERVATION_SCHEMA
               for row in seen)
    assert sorted((r["floor"], r["readings"])
                  for r in floors.store_state()) == [(0, 5), (1, 6), (2, 1)]
