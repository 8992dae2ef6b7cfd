"""Regression tests for the executor's change-log and its export.

An instant's arrivals may reach a query in several folds (a DSMS
servicing one tuple per quantum, or a capped micro-batch).  Each fold is
one batch in the change-log, and the history read from it keeps one state
per instant all the same: an instant's batches are netted together, and
an instant that ends where it started has no change point.
``as_relation`` must not corrupt earlier instants either — the
historical bug popped the relation's tail after ``set_at`` had already
coalesced a no-op state, silently deleting an earlier change point.
"""

from repro.core import Schema, Stream
from repro.cql import CQLEngine, reference_evaluate
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])
ALERTS = Schema(["id", "level"])


def test_the_log_keeps_one_state_per_instant_however_it_is_split():
    """Per-tuple pushes log exactly what one push per instant logs —
    including instants whose arrivals end where the instant started."""
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    text = "SELECT room, COUNT(*) AS n FROM Obs [Range 5] GROUP BY room"
    split, whole = engine.register_query(text), engine.register_query(text)
    split.start()
    whole.start()
    for t in range(1, 16):
        # Ticks not divisible by 4 bring one arrival per room (in an
        # order that rotates every five ticks): where t - 5 did too, the
        # instant's net change is zero — but not after its first arrival.
        rows = [{"id": n, "room": "abc"[(n + t // 5) % 3] if t % 4 else "a",
                 "temp": 20} for n in range(3)]
        for row in rows:
            split.push("Obs", row, t)
        whole.push_batch(t, {"Obs": rows})
    assert list(split.as_relation().snapshots()) \
        == list(whole.as_relation().snapshots())
    logged = split.as_relation().change_points()
    assert logged == sorted(set(logged))
    assert 6 not in logged and 8 in logged


def test_per_tuple_pushes_collapse_to_last_state_per_instant():
    """Same-instant pushes whose intermediate state returns to the prior
    instant's value must not erase that prior instant."""
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    query = engine.register_query(
        "SELECT COUNT(*) AS n FROM Obs [Rows 1]")
    query.start()
    query.push("Obs", {"id": 0, "room": "a", "temp": 1}, 1)
    # Two pushes at t=7: each replaces the [Rows 1] content, so the state
    # oscillates n=1 -> n=1 (coalesced no-op) within the instant.
    query.push("Obs", {"id": 1, "room": "a", "temp": 2}, 7)
    query.push("Obs", {"id": 2, "room": "a", "temp": 3}, 7)
    query.finish()
    relation = query.as_relation()
    # The change point at t=1 must survive.
    assert len(relation.at(1)) == 1
    assert [t for t, _ in relation.snapshots()] == sorted(
        {t for t, _ in relation.snapshots()})


def test_dsms_per_tuple_state_matches_reference():
    """The shrunk fuzz counterexample that exposed the corruption: a
    windowed equijoin driven tuple-at-a-time through the DSMS."""
    query_text = ("SELECT O.id, A.level FROM Obs O [Rows 2], "
                  "Alerts A [Rows 1] WHERE O.id = A.id")
    obs_rows = [({"id": 1, "room": "a", "temp": None}, 1),
                ({"id": 1, "room": "a", "temp": 0}, 2),
                ({"id": 0, "room": "a", "temp": None}, 2),
                ({"id": 0, "room": "a", "temp": 0}, 2)]
    alert_rows = [({"id": 1, "level": 0}, 1)]

    dsms = DSMSEngine(queue_capacity=1000)
    dsms.register_stream("Obs", OBS)
    dsms.register_stream("Alerts", ALERTS)
    handle = dsms.register_query("q", query_text)
    arrivals = sorted(
        [(t, "Obs", row) for row, t in obs_rows]
        + [(t, "Alerts", row) for row, t in alert_rows],
        key=lambda item: item[0])
    for t, name, row in arrivals:
        dsms.ingest(name, row, t)
        dsms.run_until_idle()
    handle.query.finish()

    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    engine.register_stream("Alerts", ALERTS)
    reference = reference_evaluate(
        engine.plan(query_text), engine.catalog,
        {"Obs": Stream.of_records(OBS, obs_rows),
         "Alerts": Stream.of_records(ALERTS, alert_rows)})
    got = handle.query.as_relation()
    assert got == reference
    # The join result at t=1 (id=1 matches) used to vanish from the log.
    assert len(got.at(1)) == 1
    assert len(got.at(2)) == 0
