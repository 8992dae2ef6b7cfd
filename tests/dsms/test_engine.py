"""Integration tests for the DSMS engine (paper Figure 3 end to end)."""

import pytest

from repro.core import Bag, PlanError, Schema
from repro.dsms import DSMSEngine, LongestQueueScheduler, RandomShedder


OBS = Schema(["id", "room", "temp"])


@pytest.fixture
def dsms():
    engine = DSMSEngine(keep_thrown_tuples=False)
    engine.register_stream("Obs", OBS)
    engine.register_relation("Rooms", Schema(["room", "floor"]),
                             rows=[{"room": "a", "floor": 1},
                                   {"room": "b", "floor": 2}])
    return engine


def ingest_all(dsms, rows):
    for row, t in rows:
        dsms.ingest("Obs", row, t)
    dsms.run_until_idle()


class TestLifecycle:
    def test_register_and_process(self, dsms):
        handle = dsms.register_query(
            "hot", "SELECT id FROM Obs [Range 100] WHERE temp > 30")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 35}, 0),
            ({"id": 2, "room": "a", "temp": 10}, 1),
        ])
        assert sorted(r["id"] for r in handle.store_state()) == [1]

    def test_filtered_window_store_state(self, dsms):
        handle = dsms.register_query(
            "hot", "SELECT id FROM Obs [Range 100] WHERE temp > 30")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 35}, 0),
            ({"id": 2, "room": "b", "temp": 10}, 1),
            ({"id": 3, "room": "a", "temp": 31}, 3),
            ({"id": 4, "room": "b", "temp": 40}, 5),
            ({"id": 5, "room": "a", "temp": 28}, 6),
            ({"id": 6, "room": "b", "temp": 33}, 9),
        ])
        assert sorted(r["id"] for r in handle.store_state()) == [1, 3, 4, 6]

    def test_duplicate_query_name_rejected(self, dsms):
        dsms.register_query("q", "SELECT id FROM Obs [Now]")
        with pytest.raises(PlanError, match="already"):
            dsms.register_query("q", "SELECT id FROM Obs [Now]")

    def test_unknown_stream_ingest_rejected(self, dsms):
        with pytest.raises(PlanError):
            dsms.ingest("Nope", {"id": 1}, 0)

    def test_multiple_queries_share_stream(self, dsms):
        q1 = dsms.register_query("count",
                                 "SELECT COUNT(*) n FROM Obs [Range 100]")
        q2 = dsms.register_query(
            "rooms", "SELECT DISTINCT room FROM Obs [Range 100]")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 5}, 0),
            ({"id": 2, "room": "b", "temp": 6}, 1),
        ])
        assert [r["n"] for r in q1.store_state()] == [2]
        assert sorted(r["room"] for r in q2.store_state()) == ["a", "b"]

    def test_join_with_relation(self, dsms):
        handle = dsms.register_query(
            "floors",
            "SELECT R.floor FROM Obs O [Now], Rooms R WHERE O.room = R.room")
        ingest_all(dsms, [({"id": 1, "room": "b", "temp": 0}, 5)])
        assert [r["floor"] for r in handle.store_state()] == [2]


class TestArchitecturalComponents:
    def test_throw_receives_expired_tuples(self, dsms):
        dsms.register_query("w", "SELECT id FROM Obs [Range 10]")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 0}, 0),
            ({"id": 2, "room": "a", "temp": 0}, 5),
        ])
        assert dsms.throw.discarded == 0
        dsms.advance_time(20)
        assert dsms.throw.discarded == 2

    def test_scratch_tracks_window_state(self, dsms):
        dsms.register_query("w", "SELECT id FROM Obs [Range 10]")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 0}, 0),
            ({"id": 2, "room": "a", "temp": 0}, 1),
        ])
        assert dsms.scratch.occupancy() == 2
        dsms.advance_time(100)
        assert dsms.scratch.occupancy() == 0
        assert dsms.scratch.peak >= 2

    def test_store_keeps_history(self, dsms):
        handle = dsms.register_query(
            "n", "SELECT COUNT(*) AS n FROM Obs [Range 100]")
        ingest_all(dsms, [
            ({"id": 1, "room": "a", "temp": 0}, 10),
            ({"id": 2, "room": "a", "temp": 0}, 20),
        ])
        history = handle.store_history()
        assert [r["n"] for r in history.at(10)] == [1]
        assert [r["n"] for r in history.at(20)] == [2]


class TestSchedulingAndShedding:
    def test_longest_queue_scheduler_drains_backlog(self, dsms):
        engine = DSMSEngine(scheduler=LongestQueueScheduler())
        engine.register_stream("Obs", OBS)
        engine.register_query("a", "SELECT id FROM Obs [Now]")
        engine.register_query("b", "SELECT room FROM Obs [Now]")
        for t in range(5):
            engine.ingest("Obs", {"id": t, "room": "x", "temp": 0}, t)
        steps = engine.run_until_idle()
        assert steps == 10  # 5 tuples x 2 queries

    def test_queue_capacity_drops(self, dsms):
        handle = dsms.register_query(
            "q", "SELECT id FROM Obs [Now]", queue_capacity=2)
        for t in range(5):
            dsms.ingest("Obs", {"id": t, "room": "a", "temp": 0}, t)
        # Only 2 fit in the queue; 3 dropped at admission.
        assert handle.metrics.queue_dropped == 3
        dsms.run_until_idle()
        assert handle.metrics.processed == 2

    def test_shedder_attached_to_query(self, dsms):
        shedder = RandomShedder(threshold=0.0, seed=7)
        handle = dsms.register_query(
            "q", "SELECT id FROM Obs [Now]", shedder=shedder,
            queue_capacity=4)
        for t in range(50):
            dsms.ingest("Obs", {"id": t, "room": "a", "temp": 0}, t)
            if t % 2:
                dsms.run_until_idle()
        assert handle.metrics.shed > 0
        assert handle.metrics.processed + handle.metrics.shed + \
            handle.metrics.queue_dropped == 50

    def test_metrics_table(self, dsms):
        dsms.register_query("q", "SELECT id FROM Obs [Now]")
        ingest_all(dsms, [({"id": 1, "room": "a", "temp": 0}, 0)])
        table = dsms.metrics_table()
        assert table["q"]["processed"] == 1
        assert table["q"]["ingested"] == 1
