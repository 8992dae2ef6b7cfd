"""Tests for key-partitioned queries running inside the DSMS engine."""

from collections import Counter

import pytest

from repro.core import Schema
from repro.core.relation import Bag
from repro.dsms import DSMSEngine


OBS = Schema(["id", "room", "temp"])

GROUPED = ("SELECT room, COUNT(*) AS n FROM Obs [Range 100] "
           "GROUP BY room")

ROWS = [
    ({"id": 1, "room": "a", "temp": 20}, 0),
    ({"id": 2, "room": "b", "temp": 31}, 1),
    ({"id": 3, "room": "a", "temp": 22}, 2),
    ({"id": 4, "room": "c", "temp": 19}, 3),
    ({"id": 5, "room": "b", "temp": 33}, 5),
]


@pytest.fixture
def dsms():
    engine = DSMSEngine()
    engine.register_stream("Obs", OBS)
    return engine


def ingest_all(dsms, rows=ROWS):
    for row, t in rows:
        dsms.ingest("Obs", row, t)
    dsms.run_until_idle()


class TestPartitionedHandles:
    def test_partitioned_query_serves_like_serial(self, dsms):
        parallel = dsms.register_query("par", GROUPED, parallelism=3)
        serial = dsms.register_query("ser", GROUPED)
        assert parallel.query.parallelism == 3
        assert serial.query.parallelism == 1
        ingest_all(dsms)
        assert parallel.store_state() == serial.store_state()
        assert parallel.metrics.processed == serial.metrics.processed == 5

    def test_unpartitionable_request_clamps_to_serial(self, dsms):
        handle = dsms.register_query(
            "global", "SELECT COUNT(*) AS n FROM Obs [Range 100]",
            parallelism=4)
        assert handle.query.parallelism == 1
        ingest_all(dsms)
        assert [r["n"] for r in handle.store_state()] == [5]

    def test_window_expiration_through_advance_time(self, dsms):
        parallel = dsms.register_query("par", GROUPED, parallelism=2)
        serial = dsms.register_query("ser", GROUPED)
        ingest_all(dsms)
        dsms.advance_time(300)
        assert parallel.store_state() == serial.store_state()
        assert len(parallel.store_state()) == 0

    def test_scratch_accounts_every_replica(self, dsms):
        dsms.register_query("par", GROUPED, parallelism=3)
        ingest_all(dsms)
        # All five tuples are buffered in the partitions' window state
        # and the Scratch sees them across every partition's operators.
        assert dsms.scratch.occupancy() >= 5
        assert dsms.total_state_size() >= 5

    def test_cancel_partitioned_query(self, dsms):
        dsms.register_query("par", GROUPED, parallelism=2)
        handle = dsms.cancel_query("par")
        assert handle.query.parallelism == 2
        assert dsms.queries == []

    def test_sharing_mode_keeps_fissioned_queries_isolated(self):
        dsms = DSMSEngine(sharing=True)
        dsms.register_stream("Obs", OBS)
        parallel = dsms.register_query("par", GROUPED, parallelism=2)
        member = dsms.register_query("member", GROUPED)
        assert parallel.query.parallelism == 2
        assert member.query.group.memo is not None
        assert parallel.query.group.memo is None
        ingest_all(dsms)
        assert parallel.store_state() == member.store_state()


class TestPartitionedRecovery:
    def test_engine_snapshot_restore_covers_replicas(self, dsms):
        handle = dsms.register_query("par", GROUPED, parallelism=3)
        ingest_all(dsms, ROWS[:3])
        checkpoint = dsms.snapshot()
        ingest_all(dsms, ROWS[3:])
        after = handle.store_state()
        dsms.restore(checkpoint)
        assert handle.store_state() != after
        for row, t in ROWS[3:]:
            dsms.ingest("Obs", row, t)
        dsms.run_until_idle()
        assert handle.store_state() == after


class TestFissionedCostIsHistoryIndependent:
    """Counts, not clocks: a fissioned query's work per serviced quantum
    and per ``advance_time`` must not grow with how long it has run."""

    ROOMS = ["kitchen", "lab", "hall", "attic", "cellar"]

    @pytest.fixture
    def census(self, monkeypatch):
        counts = Counter()
        construct, add = Bag.__init__, Bag.add

        def counted_init(bag, items=()):
            counts["Bag constructions"] += 1
            construct(bag, items)

        def counted_add(bag, item, count=1):
            counts["Record adds"] += 1
            add(bag, item, count)

        monkeypatch.setattr(Bag, "__init__", counted_init)
        monkeypatch.setattr(Bag, "add", counted_add)
        return counts

    def test_same_work_at_tick_50_and_tick_2000(self, census):
        engine = DSMSEngine()
        engine.register_stream("Obs", OBS)
        handle = engine.register_query(
            "par", "SELECT room, COUNT(*) AS n FROM Obs [Range 10] "
                   "GROUP BY room", parallelism=3)
        work = {}
        for tick in range(1, 2001):
            # A period-3 pattern against a 10-tick window: every count
            # moves every tick, and ticks 50 and 2000 hold the same state.
            for index, room in enumerate(self.ROOMS):
                if (tick + index) % 3:
                    engine.ingest("Obs", {"id": index, "room": room,
                                          "temp": 20}, tick)
            census.clear()
            assert engine.step()
            quantum = dict(census)
            engine.run_until_idle()
            census.clear()
            engine.advance_time(tick)
            if tick in (50, 2000):
                work[tick] = (quantum, dict(census))
        assert len(handle.query._log) >= 2000
        assert work[50] == work[2000]
