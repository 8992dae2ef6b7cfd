"""A service quantum's cost must not grow with the fleet — checked by
counting what the engine touches, never by a clock."""

import inspect

import pytest

from repro.core import Schema
from repro.core.relation import TimeVaryingRelation
from repro.cql import CQLEngine, executor
from repro.dsms import DSMSEngine, components

OBS = Schema(["id", "room", "temp"])
TARGET = "SELECT room, COUNT(*) AS n FROM Obs [Range 50] GROUP BY room"
OTHERS = [
    "SELECT DISTINCT room FROM Obs [Range 30]",
    "SELECT COUNT(*) AS n FROM Obs [Rows 4]",
    "SELECT id, room FROM Obs [Range 10] WHERE temp > 15",
    "SELECT room, MAX(temp) AS hot FROM Obs [Range 20] GROUP BY room",
]


def make_engine(**kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    return engine


@pytest.fixture
def state_size_reads(monkeypatch):
    """Counts every ``state_size`` read on every physical operator: each
    operator class's property is wrapped — the counting StateHolder."""
    reads = []
    for _, cls in inspect.getmembers(executor, inspect.isclass):
        prop = vars(cls).get("state_size")
        if isinstance(prop, property):
            def counting(self, _get=prop.fget):
                reads.append(self)
                return _get(self)
            monkeypatch.setattr(cls, "state_size", property(counting))
    return reads


class TestServiceQuantumReadsOnlyItsOwnHolders:
    def reads_for_one_quantum(self, others, reads):
        engine = make_engine()
        engine.register_query("target", TARGET)
        for index in range(others):
            engine.register_query(f"other{index}",
                                  OTHERS[index % len(OTHERS)])
        # Give every query some state, then time one more tuple of the
        # target alone: it is first in the round-robin rotation.
        for t in range(3):
            engine.ingest("Obs", {"id": t, "room": "lab", "temp": 20}, t)
        engine.run_until_idle()
        engine.ingest("Obs", {"id": 9, "room": "hall", "temp": 21}, 3)
        engine.scheduler._cursor = 0
        reads.clear()
        assert engine.step()
        serviced = list(reads)
        assert engine.query("target").metrics.processed == 4
        engine.run_until_idle()
        assert engine.scratch.total == engine.scratch.occupancy()
        return serviced

    def test_same_reads_beside_4_or_64_other_queries(self, state_size_reads):
        few = self.reads_for_one_quantum(4, state_size_reads)
        many = self.reads_for_one_quantum(64, state_size_reads)
        # The target's window source and its aggregate, once each.
        assert sorted(type(op).__name__ for op in few) \
            == ["AggregateOp", "StreamSourceOp"]
        assert [type(op) for op in few] == [type(op) for op in many]

    def test_shared_group_settles_once_per_tuple(self, state_size_reads):
        engine = make_engine(sharing=True)
        for index in range(6):
            engine.register_query(f"q{index}", OTHERS[index % len(OTHERS)])
        engine.ingest("Obs", {"id": 1, "room": "lab", "temp": 20}, 0)
        state_size_reads.clear()
        assert engine.step()
        # Six members observed the occupancy; the group's distinct
        # operators were each read once, not once per member.
        assert len(state_size_reads) == len(engine.scratch)
        assert len(set(map(id, state_size_reads))) == len(state_size_reads)


class TestChurnSoak:
    CYCLES = 1000
    LIVE = 4

    def test_register_cancel_churn_leaves_nothing_behind(self):
        engine = make_engine()
        names = []
        for cycle in range(self.CYCLES):
            name = f"q{cycle}"
            engine.register_query(name, OTHERS[cycle % len(OTHERS)])
            names.append(name)
            if len(names) > self.LIVE:
                engine.cancel_query(names.pop(0))
            if cycle % 50 == 0:
                engine.ingest("Obs", {"id": cycle, "room": "lab",
                                      "temp": 20}, cycle)
                engine.run_until_idle()
            # At most two stateful operators per query in OTHERS.
            assert len(engine.scratch) <= 2 * len(names)
        assert len(engine.queries) == self.LIVE
        assert len(engine._cql.queries) == self.LIVE
        assert engine.scratch.total == engine.scratch.occupancy() \
            == engine.total_state_size()


class TestStoreWriteIsHistoryIndependent:
    def test_write_path_never_copies_the_change_log(self, monkeypatch):
        class NoCopyRelation(TimeVaryingRelation):
            def change_points(self):
                raise AssertionError(
                    "Store.write copied the whole change-log")

        monkeypatch.setattr(components, "TimeVaryingRelation",
                            NoCopyRelation)
        engine = make_engine()
        handle = engine.register_query("q", TARGET)
        for t in range(40):
            engine.ingest("Obs", {"id": t, "room": "lab", "temp": 20}, t)
            engine.ingest("Obs", {"id": t, "room": "hall", "temp": 20}, t)
            engine.run_until_idle()
        engine.advance_time(200)
        history = handle.store_history()
        assert isinstance(history, NoCopyRelation)
        # One state per instant (same-instant writes refine in place),
        # plus registration's and the final expiry's.
        assert len(history) == 41
        assert handle.store_state() == history.at(200)


class TestRegistrationPlansOnce:
    @pytest.mark.parametrize("engine_batch", [1, 8])
    def test_one_plan_call_per_registration(self, monkeypatch, engine_batch):
        calls = []
        original = CQLEngine.plan

        def counting(self, text, optimize=None):
            calls.append(text)
            return original(self, text, optimize)

        monkeypatch.setattr(CQLEngine, "plan", counting)
        engine = make_engine(batch_size=engine_batch)
        handle = engine.register_query("q", OTHERS[0])
        unsafe = "SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 5] " \
                 "GROUP BY room"
        clamped = engine.register_query("agg", unsafe)
        assert calls == [OTHERS[0], unsafe]
        # The batching pass still rules on the plan it no longer re-derives.
        assert handle.batch_size == engine_batch
        assert clamped.batch_size == 1
