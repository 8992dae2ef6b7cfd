"""Stream progress at the DSMS door.

``ingest`` refuses a late arrival at the call, with the guard the drain
would have run on it later (``check_feed_time``), against each unit that
reads the stream: a unit's mark is the newer of its newest queued
timestamp and its group's cursor.  A refused row leaves no trace.  And
``advance_time`` evaluates the instants still queued at or before its
target before the agenda passes them, so an advance loses no arrival.
"""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.core import Schema, StateError, TimeError
from repro.cql import CQLEngine
from repro.dsms import DSMSEngine

SCHEMA = Schema(["x"])
COUNT = "SELECT ISTREAM COUNT(*) AS n FROM S [Range 4 Slide 1]"
JOINED = ("SELECT S.x FROM S [Range 10], T [Range 10] "
          "WHERE S.x = T.x")


def make_engine(*streams, **kwargs):
    engine = DSMSEngine(**kwargs)
    for name in streams:
        engine.register_stream(name, SCHEMA)
    return engine


def emitted(handle):
    return [(tuple(e.record.values), e.timestamp)
            for e in handle.emissions()]


def trace(engine, handle):
    """Everything an admitted arrival would have touched."""
    table = engine._view_fed.get("S")
    return (handle.metrics.as_dict(), handle.shedder.admitted,
            handle.shedder.shed, len(handle.queue), len(engine._arrival_log),
            engine.watermark("S"),
            None if table is None else (len(table.changelog),
                                        engine.views.read("S")))


class TestLateRefusal:
    def test_a_late_row_is_refused_at_ingest_and_leaves_no_trace(self):
        engine = make_engine("S", recovery_interval=100)
        handle = engine.register_query("q", COUNT)
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE n TARGET_LAG = 0 AS "
            "SELECT COUNT(*) AS n FROM S EMIT CHANGES")
        engine.ingest("S", {"x": 1}, 1)
        engine.ingest("S", {"x": 5}, 5)
        before = trace(engine, handle)
        with pytest.raises(StateError,
                           match="timestamp order: 3 after 5"):
            engine.ingest("S", {"x": 3}, 3)
        assert trace(engine, handle) == before
        # The drain meets no late row, and the answer is the one of a run
        # that never offered it.
        engine.run_until_idle()
        control = make_engine("S")
        control_handle = control.register_query("q", COUNT)
        for t in (1, 5):
            control.ingest("S", {"x": t}, t)
        control.run_until_idle()
        assert emitted(handle) == emitted(control_handle)

    def test_behind_the_evaluated_cursor_is_late_too(self):
        engine = make_engine("S")
        handle = engine.register_query("q", COUNT)
        engine.ingest("S", {"x": 5}, 5)
        engine.run_until_idle()
        assert len(handle.queue) == 0
        engine.ingest("S", {"x": 5}, 5)   # the newest instant again: fine
        engine.run_until_idle()
        with pytest.raises(StateError, match="4 after 5"):
            engine.ingest("S", {"x": 4}, 4)

    def test_behind_an_advanced_cursor_is_late_too(self):
        engine = make_engine("S")
        engine.register_query("q", COUNT)
        engine.ingest("S", {"x": 1}, 1)
        engine.run_until_idle()
        # The advance evaluates the row's expiry at 5.
        engine.advance_time(10)
        with pytest.raises(StateError, match="4 after 5"):
            engine.ingest("S", {"x": 4}, 4)
        engine.ingest("S", {"x": 5}, 5)
        engine.run_until_idle()

    def test_the_refusal_is_the_one_a_direct_push_raises(self):
        engine = make_engine("S")
        engine.register_query("q", COUNT)
        engine.ingest("S", {"x": 5}, 5)
        with pytest.raises(StateError) as at_door:
            engine.ingest("S", {"x": 3}, 3)
        cql = CQLEngine()
        cql.register_stream("S", SCHEMA)
        query = cql.register_query(COUNT)
        query.push_batch(5, {"S": [{"x": 5}]})
        with pytest.raises(StateError) as pushed:
            query.push_batch(3, {"S": [{"x": 3}]})
        assert str(at_door.value) == str(pushed.value)

    @pytest.mark.parametrize("read", [True, False])
    def test_a_pre_epoch_row_raises_time_error(self, read):
        engine = make_engine("S", recovery_interval=100)
        if read:
            engine.register_query("q", COUNT)
        with pytest.raises(TimeError, match="before the epoch"):
            engine.ingest("S", {"x": 1}, -1)
        assert engine._arrival_log == []
        assert engine.watermark("S") is None


class TestPerUnitRule:
    def test_a_unit_reading_both_streams_refuses(self):
        engine = make_engine("S", "T")
        handle = engine.register_query("j", JOINED)
        engine.ingest("S", {"x": 1}, 5)
        with pytest.raises(StateError, match="3 after 5"):
            engine.ingest("T", {"x": 1}, 3)
        assert handle.metrics.ingested == 1
        engine.run_until_idle()

    def test_units_reading_one_stream_each_admit(self):
        engine = make_engine("S", "T")
        on_s = engine.register_query("s", "SELECT x FROM S [Range 10]")
        on_t = engine.register_query("t", "SELECT x FROM T [Range 10]")
        engine.ingest("S", {"x": 1}, 5)
        assert engine.ingest("T", {"x": 2}, 3) == 1
        engine.run_until_idle()
        assert [r["x"] for r in on_s.store_state()] == [1]
        assert [r["x"] for r in on_t.store_state()] == [2]
        assert (engine.watermark("S"), engine.watermark("T")) == (5, 3)


class TestRefusalUnderRecovery:
    def drive(self, engine, handle, crash=False):
        for t in (1, 2, 3, 4):
            engine.ingest("S", {"x": t}, t)
            engine.run_until_idle()
        engine.ingest("S", {"x": 6}, 6)
        with pytest.raises(StateError):
            engine.ingest("S", {"x": 5}, 5)
        engine.ingest("S", {"x": 7}, 7)
        fuse = CrashFuse(at=1)
        if crash:
            install_crash(handle.query, 0, fuse)
        engine.run_until_idle()
        engine.advance_time(20)
        return fuse

    def test_a_refusal_between_barrier_and_crash_replays_clean(self):
        clean_engine = make_engine("S")
        clean = clean_engine.register_query("q", COUNT)
        self.drive(clean_engine, clean)
        engine = make_engine("S", recovery_interval=2)
        handle = engine.register_query("q", COUNT)
        fuse = self.drive(engine, handle, crash=True)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        # The replay re-offered the two admitted rows since the barrier,
        # and never the refused one.
        assert engine.recovery.replayed_records == 2
        assert all(entry[-1] != 5 for entry in engine._arrival_log)
        assert emitted(handle) == emitted(clean)


class TestAdvancePastQueued:
    def test_an_advance_evaluates_the_queued_instants_first(self):
        def run(drain_first):
            engine = make_engine("S")
            handle = engine.register_query("q", COUNT)
            engine.ingest("S", {"x": 1}, 1)
            engine.run_until_idle()
            engine.ingest("S", {"x": 3}, 3)
            if drain_first:
                engine.run_until_idle()
            engine.advance_time(10)
            engine.run_until_idle()
            return emitted(handle)

        # The row at 3 expires at 7, after the one at 1 did at 5.
        assert run(drain_first=False) == run(drain_first=True) == [
            ((1,), 1), ((2,), 3), ((1,), 5), ((0,), 7)]

    def test_arrivals_queued_past_the_target_stay_queued(self):
        engine = make_engine("S")
        handle = engine.register_query("q", COUNT)
        for t in (3, 12):
            engine.ingest("S", {"x": t}, t)
        engine.advance_time(10)
        assert len(handle.queue) == 1
        engine.run_until_idle()
        assert emitted(handle) == [((1,), 3), ((0,), 7), ((1,), 12)]
