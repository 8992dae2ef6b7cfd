"""One door per stream: what ``ingest`` and the recovery replay go through.

A stream's door — its generated coercer, the views base table it feeds
and the ``offer`` of every unit reading it — is built on the stream's
first arrival and dropped whenever any of those change.  Counts, not
clocks: after each change, ``ingest`` returns exactly the number of
queries reading the stream and every handle's ``metrics.ingested``
counts exactly the arrivals it was a reader for.
"""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.core import Schema
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])
GROUPED = ("SELECT room, COUNT(*) AS n, SUM(temp) AS s FROM Obs "
           "[Range 20] GROUP BY room")


def make_engine(**kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    return engine


def row(ident, room="lab", temp=20):
    return {"id": ident, "room": room, "temp": temp}


class Census:
    """Ingests arrivals and keeps, per handle, the arrivals it read."""

    def __init__(self, engine):
        self.engine = engine
        self.handles = {}
        self.expected = {}
        self.ticks = 0

    def register(self, name, text=GROUPED, **kwargs):
        handle = self.engine.register_query(name, text, **kwargs)
        self.handles[name] = handle
        self.expected[name] = 0
        return handle

    def cancel(self, name):
        self.engine.cancel_query(name)
        del self.handles[name]

    def ingest(self, arrivals=3, drain=True):
        """Ingest ``arrivals`` rows at the next tick (and drain); every
        arrival must report one admission per current reader."""
        self.ticks += 1
        for ident in range(arrivals):
            assert self.engine.ingest(
                "Obs", row(ident, "ab"[ident % 2]), self.ticks) \
                == len(self.handles)
        for name in self.handles:
            self.expected[name] += arrivals
        if drain:
            self.engine.run_until_idle()
        assert {name: handle.metrics.ingested
                for name, handle in self.handles.items()} \
            == {name: self.expected[name] for name in self.handles}


class TestTheDoorFollowsTheReaders:
    def test_register(self):
        census = Census(make_engine())
        census.register("a")
        census.ingest()
        census.register("b")
        census.ingest()
        census.register("c", "SELECT ISTREAM id FROM Obs [Now]")
        census.ingest()
        assert census.expected == {"a": 9, "b": 6, "c": 3}

    def test_cancel(self):
        census = Census(make_engine())
        for name in "abc":
            census.register(name)
        census.ingest()
        census.cancel("b")
        census.ingest()
        census.cancel("a")
        census.cancel("c")
        census.ingest()
        assert census.engine.ingest("Obs", row(9), census.ticks) == 0

    def test_shared_group_join(self):
        census = Census(make_engine(sharing=True))
        census.register("a")
        # A group takes members until data flows: queue, do not drain.
        census.ingest(drain=False)
        census.register("b", "SELECT DISTINCT room FROM Obs [Range 20]")
        assert len(census.engine._units) == 1
        census.ingest()
        census.register("own", batch_size=2)  # a unit of its own
        census.ingest()
        assert census.expected == {"a": 9, "b": 6, "own": 3}

    def test_live_rescale(self):
        census = Census(make_engine())
        census.register("a")
        census.register("b")
        census.ingest()
        census.engine.rescale_query("a", 2)
        census.ingest()
        census.engine.rescale_query("a", 1)
        census.ingest()
        reference = Census(make_engine())
        reference.register("a")
        for _ in range(3):
            reference.ingest()
        assert census.handles["a"].store_state() \
            == reference.handles["a"].store_state()

    def test_a_dynamic_table_over_a_stream_that_had_arrivals(self):
        census = Census(make_engine())
        census.register("a")
        census.ingest()
        engine = census.engine
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE per_room TARGET_LAG = 0 AS "
            "SELECT room, COUNT(*) AS n FROM Obs GROUP BY room")
        # The new base table takes the stream's next arrivals, not the
        # earlier ones.
        census.ingest(arrivals=2)
        assert len(engine.views.read("Obs")) == 2
        assert sorted((r["room"], r["n"]) for r, _ in
                      engine.views.read("per_room").items()) \
            == [("a", 1), ("b", 1)]


class TestReplayGoesThroughTheDoor:
    def drive(self, engine, fuse=None):
        handle = engine.register_query("q", GROUPED)
        if fuse is not None:
            labels = [label for label, _ in handle.query.operators()]
            install_crash(handle.query, labels.index("AggregateOp"), fuse)
        for t in range(1, 9):
            for ident in range(3):
                assert engine.ingest(
                    "Obs", row(ident, "ab"[(t + ident) % 2], 10 + t), t) == 1
            engine.run_until_idle()
        return handle

    def test_a_crash_replay_leaves_the_fault_free_emissions(
            self, monkeypatch):
        routed = []
        route = DSMSEngine._route

        def spying(self, door, stream_name, values, t):
            assert door is self._doors[stream_name]
            routed.append(values)
            return route(self, door, stream_name, values, t)

        monkeypatch.setattr(DSMSEngine, "_route", spying)
        clean = self.drive(make_engine())
        routed.clear()
        fuse = CrashFuse(at=12)
        engine = make_engine(recovery_interval=2)
        handle = self.drive(engine, fuse)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        replayed = engine.recovery.replayed_records
        assert replayed > 0
        # Every arrival went through the door once, and every replayed
        # one once more.
        assert len(routed) == 8 * 3 + replayed
        assert handle.emissions() == clean.emissions()
        assert handle.store_state() == clean.store_state()

    @pytest.mark.parametrize("readers", [1, 3])
    def test_a_replay_reaches_every_reader(self, readers):
        fuse = CrashFuse(at=5)
        engine = make_engine(recovery_interval=2)
        handles = [engine.register_query(f"q{i}", GROUPED)
                   for i in range(readers)]
        labels = [label for label, _ in handles[0].query.operators()]
        install_crash(handles[0].query, labels.index("AggregateOp"), fuse)
        clean = make_engine()
        clean_handles = [clean.register_query(f"q{i}", GROUPED)
                         for i in range(readers)]
        for t in range(1, 6):
            for target in (engine, clean):
                assert target.ingest("Obs", row(t, "ab"[t % 2]), t) \
                    == readers
                target.run_until_idle()
        assert fuse.fired == 1
        for handle, reference in zip(handles, clean_handles):
            assert handle.emissions() == reference.emissions()
