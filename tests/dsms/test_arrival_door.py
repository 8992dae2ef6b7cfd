"""One door per stream: what ``ingest`` and the recovery replay go through.

A stream's door — the generated function of its layout, bound to the
views base table it feeds and the units reading it — is built on the
stream's first arrival and dropped whenever any of those change.
Counts, not clocks: after each change, ``ingest`` returns exactly the
number of queries reading the stream and every handle's
``metrics.ingested`` counts exactly the arrivals it was a reader for;
an arrival costs ``ingest`` and the door in Python calls, whatever the
readers, and a rebuilt door renders no code.
"""

import os
import sys

import pytest

import repro
from repro.chaos import CrashFuse, install_crash
from repro.core import Schema
from repro.cql import kernels
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


def calls_made(action):
    """The Python calls ``action()`` makes into ``repro`` and into the
    code its kernels generated, in order, as ``(file, function)``."""
    source = os.path.dirname(repro.__file__)
    made = []

    def profiler(frame, event, arg):
        if event == "call":
            made.append((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    generated = {filename for _, filename in kernels._factories.values()}
    return [(os.path.basename(filename), name) for filename, name in made
            if filename.startswith(source) or filename in generated]


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
        door_kernel = kernels.door_kernel

        def spying_kernel(schema):
            build = door_kernel(schema)

            def spying_build(engine, stream_name, *bindings):
                door = build(engine, stream_name, *bindings)

                def spying(row, t, rows=None, replay=False):
                    assert spying is engine._doors[stream_name]
                    routed.extend([row] if rows is None else rows)
                    return door(row, t, rows, replay)

                return spying

            return spying_build

        monkeypatch.setattr(kernels, "door_kernel", spying_kernel)
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


class TestCallsPerArrival:
    """Counts, not clocks: what one arrival costs in Python calls, and
    what rebuilding a door costs in generated code."""

    @pytest.mark.parametrize("readers", [1, 4, 16])
    def test_an_arrival_is_ingest_and_the_door_alone(self, readers):
        engine = make_engine()
        for index in range(readers):
            engine.register_query(f"q{index}", GROUPED)
        assert engine.ingest("Obs", row(0), 1) == readers  # opens the door
        admitted = []
        calls = calls_made(
            lambda: admitted.append(engine.ingest("Obs", row(1), 1)))
        assert admitted == [readers]
        # ingest and the stream's door: the coercion, the routing, each
        # reader's admission into its queue's open run and the books
        # are inline.
        assert calls == [("engine.py", "ingest"),
                         ("<door (id, room, temp)>", "door")]
        assert all(handle.metrics.ingested == 2
                   and handle.shedder.admitted == 2
                   and len(handle.queue) == 2 for handle in engine.queries)

    def test_the_edges_go_to_the_queue(self):
        # A new run, and a queue at its pressure mark or capacity, take
        # the queue's offer; every book still reads exactly.
        engine = make_engine()
        handle = engine.register_query("q", GROUPED, queue_capacity=5)
        assert handle.queue.calm == 3   # the pressure mark is 4
        offers = []
        for t, ident in [(1, 0), (1, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                         (2, 6)]:
            calls = calls_made(lambda: engine.ingest("Obs", row(ident), t))
            offers.append(calls.count(("queues.py", "offer")))
        # t=1 opens a run and t=2 another; from depth 3 an admission
        # meets the mark (4), and from depth 5 the capacity bounces it.
        assert offers == [1, 0, 1, 1, 1, 1, 1]
        assert handle.queue.pressure_events == 1
        assert (handle.metrics.ingested, handle.metrics.queue_dropped,
                len(handle.queue)) == (7, 2, 5)
        assert (handle.shedder.admitted, handle.shedder.queue_dropped) \
            == (7, 2)
        engine.run_until_idle()
        engine.ingest("Obs", row(7), 3)
        assert (handle.metrics.ingested, handle.metrics.processed,
                handle.shedder.admitted) == (8, 5, 8)

    def test_a_door_rebuilt_after_register_and_cancel_renders_nothing(
            self, monkeypatch):
        # A plan with no kernel of its own: a window, nothing above it.
        window = "SELECT * FROM Obs [Range 5]"
        engine = make_engine()
        engine.register_query("a", GROUPED)
        engine.register_query("b", window)
        engine.cancel_query("b")
        assert engine.ingest("Obs", row(0), 1) == 1
        door = engine._doors["Obs"]
        rendered = []
        for name in ("_factory", "door_kernel", "coercer_kernel"):
            def recording(*args, _name=name, _kernel=getattr(kernels, name)):
                rendered.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(kernels, name, recording)
        engine.register_query("c", window)
        engine.cancel_query("c")
        assert engine.ingest("Obs", row(1), 2) == 1
        assert engine._doors["Obs"] is not door
        assert rendered == []
