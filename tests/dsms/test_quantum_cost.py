"""What a DSMS service quantum costs, in calls, not clocks.

A quantum's fixed work — the scheduler, the unit's books, the group's
feed and the instant — must stay a small, fixed number of Python-level
calls, so that a quantum of a few rows pays for its rows: counted with
``sys.setprofile`` over a fleet of 16 isolated standing queries (the
``query_fleet`` texts).  An idle drain probes every queue without a
Python call per unit, an RSTREAM member counts its emissions without
copying its answer, with obs on a quantum publishes through series
its unit bound once, and a running aggregate root's fold neither nets
nor applies its batch.
"""

import gc
import itertools
import random
import sys
from collections import Counter

import pytest

import repro.core.relation as relation
import repro.obs as obs
import repro.obs.registry as registry_module
from repro.core import Bag, Schema, StateError
from repro.cql import CQLEngine
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])

TEMPLATES = (
    "SELECT COUNT(*) AS n {frm}",
    "SELECT DISTINCT room {frm}",
    "SELECT room, COUNT(*) AS n {frm} GROUP BY room",
    "SELECT DISTINCT id {frm}",
    "SELECT id, room {frm}",
    "SELECT MAX(temp) AS hottest {frm}",
    "SELECT id, COUNT(*) AS n {frm} GROUP BY id",
    "SELECT AVG(temp) AS mean {frm}",
)
#: The first 16 texts the fleet registers: every template over
#: ``[Range 5]`` and ``[Range 10]``, filtered on ``temp > 10``.
FLEET = [template.format(frm=f"FROM Obs [Range {window}] WHERE temp > 10")
         for window, template in itertools.product((5, 10), TEMPLATES)]

#: The budget of fixed Python-level calls per quantum (46 before the
#: quantum's glue was cut).
BUDGET = 30


class CallCount:
    """Python-level (``call``) and C (``c_call``) calls made inside
    ``action()``, by function."""

    def __init__(self) -> None:
        self.python: Counter = Counter()
        self.c: Counter = Counter()

    def __call__(self, action):
        def profiler(frame, event, arg):
            if event == "call":
                code = frame.f_code
                self.python[(code.co_filename, code.co_qualname)] += 1
            elif event == "c_call" and arg is not sys.setprofile:
                self.c[getattr(arg, "__qualname__", repr(arg))] += 1

        sys.setprofile(profiler)
        try:
            return action()
        finally:
            sys.setprofile(None)


def make_engine(texts):
    engine = DSMSEngine()
    engine.register_stream("Obs", OBS)
    for index, text in enumerate(texts):
        engine.register_query(f"q{index}", text)
    return engine


def feed(engine, rng, t, events=4):
    for _ in range(events):
        engine.ingest("Obs", {"id": rng.randrange(40),
                              "room": rng.randrange(8),
                              "temp": rng.randint(0, 40)}, t)


class TestFleetQuantum:
    def test_a_fleet_quantum_makes_at_most_30_python_calls(self):
        engine = make_engine(FLEET)
        rng = random.Random(1)
        # Fill every window first, so evictions run in the counted ticks.
        for t in range(1, 31):
            feed(engine, rng, t)
            engine.run_until_idle()
        count, quanta = CallCount(), 0
        for t in range(31, 81):
            feed(engine, rng, t)
            quanta += count(engine.run_until_idle)
        assert quanta == 50 * len(FLEET)
        per_quantum = sum(count.python.values()) / quanta
        assert per_quantum <= BUDGET, sorted(
            count.python.items(), key=lambda item: -item[1])[:20]

    def test_an_idle_drain_costs_the_same_at_16_and_64_queries(self):
        counts = []
        for size in (16, 64):
            engine = make_engine(FLEET * (size // len(FLEET)))
            rng = random.Random(1)
            for t in range(1, 4):
                feed(engine, rng, t)
                engine.run_until_idle()
            count = CallCount()
            assert count(engine.run_until_idle) == 0
            counts.append((count.python, count.c))
        assert counts[0] == counts[1]


RSTREAM = ("SELECT RSTREAM room, COUNT(*) AS n FROM Obs [Range 5000] "
           "GROUP BY room")


class TestRstreamDelivery:
    """An RSTREAM member emits its whole answer at every instant; the
    quantum counts those emissions off its batches' weights, never by
    copying or listing the answer."""

    def quantum(self, groups, monkeypatch):
        engine = make_engine([RSTREAM])
        handle = engine.query("q0")
        for t in range(groups):
            engine.ingest("Obs", {"id": t, "room": t, "temp": 1}, t)
        engine.run_until_idle()
        copies = []
        copy = Bag.copy

        def counted(self):
            copies.append(self)
            return copy(self)

        monkeypatch.setattr(Bag, "copy", counted)
        engine.ingest("Obs", {"id": 0, "room": 0, "temp": 1}, groups)
        count = CallCount()
        assert count(engine.run_until_idle) == 1
        monkeypatch.undo()
        assert copies == []
        assert handle.metrics.emitted == len(handle.emissions())
        return count.python

    def test_same_calls_at_20_and_2000_groups(self, monkeypatch):
        assert self.quantum(20, monkeypatch) \
            == self.quantum(2000, monkeypatch)

    @pytest.mark.parametrize("kind", ["ISTREAM", "DSTREAM", "RSTREAM"])
    def test_the_count_equals_the_emissions(self, kind):
        engine = make_engine([
            f"SELECT {kind} room, COUNT(*) AS n FROM Obs [Range 3] "
            f"GROUP BY room",
            f"SELECT {kind} id FROM Obs [Rows 2]"])
        rng = random.Random(7)
        for t in range(1, 12):
            feed(engine, rng, t, events=rng.randrange(4))
            engine.run_until_idle()
            if t % 4 == 0:
                engine.advance_time(t + 2)
        for handle in engine.queries:
            assert handle.metrics.emitted == len(handle.emissions()) > 0


class TestObsSeriesBoundOnce:
    def lookups(self, monkeypatch):
        made = []
        key = registry_module._key

        def counted(name, labels):
            made.append(name)
            return key(name, labels)

        monkeypatch.setattr(registry_module, "_key", counted)
        return made

    def test_no_registry_lookup_after_the_first_quantum(self, monkeypatch):
        engine = make_engine(FLEET[:2])
        obs.enable()
        rng = random.Random(3)
        feed(engine, rng, 1)
        while engine.step():
            pass
        made = self.lookups(monkeypatch)
        for t in range(2, 6):
            feed(engine, rng, t)
            while engine.step():
                pass
        assert made == []

    def test_a_quantum_after_reset_publishes_to_the_live_registry(self):
        engine = make_engine(FLEET[:1])
        obs.enable()
        rng = random.Random(3)
        feed(engine, rng, 1)
        engine.run_until_idle()
        obs.reset()
        obs.enable()
        feed(engine, rng, 2)
        assert engine.step()
        live = obs.get_registry()
        assert live.get("dsms.queue.depth", query="q0").count == 4
        assert live.get("dsms.queue.wait", query="q0").count == 4
        assert live.get("dsms.watermark.lag", stream="Obs").count == 1
        assert live.get("exec.query.instant_eval_seconds",
                        layer="cql").count == 1


class TestWindowSourceEviction:
    """The window source finds its due expiry buckets without a
    comprehension: the earliest alone when it is due now, else every
    bucket at or before the instant, in expiry order — and marks each
    for the next barrier."""

    def source(self):
        cql = CQLEngine()
        cql.register_stream("Obs", OBS)
        query = cql.register_query("SELECT id FROM Obs [Range 5]")
        (source,) = query._stream_sources["Obs"]
        return source

    def test_buckets_behind_the_instant_go_in_expiry_order(self):
        source = self.source()
        rows = [(1, "a", 1), (2, "b", 2), (3, "c", 3)]
        for t, values in enumerate(rows, 1):
            source.stage_many([values], t)
            assert source.process(t, []) == [(values, 1)]
        source.barrier()
        # Instants 6 to 8 never ran: three buckets are due at 10.
        assert source.process(10, []) == [(values, -1) for values in rows]
        assert (source.evicted, source.state_size) == (3, 0)
        source.rollback()
        assert source.state_size == 3
        assert source.process(6, []) == [(rows[0], -1)]
        assert source.state_size == 2


FIREHOSE = ("SELECT room, COUNT(*) AS n, AVG(temp) AS mean FROM Obs "
            "[Range 20] WHERE temp > 10 GROUP BY room")


class TestAggregateRootFold:
    """A running aggregate at a query's root keeps the answer, one row
    per group; the query's change-log reads it there, keeps no Bag of
    its own, and its fold appends the kernel's batch as it stands."""

    def test_the_fold_neither_nets_nor_applies(self, monkeypatch):
        engine = make_engine([FIREHOSE])
        log = engine.query("q0").query.changelog
        rng = random.Random(1)
        for t in range(1, 31):
            feed(engine, rng, t, events=50)
            engine.run_until_idle()
        built = []

        def netting(*args):
            built.append(args)
            return dict(*args)

        # The change-log's module builds its netting dict by this name.
        monkeypatch.setattr(relation, "dict", netting, raising=False)
        count, batches = CallCount(), len(log)
        for t in range(31, 41):
            feed(engine, rng, t, events=50)
            count(engine.run_until_idle)
        monkeypatch.undo()
        assert len(log) > batches
        assert built == []
        assert not [name for _, name in count.python
                    if name == "Bag.apply_signed"]
        assert not [held for held in gc.get_referents(log)
                    if isinstance(held, Bag)]

    def test_a_refused_second_group_leaves_the_answer(self):
        cql = CQLEngine()
        cql.register_relation("R", Schema(["k", "v"]), rows=[
            {"k": "a", "v": 1}, {"k": "b", "v": 2}])
        query = cql.register_query(
            "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM R GROUP BY k")
        query.start()
        answer, entries = query.current(), list(query.changelog.entries())
        (source,) = query._relation_sources["R"]
        # One instant: group "a" takes a row, then group "c" retracts
        # one it never held.
        with pytest.raises(StateError, match="does not hold"):
            query.group._feed(1, (), [(source, (("a", 5), 1)),
                                      (source, (("c", 7), -1))])
        assert query.current() == answer
        assert list(query.changelog.entries()) == entries
        assert query.changelog.size == 2
