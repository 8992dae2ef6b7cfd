"""``ingest_many`` is a loop of ``ingest``, in one door call.

A run of arrivals sharing a stream and a timestamp enters the stream's
door once: one progress check, every row coerced before any is
admitted, ``ingested`` counted once per run and reader.  Everything a
caller can see must equal what a loop of ``ingest`` over the same rows
leaves: returned counts, every handle's metrics, queue peaks and
pressure, the shedders' books (a ``SemanticShedder`` still judges
Records), Store answers, emissions, a stream-fed dynamic table, and a
replay after an injected crash.  A bad row or a late timestamp anywhere
in a run refuses the whole run, with the error ``ingest`` raises, and
leaves no trace.
"""

import random

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.core import Record, Schema, SchemaError, StateError, TimeError
from repro.dsms import DSMSEngine, RandomShedder, SemanticShedder

OBS = Schema(["id", "room", "temp"], [int, str, int])
GROUPED = ("SELECT room, COUNT(*) AS n, AVG(temp) AS mean FROM Obs "
           "[Range 6] WHERE temp > 10 GROUP BY room")
HOT = "SELECT ISTREAM id, temp FROM Obs [Now] WHERE temp > 20"
VIEW = ("CREATE DYNAMIC TABLE per_room TARGET_LAG = 0 AS "
        "SELECT room, COUNT(*) AS n FROM Obs GROUP BY room")


def make_engine(judged=None, **kwargs):
    """An engine with one query per policy: NoShedding at the default
    capacity and at a small one, a seeded RandomShedder and a
    SemanticShedder (whose utility notes every row it judges in
    ``judged``), plus a stream-fed dynamic table."""
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    # Before the queries: each registration's checkpoint then covers it.
    engine.create_dynamic_table(VIEW)

    def utility(row):
        if judged is not None:
            judged.append(row)
        return row["temp"]

    engine.register_query("plain", GROUPED)
    engine.register_query("small", GROUPED, queue_capacity=8)
    engine.register_query("random", GROUPED, queue_capacity=12,
                          shedder=RandomShedder(threshold=0.3, seed=7))
    engine.register_query("semantic", HOT, queue_capacity=12,
                          shedder=SemanticShedder(utility, 25,
                                                  threshold=0.3))
    return engine


def workload(seed, ticks=40):
    """Per tick, one or more runs of rows; some ticks are not drained,
    so the small queues fill."""
    rng = random.Random(seed)
    out = []
    for _ in range(ticks):
        runs = [[{"id": rng.randrange(100), "room": rng.choice("abcd"),
                  "temp": rng.randint(0, 40)}
                 for _ in range(rng.randint(1, 9))]
                for _ in range(rng.randint(1, 3))]
        out.append((runs, rng.random() < 0.7))
    return out


def drive(engine, ticks, batched):
    """Feed ``ticks``; returns the admissions each run reported."""
    returned = []
    for t, (runs, drain) in enumerate(ticks, start=1):
        for rows in runs:
            if batched:
                returned.append(engine.ingest_many("Obs", rows, t))
            else:
                returned.append(sum(engine.ingest("Obs", row, t)
                                    for row in rows))
        if drain:
            engine.run_until_idle()
        if t % 10 == 0:
            engine.advance_time(t)
    engine.run_until_idle()
    return returned


def books(engine):
    """Everything of the engine a caller can read after a run."""
    handles = {handle.name: handle for handle in engine.queries}
    return {
        "metrics": engine.metrics_table(),
        "shedders": {name: (h.shedder.admitted, h.shedder.shed,
                            h.shedder.queue_dropped)
                     for name, h in handles.items()},
        "queues": {name: (h.queue.peak, h.queue.pressure_events,
                          h.queue.dropped, h.queue.enqueued)
                   for name, h in handles.items()},
        "answers": {name: h.store_state() for name, h in handles.items()},
        "emissions": {name: h.emissions() for name, h in handles.items()},
        "view": engine.views.read("per_room"),
        "table": engine.views.read("Obs"),
        "throw": engine.throw.discarded,
        "watermark": engine.watermark("Obs"),
    }


class TestALoopOfIngest:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_book_equals_the_loops(self, seed):
        ticks = workload(seed)
        judged_loop, judged_many = [], []
        loop, many = make_engine(judged_loop), make_engine(judged_many)
        assert drive(loop, ticks, False) == drive(many, ticks, True)
        assert books(loop) == books(many)
        # The policies were at work: rows were shed and dropped.
        shed = books(many)["shedders"]
        assert shed["random"][1] > 0 and shed["semantic"][1] > 0
        peak, pressure, dropped, _ = books(many)["queues"]["small"]
        assert peak == 8 and pressure > 0 and dropped > 0
        # The semantic policy judged the same rows, as Records of the
        # stream's schema.
        assert judged_loop == judged_many
        assert judged_many and all(isinstance(row, Record)
                                   and row.schema == OBS
                                   for row in judged_many)

    def test_ingested_is_counted_once_per_run(self):
        engine = make_engine()
        rows = [{"id": i, "room": "a", "temp": 30} for i in range(5)]
        assert engine.ingest_many("Obs", rows, 1) == 5 * 4
        assert {name: metrics["ingested"] for name, metrics
                in engine.metrics_table().items()} \
            == {"plain": 5, "small": 5, "random": 5, "semantic": 5}

    def test_an_empty_run_does_nothing(self):
        engine = make_engine(recovery_interval=2)
        before = books(engine)
        assert engine.ingest_many("Obs", [], 1) == 0
        assert books(engine) == before
        assert engine._arrival_log == []

    @pytest.mark.parametrize("fuse_at", [3, 9, 20])
    def test_a_crash_replay_equals_the_loops(self, fuse_at):
        ticks = workload(5, ticks=30)
        runs = {}
        for batched in (False, True):
            engine = make_engine(recovery_interval=3)
            plain = engine.query("plain").query
            labels = [label for label, _ in plain.operators()]
            fuse = CrashFuse(at=fuse_at)
            install_crash(plain, labels.index("AggregateOp"), fuse)
            returned = drive(engine, ticks, batched)
            assert fuse.fired == 1 and engine.recovery.replayed_records
            runs[batched] = (returned, books(engine),
                             engine.recovery.attempts,
                             engine.recovery.replayed_records,
                             [entry[0] for entry in engine._arrival_log])
        assert runs[False] == runs[True]
        # The log keeps one entry per arrival, so checkpoints land where
        # the loop's do.
        assert runs[True][4].count("ingest") == sum(
            len(rows) for tick_runs, _ in ticks for rows in tick_runs)


class TestARefusedRunLeavesNoTrace:
    def trace(self, engine):
        return (books(engine), len(engine._arrival_log),
                {h.name: len(h.queue) for h in engine.queries})

    def refused(self, rows, t, error, match):
        engine = make_engine(recovery_interval=100)
        engine.ingest_many("Obs", [{"id": 1, "room": "a", "temp": 30}], 5)
        before = self.trace(engine)
        with pytest.raises(error, match=match) as many:
            engine.ingest_many("Obs", rows, t)
        assert self.trace(engine) == before
        # ingest raises the same error on the run's first refused row.
        loop = make_engine(recovery_interval=100)
        loop.ingest("Obs", {"id": 1, "room": "a", "temp": 30}, 5)
        with pytest.raises(error) as one:
            for row in rows:
                loop.ingest("Obs", row, t)
        assert str(many.value) == str(one.value)
        engine.run_until_idle()

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_a_row_that_does_not_fit(self, bad):
        rows = [{"id": i, "room": "b", "temp": 20} for i in range(5)]
        rows[bad] = {"id": "x", "room": "b", "temp": 20}
        self.refused(rows, 6, SchemaError, "expects int")

    def test_a_row_missing_a_field(self):
        rows = [{"id": 1, "room": "b", "temp": 20}, {"id": 2, "room": "b"}]
        self.refused(rows, 6, SchemaError, "missing fields")

    def test_a_late_run(self):
        rows = [{"id": i, "room": "b", "temp": 20} for i in range(3)]
        self.refused(rows, 4, StateError, "timestamp order: 4 after 5")

    def test_a_late_run_is_refused_before_its_rows_are_read(self):
        self.refused([{"id": "x"}], 4, StateError, "4 after 5")

    def test_a_pre_epoch_run(self):
        self.refused([{"id": 1, "room": "b", "temp": 20}], -1, TimeError,
                     "before the epoch")
