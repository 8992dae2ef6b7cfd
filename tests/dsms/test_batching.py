"""DSMS micro-batch servicing: queue drain-to-batch and the knobs.

Covers ``InputQueue.poll_instant`` (same-timestamp runs only), engine and
per-query ``batch_size`` resolution (head instant vs planner clamp vs
explicit opt-in), batched-vs-per-element parity on the
Store/state/emissions, and batched recovery against a fault-free run.
"""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.core.records import Schema
from repro.cql.executor import SharedGroup
from repro.dsms.engine import DSMSEngine
from repro.dsms.queues import InputQueue

OBS = Schema(["id", "room", "temp"])

SAFE_QUERY = ("SELECT ISTREAM id, temp FROM Obs [Range Unbounded] "
              "WHERE temp > 30")
UNSAFE_QUERY = "SELECT ISTREAM COUNT(*) AS n FROM Obs [Range 5]"
RELATION_QUERY = "SELECT id, temp FROM Obs [Range 5] WHERE temp > 30"


def make_engine(**kwargs):
    engine = DSMSEngine(queue_capacity=100_000, **kwargs)
    engine.register_stream("Obs", OBS)
    return engine


def feed(engine, instants=8, per_instant=6):
    for t in range(instants):
        for i in range(per_instant):
            engine.ingest("Obs", {"id": i, "room": f"r{i % 2}",
                                  "temp": 25 + i * 3}, t=t)
    return engine.run_until_idle()


class TestPollBatch:
    """The batch poll, ``poll_instant(limit)``: one head-timestamp run."""

    def test_drains_only_the_head_timestamp_run(self):
        queue = InputQueue(capacity=16)
        for t in (1, 1, 1, 2, 2):
            queue.offer(f"v{t}", t)
        assert queue.poll_instant(10) == (1, ["v1", "v1", "v1"])
        assert len(queue) == 2

    def test_respects_the_limit(self):
        queue = InputQueue(capacity=16)
        for _ in range(5):
            queue.offer("v", 3)
        assert queue.poll_instant(2) == (3, ["v", "v"])
        assert len(queue) == 3

    def test_no_limit_drains_the_whole_head_instant(self):
        queue = InputQueue(capacity=2048)
        for t in [4] * 1500 + [5]:
            queue.offer("v", t)
        t, values = queue.poll_instant()
        assert (t, len(values)) == (4, 1500)
        assert queue.poll_instant(None) == (5, ["v"])

    def test_empty_queue_yields_empty_batch(self):
        queue = InputQueue(capacity=4)
        assert queue.poll_instant(8) is None

    def test_clears_pressure_on_drain(self):
        queue = InputQueue(capacity=10)
        for _ in range(10):
            queue.offer("v", 0)
        assert queue.pressured
        queue.poll_instant(10)
        assert not queue.pressured


class TestBatchSizeResolution:
    def test_engine_default_applies_to_safe_plans(self):
        handle = make_engine(batch_size=8).register_query("q", SAFE_QUERY)
        assert handle.batch_size == 8

    def test_planner_clamps_unsafe_plans_to_one(self):
        handle = make_engine(batch_size=8).register_query("q", UNSAFE_QUERY)
        assert handle.batch_size == 1

    def test_relation_outputs_are_batchable(self):
        handle = make_engine(batch_size=8).register_query(
            "q", RELATION_QUERY)
        assert handle.batch_size == 8

    def test_explicit_batch_size_overrides_the_clamp(self):
        handle = make_engine(batch_size=1).register_query(
            "q", UNSAFE_QUERY, batch_size=16)
        assert handle.batch_size == 16

    def test_default_engine_stays_per_element(self):
        handle = make_engine().register_query("q", SAFE_QUERY)
        assert handle.batch_size == 1

    def test_default_engine_drains_relation_outputs_by_instant(self):
        engine = make_engine()
        # Relation output: the whole head instant, even for an aggregate;
        # stream output: one tuple, however batch-safe the plan is.
        assert engine.register_query(
            "rel", "SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
                   "GROUP BY room").batch_size is None
        assert engine.register_query("safe", SAFE_QUERY).batch_size == 1
        assert engine.register_query("unsafe", UNSAFE_QUERY).batch_size == 1
        assert engine.register_query(
            "rstream", "SELECT RSTREAM id FROM Obs [Range Unbounded]"
        ).batch_size == 1


class TestBatchedServicingParity:
    def test_safe_plan_emissions_and_store_match_per_element(self):
        results = {}
        for size in (1, 8):
            engine = make_engine(batch_size=size)
            handle = engine.register_query("q", SAFE_QUERY)
            feed(engine)
            results[size] = (
                [(e.record["id"], e.timestamp) for e in handle.emissions()],
                handle.store_state(),
                handle.metrics.processed,
            )
        assert results[1] == results[8]

    def test_optedin_unsafe_plan_keeps_state_exact(self):
        states = {}
        for size in (1, 8):
            engine = make_engine()
            handle = engine.register_query("q", UNSAFE_QUERY,
                                           batch_size=size)
            feed(engine)
            states[size] = (handle.store_state(),
                            handle.query.as_relation())
        assert states[1][0] == states[8][0]
        assert states[1][1] == states[8][1]

    def test_batching_reduces_quanta(self, monkeypatch):
        # A quantum feeds the query's group's one instant path with the
        # values tuples ``ingest`` validated.
        calls = []
        feed_group = SharedGroup._feed

        def counted(self, t, arrivals):
            calls.append(t)
            return feed_group(self, t, arrivals)

        monkeypatch.setattr(SharedGroup, "_feed", counted)
        quanta, answers = {}, {}
        for size in (1, 8):
            engine = make_engine(batch_size=size)
            engine.register_query("q", RELATION_QUERY)
            calls.clear()
            quanta[size] = feed(engine)
            assert len(calls) == quanta[size]
            answers[size] = engine.store.current("q")
        # 8 instants of 6 arrivals: one quantum per arrival, or one per
        # instant once a quantum may take all 6.
        assert (quanta[1], quanta[8]) == (48, 8)
        assert answers[1] == answers[8]

    def test_batches_never_mix_instants(self):
        engine = make_engine(batch_size=100)
        handle = engine.register_query("q", RELATION_QUERY)
        for t in (0, 0, 1, 1, 1, 2):
            engine.ingest("Obs", {"id": t, "room": "r", "temp": 40}, t=t)
        engine.run_until_idle()
        # Arrivals must have been applied in timestamp order; a mixed
        # batch would have raised inside the executor's order check.
        assert handle.metrics.processed == 6


class TestBatchedRecovery:
    """Batched × crashed: a replay re-offers the arrivals logged since the
    checkpoint at once, so it folds in one quantum what the live run
    folded one arrival at a time — the change-log must not tell."""

    QUERY = "SELECT room, COUNT(*) AS n FROM Obs [Range 5] GROUP BY room"

    def drive(self, engine, fuse=None):
        engine.register_stream("Obs", OBS)
        handle = engine.register_query("q", self.QUERY)
        if fuse is not None:
            install_crash(handle.query, 0, fuse)
        for t in range(1, 16):
            for n in range(3):
                # Ticks not divisible by 4 bring one arrival per room:
                # where t - 5 did too, the instant's net change is zero.
                room = "abc"[(n + t // 5) % 3] if t % 4 else "a"
                engine.ingest("Obs", {"id": n, "room": room, "temp": 20}, t)
                engine.run_until_idle()
        return handle

    @pytest.mark.parametrize("interval", range(3, 7))
    def test_recovered_log_equals_the_fault_free_one(self, interval):
        clean = self.drive(DSMSEngine(batch_size=8))
        for at in range(2, 40):
            fuse = CrashFuse(at=at)
            engine = DSMSEngine(recovery_interval=interval, batch_size=8)
            handle = self.drive(engine, fuse)
            assert fuse.fired == 1 and engine.recovery.attempts == 1
            assert list(handle.store_history().snapshots()) \
                == list(clean.store_history().snapshots()), at
