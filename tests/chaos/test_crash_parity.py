"""Crash-recovery parity: a recovered run is indistinguishable from a
fault-free one.

The satellite suite behind the kernel-crashed oracle leg: for each
scenario (windows, equijoin, grouped aggregate, R2S sampling,
partitioned rows) every operator position of the kernel plan is crashed
exactly once mid-stream, recovered through :class:`RecoveryManager`, and
the final emissions and change-log are compared against the fault-free
run.  A second family drives the whole :class:`DSMSEngine` through the
same protocol, and a bounded seeded chaos-fuzz keeps the broker's
cumulative-ack consumption honest under drop/dup/reorder.
"""

import random

import pytest

from repro.chaos import ChaosBroker, CrashFuse, InjectedCrash, \
    RecoveryManager, install_crash, run_query_with_recovery
from repro.core import Schema, Stream
from repro.difftest.generators import (
    ALERTS_SCHEMA,
    OBS_SCHEMA,
    build_engine,
)
from repro.dsms import DSMSEngine
from repro.dsms.shedding import NoShedding
from repro.runtime import Broker, ConsumerGroup

OBS_ROWS = [({"id": i, "room": "ab"[i % 2], "temp": (i * 3) % 7}, i)
            for i in range(10)]
ALERTS_ROWS = [({"id": i, "level": i % 3}, i + 1) for i in range(0, 10, 2)]

SCENARIOS = {
    "range-window": "SELECT id, temp FROM Obs [Range 4] WHERE temp > 2",
    "sliding-window": "SELECT id, room FROM Obs [Range 6 Slide 2]",
    "equijoin": ("SELECT O.id, A.level FROM Obs O [Range 3], "
                 "Alerts A [Range 4] WHERE O.id = A.id"),
    "relation-join": ("SELECT O.id, R.floor FROM Obs O [Rows 4], "
                      "Rooms R WHERE O.room = R.room"),
    "aggregate": ("SELECT ISTREAM room, MAX(temp) FROM Obs [Range 4] "
                  "GROUP BY room"),
    "r2s-istream": "SELECT ISTREAM id, temp FROM Obs [Rows 3]",
    "partitioned": "SELECT id, temp FROM Obs [Partition By room Rows 2]",
}


def scenario_streams():
    return {"Obs": Stream.of_records(OBS_SCHEMA, OBS_ROWS),
            "Alerts": Stream.of_records(ALERTS_SCHEMA, ALERTS_ROWS)}


def fresh_query(text):
    query = build_engine().register_query(text)
    streams = {name: stream for name, stream in scenario_streams().items()
               if name in query._stream_sources}
    return query, streams


def outputs(query):
    stream = query.emitted_stream()
    return (list(zip(stream.timestamps(), stream.values())),
            [(t, sorted(bag, key=repr))
             for t, bag in query.as_relation().snapshots()])


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_crash_each_operator_once(scenario):
    text = SCENARIOS[scenario]
    clean, streams = fresh_query(text)
    clean.run_recorded(streams)
    expected = outputs(clean)
    positions = len(clean.operators())
    assert positions >= 2   # every scenario exercises a real tree

    for position in range(positions):
        query, streams = fresh_query(text)
        fuse = CrashFuse(at=4)   # mid-stream: every op sees >= 10 instants
        label = install_crash(query, position, fuse)
        manager = RecoveryManager(query, interval=2)
        run_query_with_recovery(query, streams, manager)
        where = f"{scenario}: crashed {label} at position {position}"
        assert fuse.fired == 1, where
        assert manager.attempts == fuse.fired, where
        assert outputs(query) == expected, where


def tallies(query):
    return [(label, op.received, op.emitted, getattr(op, "arrivals", None))
            for label, op in query.operators()]


@pytest.mark.parametrize("scenario", sorted(
    {**SCENARIOS, "filtered-aggregate": (
        "SELECT room, COUNT(*) AS n FROM Obs [Range 4] WHERE temp > 2 "
        "GROUP BY room")}.items()), ids=lambda item: item[0])
def test_recovery_restores_the_fault_free_tallies(scenario):
    """A rollback takes every operator's ``received`` and ``emitted``, and
    a source's ``arrivals``, back with its state, so explain_analyze reads
    after recovery what it reads after the fault-free run."""
    _, text = scenario
    clean, streams = fresh_query(text)
    clean.run_recorded(streams)
    for position in range(len(clean.operators())):
        query, streams = fresh_query(text)
        fuse = CrashFuse(at=4)
        label = install_crash(query, position, fuse)
        run_query_with_recovery(query, streams,
                                RecoveryManager(query, interval=2))
        assert fuse.fired == 1
        assert tallies(query) == tallies(clean), f"crashed {label}"


def test_recovery_survives_repeated_crashes_in_one_run():
    text = SCENARIOS["aggregate"]
    clean, streams = fresh_query(text)
    clean.run_recorded(streams)
    query, streams = fresh_query(text)
    fuse = CrashFuse(at=6, times=3)   # refires after every recovery
    install_crash(query, 1, fuse)
    manager = RecoveryManager(query, interval=1, max_retries=5)
    run_query_with_recovery(query, streams, manager)
    assert fuse.fired == 3
    assert manager.attempts == 3
    assert outputs(query) == outputs(clean)


def test_unrecoverable_crash_reraises_after_retry_budget():
    query, streams = fresh_query(SCENARIOS["range-window"])
    fuse = CrashFuse(at=4, times=1000)   # fires on every attempt
    install_crash(query, 0, fuse)
    manager = RecoveryManager(query, interval=2, max_retries=2)
    with pytest.raises(InjectedCrash):
        run_query_with_recovery(query, streams, manager)
    assert manager.attempts == 2


class TestDSMSRecovery:
    QUERY = "SELECT ISTREAM id FROM Obs [Range 4] WHERE temp > 2"

    def build(self, recovery_interval=None):
        engine = DSMSEngine(recovery_interval=recovery_interval)
        engine.register_stream("Obs", OBS_SCHEMA)
        handle = engine.register_query("q", self.QUERY,
                                       shedder=NoShedding())
        return engine, handle

    def drive(self, engine):
        for record, t in OBS_ROWS:
            engine.ingest("Obs", record, t)
            engine.run_until_idle()
        engine.advance_time(20)

    def test_engine_wide_crash_recovery_matches_fault_free(self):
        clean_engine, clean = self.build()
        self.drive(clean_engine)
        engine, handle = self.build(recovery_interval=2)
        fuse = CrashFuse(at=8)
        install_crash(handle.query, 1, fuse)
        self.drive(engine)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        assert engine.recovery.replayed_records > 0
        assert handle.emissions() == clean.emissions()
        assert handle.query.as_relation() == clean.query.as_relation()

    def test_without_recovery_the_crash_propagates(self):
        engine, handle = self.build()
        install_crash(handle.query, 1, CrashFuse(at=8))
        with pytest.raises(InjectedCrash):
            self.drive(engine)

    def test_restart_budget_is_bounded(self):
        engine = DSMSEngine(recovery_interval=2, max_restarts=2)
        engine.register_stream("Obs", OBS_SCHEMA)
        handle = engine.register_query("q", self.QUERY,
                                       shedder=NoShedding())
        install_crash(handle.query, 1, CrashFuse(at=8, times=1000))
        with pytest.raises(InjectedCrash):
            self.drive(engine)
        assert engine.recovery.attempts == 2

    SHARED = ("SELECT ISTREAM id FROM Obs [Range 4] WHERE temp > 2",
              "SELECT COUNT(*) AS n FROM Obs [Range 4] WHERE temp > 2")

    def build_fleet(self, sharing, recovery_interval=None):
        engine = DSMSEngine(sharing=sharing,
                            recovery_interval=recovery_interval)
        engine.register_stream("Obs", OBS_SCHEMA)
        return engine, [engine.register_query(f"q{index}", text)
                        for index, text in enumerate(self.SHARED)]

    def test_shared_recovery_matches_fault_free_and_isolated(self):
        isolated_engine, isolated = self.build_fleet(sharing=False)
        self.drive(isolated_engine)
        clean_engine, clean = self.build_fleet(sharing=True)
        self.drive(clean_engine)
        engine, members = self.build_fleet(sharing=True,
                                           recovery_interval=2)
        # Crash the filtered window source both members read.
        operators = members[0].query.operators()
        position = [label for label, _ in operators].index("StreamSourceOp")
        assert operators[position][1] in [
            op for _, op in members[1].query.operators()]
        fuse = CrashFuse(at=8)
        install_crash(members[0].query, position, fuse)
        self.drive(engine)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        assert engine.recovery.replayed_records > 0
        for handle, fault_free, alone in zip(members, clean, isolated):
            assert handle.emissions() == fault_free.emissions() \
                == alone.emissions()
            assert list(handle.store_history().snapshots()) \
                == list(fault_free.store_history().snapshots()) \
                == list(alone.store_history().snapshots())
        # One barrier for the group, filed under each member, its shared
        # state counted once.
        payload = engine.recovery.latest().state
        assert payload["queries"]["q0"] is payload["queries"]["q1"]
        assert engine.barrier_bytes == engine.views.barrier_bytes \
            + members[0].query.barrier_bytes


class TestCrashOutsideADrain:
    """Crashes in ``advance_time`` and in the replay itself go through the
    same restore-and-retry loop as a crash while draining."""

    QUERY = "SELECT k, COUNT(*) AS c FROM S [Range 3] GROUP BY k"

    def build(self, recovery_interval=None):
        engine = DSMSEngine(recovery_interval=recovery_interval)
        engine.register_stream("S", Schema(["k", "v"]))
        handle = engine.register_query("q", self.QUERY)
        return engine, handle

    def crash_source(self, handle, fuse):
        labels = [label for label, _ in handle.query.operators()]
        install_crash(handle.query, labels.index("StreamSourceOp"), fuse)

    @staticmethod
    def same_as(handle, clean):
        assert handle.emissions() == clean.emissions()
        assert handle.query.as_relation() == clean.query.as_relation()
        assert list(handle.store_history().snapshots()) == \
            list(clean.store_history().snapshots())

    def test_crash_during_advance_time_is_recovered(self):
        def drive(engine):
            for t in range(5):
                engine.ingest("S", {"k": t % 2, "v": t}, t)
                engine.run_until_idle()
            engine.advance_time(20)

        clean_engine, clean = self.build()
        drive(clean_engine)
        engine, handle = self.build(recovery_interval=2)
        # 12 progress units by the last drain; the expirations advance
        # fires reach 13.
        fuse = CrashFuse(at=13)
        self.crash_source(handle, fuse)
        drive(engine)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        self.same_as(handle, clean)

    def test_crash_during_replay_is_retried(self):
        def drive(engine):
            engine.ingest("S", {"k": 0, "v": 1}, 1)
            engine.run_until_idle()
            engine.advance_time(2)
            engine.ingest("S", {"k": 1, "v": 3}, 3)
            engine.run_until_idle()

        clean_engine, clean = self.build()
        drive(clean_engine)
        # No checkpoint after the baseline: the replay re-drains the
        # first arrival before its logged advance, and the fuse's second
        # shot lands there.
        engine, handle = self.build(recovery_interval=100)
        fuse = CrashFuse(at=3, times=2)
        self.crash_source(handle, fuse)
        drive(engine)
        assert fuse.fired == 2
        assert engine.recovery.attempts == 2
        self.same_as(handle, clean)


@pytest.mark.difftest
def test_seeded_broker_chaos_fuzz():
    """Bounded chaos-fuzz: for many seeds and fault mixes the consumer
    group must deliver every offset exactly once, in order."""
    total_faults = 0
    for seed in range(25):
        rng = random.Random(seed)
        broker = Broker()
        broker.create_topic("t", partitions=rng.randint(1, 3))
        n = rng.randint(10, 50)
        produced = []
        for i in range(n):
            record = broker.produce("t", i, key=str(i % 5))
            produced.append((record.partition, record.offset, i))
        chaos = ChaosBroker(broker, seed=seed,
                            drop=rng.uniform(0.0, 0.4),
                            duplicate=rng.uniform(0.0, 0.4),
                            reorder=rng.uniform(0.0, 0.8))
        group = ConsumerGroup(chaos, "g", ["t"])
        group.join("m")
        consumed = []
        for _ in range(2000):
            consumed.extend((r.partition, r.offset, r.value)
                            for r in group.poll("m"))
            if len(consumed) >= n:
                break
        assert sorted(consumed) == sorted(produced), f"seed {seed}"
        per_partition = {}
        for partition, offset, _value in consumed:
            per_partition.setdefault(partition, []).append(offset)
        for partition, offsets in per_partition.items():
            assert offsets == sorted(set(offsets)), \
                f"seed {seed} partition {partition}"
        total_faults += sum(chaos.faults.values())
    assert total_faults > 0   # the sweep injected real faults
