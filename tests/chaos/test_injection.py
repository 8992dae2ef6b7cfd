"""Tests for the fault-injection primitives (repro.chaos.injection)."""

import pytest

from repro.chaos import ChaosBroker, CrashFuse, InjectedCrash, SourceStall, \
    install_crash
import repro.obs as obs
from repro.difftest.generators import OBS_SCHEMA, build_engine
from repro.core import Schema, Stream
from repro.dsms import DSMSEngine
from repro.runtime import Broker, ConsumerGroup


class TestCrashFuse:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CrashFuse(at=0)

    def test_fires_once_at_threshold(self):
        fuse = CrashFuse(at=3)
        assert not fuse.record()
        assert not fuse.record()
        assert fuse.record()          # count reaches 3
        assert fuse.fired == 1
        assert not fuse.record()      # spent: keeps counting, never refires
        assert fuse.count == 4

    def test_bulk_progress_counts(self):
        fuse = CrashFuse(at=5)
        assert not fuse.record(4)
        assert fuse.record(4)         # jumps past the threshold

    def test_times_allows_repeat_firing(self):
        fuse = CrashFuse(at=2, times=2)
        assert fuse.record(2)
        assert fuse.record(1)
        assert not fuse.record(1)
        assert fuse.fired == 2


OBS_ROWS = [({"id": i, "room": "ab"[i % 2], "temp": i % 5}, i)
            for i in range(8)]


class TestInstallCrash:
    def make_query(self):
        engine = build_engine()
        return engine.register_query(
            "SELECT id, temp FROM Obs [Range 3]")

    def test_crash_fires_after_state_mutation(self):
        query = self.make_query()
        query.start()
        fuse = CrashFuse(at=1)
        label = install_crash(query, 0, fuse)
        with pytest.raises(InjectedCrash) as excinfo:
            query.push_batch(0, {"Obs": [OBS_ROWS[0][0]]})
        assert label in str(excinfo.value)
        assert fuse.fired == 1
        # Torn state: the operator absorbed the batch before crashing.
        _, crashed = query.operators()[0]
        assert crashed.received > 0

    def test_position_selects_the_operator(self):
        query = self.make_query()
        ops = query.operators()
        fuse = CrashFuse(at=10_000)   # never fires
        label = install_crash(query, len(ops) - 1, fuse)
        assert label == ops[-1][0]

    def test_spent_fuse_leaves_the_query_working(self):
        stream = Stream.of_records(OBS_SCHEMA, OBS_ROWS)
        clean = self.make_query()
        clean.run_recorded({"Obs": stream})
        query = self.make_query()
        fuse = CrashFuse(at=10_000)   # armed but past the stream's end
        install_crash(query, 0, fuse)
        query.run_recorded({"Obs": stream})
        assert fuse.fired == 0
        assert query.as_relation() == clean.as_relation()


class TestChaosBroker:
    def filled_broker(self, n=20):
        broker = Broker()
        broker.create_topic("t", partitions=1)
        for i in range(n):
            broker.produce("t", i, key="k")
        return broker

    def test_faults_are_tallied_and_seeded(self):
        broker = self.filled_broker()
        chaos = ChaosBroker(broker, seed=3, drop=0.3, duplicate=0.3,
                            reorder=1.0)
        first = [r.offset for r in chaos.fetch("t", 0, 0)]
        assert chaos.faults["dropped"] > 0
        assert chaos.faults["duplicated"] > 0
        assert chaos.faults["reordered"] > 0
        again = [r.offset
                 for r in ChaosBroker(broker, seed=3, drop=0.3,
                                      duplicate=0.3,
                                      reorder=1.0).fetch("t", 0, 0)]
        assert first == again  # same seed, same chaos

    def test_zero_rates_are_transparent(self):
        broker = self.filled_broker(5)
        chaos = ChaosBroker(broker, seed=0)
        assert [r.value for r in chaos.fetch("t", 0, 0)] == list(range(5))
        assert not chaos.faults

    def test_delegates_everything_else(self):
        chaos = ChaosBroker(self.filled_broker(4), seed=0)
        assert chaos.topic("t").partition_count == 1
        chaos.produce("t", 99, key="k")  # durable: goes to the real log
        assert [r.value for r in chaos.fetch("t", 0, 4)] == [99]


class TestPollUnderChaos:
    """The consumer group must see each offset exactly once, in order,
    whatever the transport does (the cumulative-ack discipline)."""

    def run_chaos(self, seed, n=30):
        broker = Broker()
        broker.create_topic("t", partitions=2)
        produced = []
        for i in range(n):
            record = broker.produce("t", i, key=str(i % 4))
            produced.append((record.partition, record.offset, i))
        chaos = ChaosBroker(broker, seed=seed, drop=0.25, duplicate=0.25,
                            reorder=0.5)
        group = ConsumerGroup(chaos, "g", ["t"])
        group.join("m")
        consumed = []
        for _ in range(500):
            batch = group.poll("m")
            consumed.extend((r.partition, r.offset, r.value) for r in batch)
            if len(consumed) >= n:
                break
        return produced, consumed, chaos

    def test_exactly_once_in_order_despite_faults(self):
        produced, consumed, chaos = self.run_chaos(seed=1)
        assert sorted(consumed) == sorted(produced)
        for partition in (0, 1):
            offsets = [o for p, o, _ in consumed if p == partition]
            assert offsets == sorted(offsets)  # in order
            assert len(offsets) == len(set(offsets))  # no duplicates
        assert sum(chaos.faults.values()) > 0  # the chaos actually happened


class TestSourceStall:
    def test_holds_only_the_target_source_in_the_window(self):
        stall = SourceStall("quiet", after=1, duration=2)
        assert stall.admit("quiet", "a")       # step 0: before the window
        assert stall.admit("live", "b")        # step 1: wrong source
        assert stall.stalling
        assert not stall.admit("quiet", "c")   # step 2: stalled
        assert stall.admit("quiet", "d")       # step 3: window over
        assert stall.release() == ["c"]
        assert stall.release() == []

    def test_stall_flags_the_withheld_stream_then_recovers(self):
        obs.enable()  # the engine's stall detector is fed while obs is on
        engine = DSMSEngine()
        for stream in ("Live", "Quiet"):
            engine.register_stream(stream, Schema(["x"]))
        engine.register_query("live", "SELECT ISTREAM x FROM Live [Now]")
        quiet = engine.register_query(
            "quiet", "SELECT ISTREAM x FROM Quiet [Now]")
        engine.stall_detector.threshold = 4
        # Live arrives every tick, Quiet every third; drive steps 2..11
        # hold Quiet's arrivals at t=3 and t=6.
        stall = SourceStall("Quiet", after=2, duration=10)
        flagged = []
        for t in range(12):
            for stream in ("Live", "Quiet")[:1 if t % 3 else 2]:
                if not stall.admit(stream, t):
                    continue
                if stream == "Quiet":
                    for held in stall.release():   # late delivery first
                        engine.ingest("Quiet", {"x": held}, held)
                engine.ingest(stream, {"x": t}, t)
            engine.run_until_idle()
            flagged.append(sorted(engine.stall_detector.stalled()))
        assert flagged == [[]] * 5 + [["Quiet"]] * 4 + [[]] * 3
        assert quiet.metrics.processed == 4
