"""Tests for fission inside a kernel plan (Exchange / PartitionGate /
Merge) — routing, key ownership, watermark min-combine, and parity with
the unfissioned plan."""

import pytest

from repro.exec import (
    CollectingEmitter,
    Exchange,
    Merge,
    Operator,
    OperatorContext,
    PartitionGate,
    Plan,
    fission,
)
from repro.runtime import BroadcastPartitioner, default_hash


class KeyedSum(Operator):
    """Per-key running sum, flushed as (key, total) at every watermark."""

    def __init__(self):
        self.totals = {}

    def process_element(self, value, input_index=0):
        key, amount = value
        self.totals[key] = self.totals.get(key, 0) + amount

    def process_watermark(self, watermark, input_index=0):
        for key, total in sorted(self.totals.items()):
            self.emit((key, total))


class Sink(Operator):
    def __init__(self):
        self.out = []
        self.marks = []

    def process_element(self, value, input_index=0):
        self.out.append(value)

    def process_watermark(self, watermark, input_index=0):
        self.marks.append(watermark)


def fissioned_plan(parallelism, partitioner=None):
    plan = Plan()
    plan.add_source("s")
    merged = fission(plan, "s", "sum", parallelism,
                     key_fn=lambda value: value[0],
                     replica_factory=lambda i: KeyedSum(),
                     partitioner=partitioner)
    sink = Sink()
    plan.add_operator("sink", sink, [merged])
    return plan, sink


class TestExchange:
    def test_stamps_elements_with_partition(self):
        exchange = Exchange(4, key_fn=lambda value: value[0])
        exchange.open(OperatorContext(emitter=CollectingEmitter()))
        exchange.process_element(("user-a", 1))
        [(partition, value)] = exchange.ctx.emitter.drain()
        assert partition == default_hash("user-a") % 4
        assert value == ("user-a", 1)

    def test_rejects_nonpositive_parallelism(self):
        with pytest.raises(ValueError):
            Exchange(0, key_fn=lambda value: value)

    def test_gate_admits_only_its_partition(self):
        gate = PartitionGate(2)
        gate.open(OperatorContext(emitter=CollectingEmitter()))
        gate.process_element((1, "no"))
        gate.process_element((2, "yes"))
        gate.process_element((3, "no"))
        assert gate.ctx.emitter.drain() == ["yes"]


class TestFission:
    def test_parity_with_unfissioned_plan(self):
        """Splitting a keyed aggregate 3 ways must not change what it
        computes — only who computes it."""
        plain = Plan()
        plain.add_source("s")
        plain.add_operator("sum", KeyedSum(), ["s"])
        plain_sink = Sink()
        plain.add_operator("sink", plain_sink, ["sum"])
        plain.open()
        parallel, parallel_sink = fissioned_plan(3)
        parallel.open()
        events = [(f"k{i % 7}", i) for i in range(40)]
        for event in events:
            plain.push("s", event)
            parallel.push("s", event)
        plain.advance_watermark("s", 10)
        parallel.advance_watermark("s", 10)
        assert sorted(parallel_sink.out) == sorted(plain_sink.out)
        assert parallel_sink.marks == plain_sink.marks == [10]

    def test_replicas_own_disjoint_keys(self):
        plan, _sink = fissioned_plan(4)
        plan.open()
        for key in range(32):
            plan.push("s", (key, 1))
        owned = [set(plan.operator(f"sum!{i}").totals) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not owned[i] & owned[j]
        assert set().union(*owned) == set(range(32))

    def test_strided_int_keys_reach_every_replica(self):
        """End-to-end regression for the int-passthrough hash bug: keys
        0, 4, 8, … across 4 replicas must not pile onto replica 0."""
        plan, _sink = fissioned_plan(4)
        plan.open()
        for key in range(0, 64, 4):
            plan.push("s", (key, 1))
        for i in range(4):
            assert plan.operator(f"sum!{i}").totals, f"replica {i} starved"

    def test_parallelism_one_is_identity(self):
        plan, sink = fissioned_plan(1)
        plan.open()
        plan.push("s", ("a", 2))
        plan.push("s", ("a", 3))
        plan.advance_watermark("s", 1)
        assert sink.out == [("a", 5)]

    def test_broadcast_partitioner_reaches_all_replicas(self):
        plan, sink = fissioned_plan(2, partitioner=BroadcastPartitioner())
        plan.open()
        plan.push("s", ("a", 1))
        plan.advance_watermark("s", 1)
        assert sink.out == [("a", 1), ("a", 1)]

    def test_fuses_gate_into_fusible_replica(self):
        """The gate→replica edge is a forward edge: when the replica is
        fusible, fusion collapses the gate into it so the per-element cost
        of fission is one tuple unpack, not an extra operator hop."""

        class Double(Operator):
            fusible = True

            def process_element(self, value, input_index=0):
                self.emit((value[0], value[1] * 2))

        plan = Plan()
        plan.add_source("s")
        merged = fission(plan, "s", "dbl", 2,
                         key_fn=lambda value: value[0],
                         replica_factory=lambda i: Double())
        sink = Sink()
        plan.add_operator("sink", sink, [merged])
        assert plan.fuse() == 2  # each gate chains into its replica
        names = plan.node_names()
        assert "dbl.gate0" not in names and "dbl.gate1" not in names
        plan.open()
        plan.push("s", ("a", 3))
        assert sink.out == [("a", 6)]


class TestMergeWatermarks:
    def test_merge_clock_is_min_over_partitions(self):
        """The merged event-time clock must be the minimum across
        partition channels: one slow partition holds everything back."""
        plan = Plan()
        plan.add_source("p0")
        plan.add_source("p1")
        plan.add_source("p2")
        plan.add_operator("merge", Merge(), ["p0", "p1", "p2"])
        sink = Sink()
        plan.add_operator("sink", sink, ["merge"])
        plan.open()
        plan.advance_watermark("p0", 10)
        plan.advance_watermark("p1", 7)
        assert sink.marks == []  # p2 still at the initial -1
        plan.advance_watermark("p2", 5)
        assert sink.marks == [5]
        plan.advance_watermark("p2", 20)
        assert sink.marks == [5, 7]  # p1 is now the laggard

    def test_merge_passes_elements_through(self):
        plan = Plan()
        plan.add_source("p0")
        plan.add_source("p1")
        plan.add_operator("merge", Merge(), ["p0", "p1"])
        sink = Sink()
        plan.add_operator("sink", sink, ["merge"])
        plan.open()
        plan.push("p0", "a")
        plan.push("p1", "b")
        assert sink.out == ["a", "b"]
