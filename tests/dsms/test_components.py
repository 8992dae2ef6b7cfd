"""Tests for the Figure 3 components and queues/scheduling/shedding."""

import pytest

from repro.core import Bag, Changelog, PlanError, Schema, StateError
from repro.dsms import (
    DSMSEngine,
    FIFOScheduler,
    InputQueue,
    LongestQueueScheduler,
    NoShedding,
    RandomShedder,
    RoundRobinScheduler,
    Scratch,
    SchedulingUnit,
    SemanticShedder,
    Store,
    Throw,
)


class TestInputQueue:
    def test_fifo_order(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0, "S")
        queue.offer("b", 1, "S")
        assert queue.poll_instant(1) == (0, [("S", ["a"])])
        assert queue.poll_instant(1) == (1, [("S", ["b"])])
        assert queue.poll_instant(1) is None

    def test_drops_when_full(self):
        queue = InputQueue(capacity=1)
        assert queue.offer("a", 0, "S")
        assert not queue.offer("b", 1, "S")
        assert queue.dropped == 1
        assert queue.enqueued == 1

    def test_occupancy(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0, "S")
        assert queue.occupancy == 0.25

    def test_invalid_capacity(self):
        with pytest.raises(StateError):
            InputQueue(capacity=0)


class TestStore:
    """The Store keeps no answer or history of its own: it reads the
    change-log each query commits to (a ``Changelog``), registered by
    reference."""

    def test_write_and_read(self):
        store, log = Store(), Changelog()
        store.register("q", log)
        log.commit(5, [("x", 1)])
        assert store.current("q") == Bag(["x"])
        assert store.history("q").at(5) == Bag(["x"])
        assert store.history("q").at(4) == Bag()

    def test_same_instant_write_refines(self):
        # An instant folded in two quanta is one entry, holding its
        # latest state.
        engine = DSMSEngine()
        engine.register_stream("Obs", Schema(["id"]))
        engine.register_query("q", "SELECT id FROM Obs [Range 10]",
                              batch_size=1)
        for ident in ("x", "y"):
            engine.ingest("Obs", {"id": ident}, 5)
        assert engine.run_until_idle() == 2
        history = engine.store.history("q")
        assert history.change_points() == [5]
        assert sorted(r["id"] for r in history.at(5)) == ["x", "y"]

    def test_current_returns_copy(self):
        store, log = Store(), Changelog()
        store.register("q", log)
        log.commit(0, [("x", 1)])
        snapshot = store.current("q")
        snapshot.add("y")
        assert store.current("q") == Bag(["x"])

    def test_write_keeps_the_callers_bag_and_readers_get_copies(self):
        # The Store holds the writer's (the query's) log itself: what the
        # writer commits is the Store's answer at once, with no copy.
        store, log = Store(), Changelog()
        store.register("q", log)
        assert store.current("q") == Bag()
        log.commit(0, [("x", 1)])
        assert store.current("q") == log.contents == Bag(["x"])
        # Readers get copies: changing one touches nothing stored.
        read, history = store.current("q"), store.history("q")
        assert read is not log.contents
        read.add("y")
        history.at(0).add("z")
        assert log.contents == Bag(["x"])
        assert store.current("q") == store.history("q").at(0) == Bag(["x"])


@pytest.mark.parametrize("read", [
    lambda engine: engine.store.current("nope"),
    lambda engine: engine.store.history("nope"),
    lambda engine: engine.query("nope"),
    lambda engine: engine.cancel_query("nope"),
], ids=["store.current", "store.history", "query", "cancel_query"])
def test_an_unknown_query_name_raises_one_plan_error(read):
    engine = DSMSEngine()
    with pytest.raises(PlanError, match="unknown query 'nope'"):
        read(engine)


class TestScratch:
    class Holder:
        def __init__(self, size):
            self.state_size = size

    def test_occupancy_sums_holders(self):
        scratch = Scratch()
        scratch.register("q1", "a", self.Holder(3))
        scratch.register("q2", "b", self.Holder(4))
        assert scratch.occupancy() == 7
        assert scratch.breakdown() == {"a": 3, "b": 4}
        assert len(scratch) == 2

    def test_peak_tracks_maximum(self):
        scratch = Scratch()
        holder = self.Holder(10)
        scratch.register("q", "a", holder)
        scratch.occupancy()
        holder.state_size = 2
        scratch.occupancy()
        assert scratch.peak == 10

    def test_register_enters_the_ledger_at_the_current_size(self):
        scratch = Scratch()
        scratch.register("q", "a", self.Holder(3))
        assert scratch.total == 3
        # Peak is a high-water mark of settles and audits, not of
        # registrations.
        assert scratch.peak == 0

    def test_settle_rereads_only_the_owner(self):
        scratch = Scratch()
        mine, theirs = self.Holder(1), self.Holder(5)
        scratch.register("mine", "a", mine)
        scratch.register("theirs", "b", theirs)
        mine.state_size = 4
        theirs.state_size = 50  # unsettled: the ledger must not see it
        assert scratch.settle("mine") == 9
        assert scratch.total == 9
        assert scratch.peak == 9
        assert scratch.settle("theirs") == 54
        assert scratch.total == scratch.occupancy() == 54

    def test_settle_sums_every_holder_of_the_owner(self):
        scratch = Scratch()
        first, second = self.Holder(0), self.Holder(0)
        scratch.register("q", "a", first)
        scratch.register("q", "b", second)
        first.state_size, second.state_size = 2, 3
        assert scratch.settle("q") == 5
        second.state_size = 1
        assert scratch.settle("q") == 3
        assert scratch.peak == 5

    def test_settle_unknown_owner_is_a_noop(self):
        scratch = Scratch()
        scratch.register("q", "a", self.Holder(2))
        assert scratch.settle("ghost") == 2

    def test_unregister_drops_the_owner_from_ledger_and_audit(self):
        scratch = Scratch()
        scratch.register("q", "a", self.Holder(2))
        scratch.register("q", "b", self.Holder(3))
        scratch.register("keep", "c", self.Holder(7))
        assert scratch.unregister("q") == 2
        assert scratch.total == scratch.occupancy() == 7
        assert scratch.breakdown() == {"c": 7}
        assert len(scratch) == 1
        assert scratch.unregister("q") == 0


class TestThrow:
    def test_counts(self):
        throw = Throw()
        throw.discard_many(1)
        throw.discard_many(2)
        throw.discard_many(0)
        assert throw.discarded == 3

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_discard_many_equals_n_anonymous_discards(self, n):
        looped, batched = Throw(), Throw()
        for _ in range(n):
            looped.discard_many(1)
        batched.discard_many(n)
        assert batched.discarded == looped.discarded == n


class FakeQuery:
    def __init__(self, pending):
        self.pending = pending


class TestSchedulers:
    def test_round_robin_rotates(self):
        scheduler = RoundRobinScheduler()
        queries = [FakeQuery(1), FakeQuery(1), FakeQuery(1)]
        picks = [scheduler.next_index(queries) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_skips_idle(self):
        scheduler = RoundRobinScheduler()
        queries = [FakeQuery(0), FakeQuery(2)]
        assert scheduler.next_index(queries) == 1
        assert scheduler.next_index(queries) == 1

    def test_round_robin_idle(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.next_index([FakeQuery(0)]) is None
        assert scheduler.next_index([]) is None

    @pytest.mark.parametrize("fail_at", [0, 2, 5])
    def test_a_failed_drain_resumes_the_rotation_after_the_failed_unit(
            self, monkeypatch, fail_at):
        # A drain that a non-recoverable error stops, drained again, runs
        # the units in the order quantum-by-quantum steps would.
        def served(drive):
            engine = DSMSEngine()
            engine.register_stream("Obs", Schema(["id"]))
            for name in "abcd":
                engine.register_query(name, "SELECT id FROM Obs [Now]",
                                      batch_size=1)
            for t in range(3):
                engine.ingest("Obs", {"id": t}, t)
            order = []
            original = SchedulingUnit.service_one

            def service_one(unit):
                order.append(unit.name)
                if len(order) == fail_at + 1:
                    raise RuntimeError("boom")
                return original(unit)

            monkeypatch.setattr(SchedulingUnit, "service_one", service_one)
            with pytest.raises(RuntimeError):
                drive(engine)
            drive(engine)
            monkeypatch.undo()
            return order

        def by_steps(engine):
            while engine.step():
                pass

        drained = served(lambda engine: engine.run_until_idle())
        assert drained == served(by_steps)
        assert len(drained) == 4 * 3 + 1

    def test_longest_queue_first(self):
        scheduler = LongestQueueScheduler()
        queries = [FakeQuery(2), FakeQuery(9), FakeQuery(3)]
        assert scheduler.next_index(queries) == 1

    def test_fifo_first_pending(self):
        scheduler = FIFOScheduler()
        queries = [FakeQuery(0), FakeQuery(5), FakeQuery(7)]
        assert scheduler.next_index(queries) == 1


class TestShedders:
    def test_no_shedding_admits_all(self):
        shedder = NoShedding()
        queue = InputQueue(capacity=1)
        assert shedder.admit("x", queue)
        assert shedder.shed_fraction == 0.0

    def test_random_shedder_below_threshold_admits(self):
        shedder = RandomShedder(threshold=0.5, seed=1)
        queue = InputQueue(capacity=10)
        assert all(shedder.admit("x", queue) for _ in range(5))

    def test_random_shedder_sheds_under_pressure(self):
        shedder = RandomShedder(threshold=0.0, seed=1)
        queue = InputQueue(capacity=10)
        for _ in range(9):
            queue.offer("x", 0, "S")
        decisions = [shedder.admit("x", queue) for _ in range(200)]
        # At 90% occupancy with threshold 0 the drop probability is 0.9.
        shed_rate = decisions.count(False) / len(decisions)
        assert 0.75 < shed_rate < 1.0

    def test_random_shedder_threshold_validated(self):
        with pytest.raises(StateError):
            RandomShedder(threshold=1.5)

    def test_semantic_shedder_drops_low_utility(self):
        shedder = SemanticShedder(utility=lambda v: v, min_utility=5,
                                  threshold=0.0)
        queue = InputQueue(capacity=10)
        queue.offer("x", 0, "S")  # occupancy > 0 => pressure
        assert shedder.admit(9, queue)
        assert not shedder.admit(1, queue)
        assert shedder.shed == 1
