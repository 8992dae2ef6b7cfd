"""Tests for the Figure 3 components and queues/scheduling/shedding."""

import pytest

from repro.core import Bag, StateError
from repro.dsms import (
    FIFOScheduler,
    InputQueue,
    LongestQueueScheduler,
    NoShedding,
    RandomShedder,
    RoundRobinScheduler,
    Scratch,
    SemanticShedder,
    Store,
    Throw,
)


class TestInputQueue:
    def test_fifo_order(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0)
        queue.offer("b", 1)
        assert queue.poll().value == "a"
        assert queue.poll().value == "b"
        assert queue.poll() is None

    def test_drops_when_full(self):
        queue = InputQueue(capacity=1)
        assert queue.offer("a", 0)
        assert not queue.offer("b", 1)
        assert queue.dropped == 1
        assert queue.enqueued == 1

    def test_occupancy(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0)
        assert queue.occupancy == 0.25

    def test_invalid_capacity(self):
        with pytest.raises(StateError):
            InputQueue(capacity=0)

    def test_peek_does_not_remove(self):
        queue = InputQueue()
        queue.offer("a", 0)
        assert queue.peek().value == "a"
        assert len(queue) == 1


class TestStore:
    def test_write_and_read(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 5)
        assert store.current("q") == Bag(["x"])
        assert store.history("q").at(5) == Bag(["x"])
        assert store.history("q").at(4) == Bag()

    def test_same_instant_write_refines(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 5)
        store.write("q", Bag(["x", "y"]), 5)
        assert store.history("q").at(5) == Bag(["x", "y"])

    def test_current_returns_copy(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 0)
        snapshot = store.current("q")
        snapshot.add("y")
        assert store.current("q") == Bag(["x"])

    def test_write_keeps_the_callers_bag_and_readers_get_copies(self):
        # A write takes the Bag over — a query hands in the Bag its own
        # change-log holds, which nothing mutates again — so the history
        # and the current answer are that very object, not a copy.
        store = Store()
        store.register("q")
        state = Bag(["x"])
        store.write("q", state, 0)
        assert store.history("q").at(0) is state
        # Readers get copies: changing one touches nothing stored.
        read = store.current("q")
        assert read == state and read is not state
        read.add("y")
        assert state == Bag(["x"])
        assert store.current("q") == Bag(["x"])


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
        throw.discard("x", 1)
        throw.discard("y", 2)
        assert throw.discarded == 2

    def test_keep_tuples(self):
        throw = Throw(keep_tuples=True)
        throw.discard("x", 1)
        assert list(throw.tuples()) == [("x", 1)]

    def test_tuples_unavailable_when_not_kept(self):
        throw = Throw()
        with pytest.raises(ValueError):
            throw.tuples()

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_discard_many_equals_n_anonymous_discards(self, n):
        looped, batched = Throw(keep_tuples=True), Throw(keep_tuples=True)
        for _ in range(n):
            looped.discard(None, 7)
        batched.discard_many(n, 7)
        assert batched.discarded == looped.discarded == n
        assert list(batched.tuples()) == list(looped.tuples())


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
            queue.offer("x", 0)
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
        queue.offer("x", 0)  # occupancy > 0 => pressure
        assert shedder.admit(9, queue)
        assert not shedder.admit(1, queue)
        assert shedder.shed == 1
