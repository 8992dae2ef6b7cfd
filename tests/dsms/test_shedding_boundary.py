"""RandomShedder boundary behaviour and shed-fraction accounting."""

import pytest

from repro.core import Schema
from repro.dsms import DSMSEngine
from repro.dsms.queues import InputQueue
from repro.dsms.shedding import NoShedding, RandomShedder

OBS = Schema(["id", "room", "temp"])


class TestFullQueueBoundary:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 12345])
    def test_full_queue_drops_deterministically(self, seed):
        """At occupancy == 1.0 the drop probability is exactly 1.0 — not
        merely 'random() >= 1.0 happens to be false'."""
        shedder = RandomShedder(threshold=0.5, seed=seed)
        queue = InputQueue(capacity=4)
        for _ in range(4):
            queue.offer("x", 0, "S")
        assert queue.occupancy == 1.0
        for _ in range(50):
            assert not shedder.admit("x", queue)
        assert shedder.shed == 50
        assert shedder.shed_fraction == 1.0

    def test_full_queue_drops_even_with_threshold_one(self):
        shedder = RandomShedder(threshold=1.0, seed=0)
        queue = InputQueue(capacity=2)
        queue.offer("x", 0, "S")
        assert shedder.admit("x", queue)      # below capacity: admitted
        queue.offer("x", 0, "S")
        assert not shedder.admit("x", queue)  # full: dropped

    def test_below_full_is_still_probabilistic(self):
        shedder = RandomShedder(threshold=0.0, seed=1)
        queue = InputQueue(capacity=10)
        for _ in range(9):
            queue.offer("x", 0, "S")
        decisions = [shedder.admit("x", queue) for _ in range(300)]
        assert any(decisions) and not all(decisions)


class TestSeededDeterminism:
    def test_same_seed_same_decisions(self):
        queue = InputQueue(capacity=10)
        for _ in range(8):
            queue.offer("x", 0, "S")
        first = RandomShedder(threshold=0.5, seed=99)
        second = RandomShedder(threshold=0.5, seed=99)
        decisions_a = [first.admit("x", queue) for _ in range(200)]
        decisions_b = [second.admit("x", queue) for _ in range(200)]
        assert decisions_a == decisions_b

    def test_different_seed_different_decisions(self):
        queue = InputQueue(capacity=10)
        for _ in range(8):
            queue.offer("x", 0, "S")
        a = [RandomShedder(threshold=0.5, seed=1).admit("x", queue)
             for _ in range(100)]
        queue_b = InputQueue(capacity=10)
        for _ in range(8):
            queue_b.offer("x", 0, "S")
        b = [RandomShedder(threshold=0.5, seed=2).admit("x", queue_b)
             for _ in range(100)]
        assert a != b


class TestShedFractionAccounting:
    def test_queue_drop_after_admit_counts_into_shed_fraction(self):
        """NoShedding admits everything, but a capacity-1 queue bounces
        the second same-instant tuple: shed_fraction must report it."""
        dsms = DSMSEngine(queue_capacity=1)
        dsms.register_stream("Obs", OBS)
        handle = dsms.register_query(
            "q", "SELECT id FROM Obs [Now]", shedder=NoShedding())
        row = {"id": 0, "room": "a", "temp": 1}
        assert dsms.ingest("Obs", row, 0) == 1
        assert dsms.ingest("Obs", row, 0) == 0   # queue full
        assert handle.metrics.queue_dropped == 1
        assert handle.shedder.queue_dropped == 1
        assert handle.shedder.shed_fraction == pytest.approx(0.5)

    def test_policy_sheds_and_queue_drops_combine(self):
        shedder = NoShedding()
        queue = InputQueue(capacity=1)
        assert shedder.admit("x", queue)
        queue.offer("x", 0, "S")
        assert shedder.admit("y", queue)  # policy admits at full queue
        shedder.record_queue_drop()       # ...but the queue bounced it
        assert shedder.shed_fraction == pytest.approx(0.5)

    def test_fraction_zero_without_traffic(self):
        assert NoShedding().shed_fraction == 0.0
