"""Tests for bags and time-varying relations (paper Definition 3.1)."""

import pytest

from repro.core import Bag, StateError, TimeError, TimeVaryingRelation


class TestBag:
    def test_multiplicity(self):
        bag = Bag(["a", "a", "b"])
        assert bag.count("a") == 2
        assert len(bag) == 3
        assert bag.support_size == 2

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            Bag.from_counts({"a": -1})

    def test_from_counts_drops_zero(self):
        bag = Bag.from_counts({"a": 0, "b": 2})
        assert "a" not in bag
        assert bag.count("b") == 2

    def test_add_and_discard(self):
        bag = Bag()
        bag.add("x", 3)
        assert bag.discard("x") == 1
        assert bag.count("x") == 2
        assert bag.discard("x", 5) == 2
        assert "x" not in bag

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            Bag().add("x", -1)

    def test_iteration_respects_multiplicity(self):
        assert sorted(Bag(["a", "a", "b"])) == ["a", "a", "b"]

    def test_union_is_additive(self):
        assert Bag(["a"]).union(Bag(["a", "b"])) == Bag(["a", "a", "b"])

    def test_difference_is_monus(self):
        assert Bag(["a", "a", "b"]).difference(Bag(["a", "c"])) == \
            Bag(["a", "b"])

    def test_intersection_is_min(self):
        assert Bag(["a", "a", "b"]).intersection(Bag(["a", "b", "b"])) == \
            Bag(["a", "b"])

    def test_max_union(self):
        assert Bag(["a", "a"]).max_union(Bag(["a", "b"])) == \
            Bag(["a", "a", "b"])

    def test_distinct(self):
        assert Bag(["a", "a", "b"]).distinct() == Bag(["a", "b"])

    def test_subbag(self):
        assert Bag(["a"]) <= Bag(["a", "a", "b"])
        assert not Bag(["a", "a", "a"]) <= Bag(["a", "a"])

    def test_map_merges_collisions(self):
        bag = Bag([1, -1, 2]).map(abs)
        assert bag.count(1) == 2

    def test_filter(self):
        assert Bag([1, 2, 3]).filter(lambda v: v > 1) == Bag([2, 3])

    def test_copy_is_independent(self):
        bag = Bag(["a"])
        clone = bag.copy()
        clone.add("b")
        assert "b" not in bag

    def test_hashable(self):
        assert hash(Bag(["a", "a"])) == hash(Bag(["a", "a"]))

    def test_apply_signed(self):
        bag = Bag(["a", "a", "b"])
        bag.apply_signed({"a": -1, "b": -1, "c": 2, "d": 0})
        assert bag == Bag(["a", "c", "c"])

    def test_apply_signed_is_all_or_nothing(self):
        bag = Bag(["a", "b", "b"])
        before = bag.copy()
        with pytest.raises(StateError, match="retraction of absent"):
            bag.apply_signed({"a": -1, "b": -1, "n": 3, "c": -1, "z": 1})
        assert bag == before
        with pytest.raises(StateError):
            bag.apply_signed({"a": 1, "b": -3})
        assert bag == before


class TestTimeVaryingRelation:
    def test_empty_before_first_change(self):
        tvr = TimeVaryingRelation()
        tvr.set_at(10, Bag(["x"]))
        assert tvr.at(9) == Bag()
        assert tvr.at(10) == Bag(["x"])

    def test_at_between_change_points(self):
        tvr = TimeVaryingRelation.from_snapshots(
            [(0, Bag(["a"])), (10, Bag(["b"]))])
        assert tvr.at(5) == Bag(["a"])
        assert tvr.at(10) == Bag(["b"])
        assert tvr.at(100) == Bag(["b"])

    def test_change_points_must_increase(self):
        tvr = TimeVaryingRelation()
        tvr.set_at(5, Bag(["a"]))
        with pytest.raises(TimeError):
            tvr.set_at(5, Bag(["b"]))

    def test_coalesce_merges_identical_states(self):
        tvr = TimeVaryingRelation()
        tvr.set_at(0, Bag(["a"]))
        tvr.set_at(5, Bag(["a"]))  # coalesced away
        assert tvr.change_points() == [0]

    def test_no_coalesce_keeps_explicit_snapshots(self):
        tvr = TimeVaryingRelation()
        tvr.set_at(0, Bag(["a"]))
        tvr.set_at(5, Bag(["a"]), coalesce=False)
        assert tvr.change_points() == [0, 5]

    def test_pointwise_equality(self):
        a = TimeVaryingRelation.from_snapshots(
            [(0, Bag(["x"])), (10, Bag(["y"]))])
        b = TimeVaryingRelation.from_snapshots(
            [(0, Bag(["x"])), (5, Bag(["x"])), (10, Bag(["y"]))])
        assert a == b  # the redundant change point at 5 doesn't matter

    def test_pointwise_inequality(self):
        a = TimeVaryingRelation.from_snapshots([(0, Bag(["x"]))])
        b = TimeVaryingRelation.from_snapshots([(0, Bag(["y"]))])
        assert a != b

    def test_lift_unary(self):
        tvr = TimeVaryingRelation.from_snapshots(
            [(0, Bag([1, 2])), (10, Bag([3]))])
        doubled = tvr.lift(lambda bag: bag.map(lambda v: v * 2))
        assert doubled.at(0) == Bag([2, 4])
        assert doubled.at(10) == Bag([6])

    def test_lift_binary_uses_union_of_change_points(self):
        left = TimeVaryingRelation.from_snapshots([(0, Bag(["l"]))])
        right = TimeVaryingRelation.from_snapshots([(5, Bag(["r"]))])
        combined = left.lift(Bag.union, right)
        assert combined.at(0) == Bag(["l"])
        assert combined.at(5) == Bag(["l", "r"])

    def test_restricted_sampling(self):
        tvr = TimeVaryingRelation.from_snapshots([(0, Bag(["a"]))])
        samples = tvr.restricted([0, 7])
        assert samples == [(0, Bag(["a"])), (7, Bag(["a"]))]
