"""Tests for bags and time-varying relations (paper Definition 3.1)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bag,
    Changelog,
    Record,
    Schema,
    StateError,
    TimeError,
    TimeVaryingRelation,
)
from repro.dsms import DSMSEngine


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

    def test_discard_negative_rejected(self):
        bag = Bag(["a"])
        with pytest.raises(ValueError, match="negative"):
            bag.discard("a", -2)
        with pytest.raises(ValueError, match="negative"):
            bag.discard("b", -1)
        assert bag == Bag(["a"])
        assert len(bag) == 1 and "b" not in bag

    def test_construction_from_a_mapping_points_at_from_counts(self):
        for counts in ({"x": 0, "y": -1}, {"x": 2}, Counter({"x": 2})):
            with pytest.raises(TypeError, match="Bag.from_counts"):
                Bag(counts)
        assert Bag({}) == Bag() == Bag.from_counts({})

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

    def test_a_zero_change_before_a_refused_retraction(self):
        bag = Bag(["a"])
        with pytest.raises(StateError, match="retraction of absent"):
            bag.apply_signed({"z": 0, "a": 0, "b": -1})
        assert bag == Bag(["a"])


class TestTimeVaryingRelation:
    def test_empty_reads_are_fresh_bags(self):
        tvr = TimeVaryingRelation()
        tvr.at(0).add("junk")
        tvr.latest().add("junk")
        assert tvr.at(0) == tvr.latest() == Bag()
        assert TimeVaryingRelation().at(0) == Bag()

    def test_mutating_an_empty_history_read_leaks_into_no_other_answer(self):
        def engine_with_query():
            engine = DSMSEngine()
            engine.register_stream("Obs", Schema(["id"]))
            return engine.register_query("q", "SELECT id FROM Obs [Now]")

        engine_with_query().store_history().at(0).add("junk")
        fresh = engine_with_query()
        assert fresh.store_state() == Bag()
        assert fresh.store_history().at(0) == Bag()

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


class TestChangelog:
    def test_commit_nets_applies_and_logs_one_batch(self):
        log = Changelog()
        assert log.commit(1, [("a", 1), ("b", 2), ("a", 1), ("c", 1),
                              ("c", -1)]) == (2, 2)
        assert log.contents == Bag(["a", "a", "b", "b"])
        assert list(log.entries()) == [(1, (("a", 2), ("b", 2)))]
        assert log.commit(2, [("b", 1), ("b", -1)]) == ()
        assert len(log) == 1
        assert log.between(0, 2) == [("a", 2), ("b", 2)]

    def test_commit_is_all_or_nothing(self):
        log = Changelog()
        log.commit(3, [("a", 1)])
        with pytest.raises(StateError, match="must not decrease"):
            log.commit(2, [("b", 1)])
        with pytest.raises(StateError, match="retraction of absent"):
            log.commit(3, [("b", 1), ("z", -1)])
        assert log.contents == Bag(["a"]) and len(log) == 1

    def test_truncate_takes_the_cut_batches_back_out(self):
        log = Changelog()
        log.commit(1, [("a", 1), ("b", 1)])
        before = log.contents.copy()
        log.commit(2, [("a", -1), ("c", 1)])
        log.commit(2, [("c", -1), ("a", 1), ("d", 3)])
        log.truncate(1)
        assert log.contents == before and len(log) == 1
        log.truncate(0)
        assert log.contents == Bag() and len(log) == 0

    def test_size_is_the_contents_multiplicity(self):
        log = Changelog()
        sizes = [log.size]
        log.commit(1, [("a", 2), ("b", 1)])
        sizes.append(log.size)
        with pytest.raises(StateError):
            log.commit(1, [("c", 1), ("z", -1)])
        sizes.append(log.size)
        log.commit(2, [("a", -1), ("c", 3), ("c", -1)])
        sizes.append(log.size)
        assert sizes == [0, 3, 3, 4] and log.size == len(log.contents)
        log.truncate(1)
        assert log.size == len(log.contents) == 3
        log.truncate(0)
        assert log.size == 0

    def test_as_of_folds_back_from_the_contents(self):
        log = Changelog()
        log.commit(1, [("a", 1)])
        log.commit(4, [("b", 1)])
        log.commit(6, [("a", -1)])
        assert [log.as_of(v) for v in (0, 1, 3, 4, 6)] == [
            Bag(), Bag(["a"]), Bag(["a"]), Bag(["a", "b"]), Bag(["b"])]
        assert log.contents == Bag(["b"])

    def test_relation_has_one_point_per_version_that_changed(self):
        log = Changelog()
        log.commit(1, [("a", 1)])          # the first version nets to
        log.commit(1, [("a", -1)])         # nothing: no change point
        log.commit(2, [("b", 1)])
        log.commit(3, [("b", -1), ("c", 1)])
        log.commit(3, [("c", -1), ("b", 1)])  # back where 3 started
        log.commit(5, [("d", 2)])
        relation = log.relation()
        assert list(relation.snapshots()) == [
            (2, Bag(["b"])), (5, Bag(["b", "d", "d"]))]
        # Each read is built now: changing it changes neither the log nor
        # the next read.
        relation.at(5).add("junk")
        assert log.contents == log.relation().at(5) == Bag(["b", "d", "d"])

    def test_gc_keeps_the_contents_and_the_later_batches(self):
        log = Changelog()
        for version in (1, 2, 2, 5):
            log.commit(version, [(version, 1)])
        assert log.gc(below=2) == 3
        assert log.contents == Bag([1, 2, 2, 5])
        assert log.between(2, 5) == [(5, 1)]


# One step of a run against an aggregate-like owner: ("fold", version
# gap, {group: new value, or None to drop the group}) or ("truncate",
# how far back, as a share of the log's length).
steps = st.lists(st.one_of(
    st.tuples(st.just("fold"), st.integers(0, 2),
              st.dictionaries(st.sampled_from("abcd"),
                              st.one_of(st.none(), st.integers(0, 3)),
                              max_size=4)),
    st.tuples(st.just("truncate"), st.floats(0, 1), st.just(None))),
    max_size=30)


class TestHeldChangelog:
    """A log that holds its owner's rows (:meth:`Changelog.hold`) reads
    as an owned log fed the same batches, however the two are truncated:
    the owner restores its rows to the length cut back to, as an
    operator rolls back to its barrier."""

    @staticmethod
    def reads(log, versions):
        return (log.contents, log.size, len(log), log.weights(),
                list(log.entries()), [log.as_of(v) for v in versions],
                [log.between(a, b) for a in versions for b in versions],
                list(log.relation().snapshots()))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(steps)
    def test_a_held_log_reads_as_an_owned_one(self, steps):
        rows: dict = {}
        held, owned = Changelog(), Changelog()
        held.hold(rows)
        # The held rows at each log length (the operator's barriers).
        images, version = [{}], 0
        for kind, amount, change in steps:
            if kind == "truncate":
                length = int(amount * len(held))
                held.truncate(length)
                owned.truncate(length)
                rows.clear()
                rows.update(images[length])
                del images[length + 1:]
                continue
            version += amount
            batch = []
            for group, value in change.items():
                old = rows.get(group)
                new = None if value is None else (group, value)
                if old == new:
                    continue
                if old is not None:
                    batch.append((old, -1))
                    del rows[group]
                if new is not None:
                    batch.append((new, 1))
                    rows[group] = new
            assert held.commit(version, batch) == owned.commit(version, batch)
            if batch:
                images.append(dict(rows))
            assert held.holds and not owned.holds
            versions = range(-1, version + 2)
            assert self.reads(held, versions) == self.reads(owned, versions)

    def test_hold_none_keeps_a_copy_the_rows_no_longer_reach(self):
        rows = {"a": ("a", 1)}
        log = Changelog()
        log.hold(rows)
        log.commit(1, [(("a", 1), 1)])
        log.hold(None)
        rows["a"] = ("a", 2)
        assert not log.holds and log.contents == Bag([("a", 1)])
        assert log.size == 1
        log.truncate(0)
        assert log.contents == Bag() and log.size == 0

    def test_a_held_read_is_a_new_bag(self):
        rows = {"a": ("a", 1)}
        log = Changelog()
        log.hold(rows)
        log.commit(1, [(("a", 1), 1)])
        log.contents.add("junk")
        log.current().add("junk")
        assert log.contents == Bag([("a", 1)])
        schema = Schema(["g", "n"])
        assert log.labelled(schema) == Bag([Record(schema, ("a", 1))])
