"""``Bag`` against a :class:`collections.Counter` reference, and the guard
that every stored multiset is an exact ``dict`` with positive counts.

A ``Bag`` keeps its multiset in a plain ``dict`` (CPython specialises
subscripts and compares in C only for an exact dict), so equality is
dict equality and holds only while no entry holds zero or less.  The
property tests check every operation's result against ``Counter``
arithmetic and that invariant after every step.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Bag, Changelog, Schema, StateError
from repro.core.relation import labelled
from repro.cql.kernels import _MinMaxAccumulator

elements = st.lists(st.sampled_from("abcde"), max_size=12)
numbers = st.lists(st.integers(-4, 4), max_size=12)
counts = st.dictionaries(st.sampled_from("abcde"), st.integers(0, 3))
signed = st.dictionaries(st.sampled_from("abcdef"), st.integers(-3, 3))
steps = st.lists(st.tuples(st.booleans(), st.sampled_from("abc"),
                           st.integers(0, 3)), max_size=20)


def assert_exact_dict(holder):
    """Fail unless ``holder`` keeps an exact dict of positive counts."""
    held = holder._counts
    assert type(held) is dict, f"{type(held).__name__} is not an exact dict"
    assert all(count > 0 for count in held.values()), held


def assert_matches(bag, reference):
    """``bag`` is well formed and holds what ``reference`` does."""
    assert_exact_dict(bag)
    assert bag._counts == dict(+reference)
    assert len(bag) == reference.total()
    assert bag.support_size == len(+reference)
    for item in set(reference) | set("abcdef"):
        assert bag.count(item) == max(reference[item], 0)
        assert (item in bag) == (reference[item] > 0)


class TestAgainstCounter:
    @settings(max_examples=80, deadline=None)
    @given(items=elements)
    def test_construction_counts_elements(self, items):
        assert_matches(Bag(items), Counter(items))
        assert sorted(Bag(items)) == sorted(items)

    @settings(max_examples=80, deadline=None)
    @given(held=counts)
    def test_from_counts_drops_zeros(self, held):
        assert_matches(Bag.from_counts(held), Counter(held))

    @settings(max_examples=80, deadline=None)
    @given(items=elements, ops=steps)
    def test_add_and_discard(self, items, ops):
        bag, reference = Bag(items), Counter(items)
        for adding, item, count in ops:
            if adding:
                bag.add(item, count)
                reference[item] += count
            else:
                removed = min(reference[item], count)
                assert bag.discard(item, count) == removed
                reference[item] -= removed
            assert_matches(bag, reference)

    @settings(max_examples=80, deadline=None)
    @given(left=elements, right=elements)
    def test_algebra(self, left, right):
        a, b = Bag(left), Bag(right)
        ra, rb = Counter(left), Counter(right)
        assert_matches(a.union(b), ra + rb)
        assert_matches(a.difference(b), ra - rb)
        assert_matches(a.intersection(b), ra & rb)
        assert_matches(a.max_union(b), ra | rb)
        assert_matches(a.distinct(), Counter(set(left)))
        assert_matches(a, ra)  # the operands are left as they were
        assert_matches(b, rb)

    @settings(max_examples=80, deadline=None)
    @given(items=numbers)
    def test_map_and_filter(self, items):
        bag = Bag(items)
        assert_matches(bag.map(abs), Counter(map(abs, items)))
        assert_matches(bag.filter(lambda v: v % 2 == 0),
                       Counter(v for v in items if v % 2 == 0))

    @settings(max_examples=80, deadline=None)
    @given(left=elements, right=elements)
    def test_equality_and_subbag(self, left, right):
        a, b = Bag(left), Bag(right)
        ra, rb = Counter(left), Counter(right)
        assert (a == b) == (ra == rb)
        assert (a <= b) == (ra <= rb)
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=80, deadline=None)
    @given(items=elements)
    def test_a_bag_emptied_in_place_equals_an_empty_bag(self, items):
        bag = Bag(items)
        for item in set(items):
            bag.discard(item, len(items))
        assert bag == Bag()
        bag.apply_signed({"a": 1})
        bag.apply_signed({"a": -1})
        assert bag == Bag()

    @settings(max_examples=120, deadline=None)
    @given(items=elements, changes=signed)
    @example(items=[], changes={"a": 0, "b": -1})
    def test_apply_signed_is_all_or_nothing(self, items, changes):
        bag, reference = Bag(items), Counter(items)
        after = Counter(reference)
        for item, change in changes.items():
            after[item] += change
        if any(count < 0 for count in after.values()):
            with pytest.raises(StateError):
                bag.apply_signed(changes)
            assert_matches(bag, reference)
        else:
            bag.apply_signed(changes)
            assert_matches(bag, after)

    @settings(max_examples=80, deadline=None)
    @given(items=elements, changes=signed)
    def test_a_copy_is_independent_of_its_source(self, items, changes):
        source = Bag(items)
        clone = source.copy()
        assert_matches(clone, Counter(items))
        clone.add("z", 2)
        clone.discard(items[0] if items else "a")
        positive = {item: abs(change) for item, change in changes.items()}
        clone.apply_signed(positive)
        assert_matches(source, Counter(items))
        source.add("y")
        assert "y" not in clone


class TestExactDict:
    def test_the_guard_flags_a_counter(self):
        bag = Bag(["a"])
        bag._counts = Counter(bag._counts)
        with pytest.raises(AssertionError, match="Counter is not an exact"):
            assert_exact_dict(bag)

    def test_the_guard_flags_a_zero_count(self):
        bag = Bag(["a"])
        bag._counts["b"] = 0
        with pytest.raises(AssertionError):
            assert_exact_dict(bag)

    def test_every_bag_a_caller_can_get(self):
        a, b = Bag(["a", "a", "b"]), Bag(["b", "c"])
        for bag in (Bag(), a, a.copy(), a.union(b), a.difference(b),
                    a.intersection(b), a.max_union(b), a.distinct(),
                    a.map(str.upper), a.filter(lambda v: v != "a"),
                    Bag.from_counts({"a": 2, "b": 0})):
            assert_exact_dict(bag)

    def test_labelled_reads(self):
        rows = Bag([(1, "x"), (1, "x"), (2, "y")])
        for schema in (Schema(["n", "s"]), None):
            assert_exact_dict(labelled(rows, schema))

    def test_a_changelog_after_commit_and_truncate(self):
        log = Changelog()
        assert_exact_dict(log.contents)
        log.commit(1, [("a", 2), ("b", 1)])
        log.commit(2, [("a", -2), ("c", 1)])
        assert_exact_dict(log.contents)
        assert_exact_dict(log.as_of(1))
        log.truncate(1)
        assert_exact_dict(log.contents)
        assert log.contents == Bag(["a", "a", "b"])

    def test_min_max_accumulators(self):
        acc = _MinMaxAccumulator()
        assert_exact_dict(acc)
        acc.add(3, 2)
        acc.add(5, 1)
        acc.add(3, -2)
        clone = acc.copy()
        assert_exact_dict(acc)
        assert_exact_dict(clone)
        clone.add(1, 1)
        assert (acc.minimum(), clone.minimum()) == (5, 1)
