"""Relations: instantaneous bags and time-varying relations (Definition 3.1).

CQL's second data type, the *time-varying relation*, maps each time instant
to a finite bag of tuples.  We represent one as a change-log: a sorted list
of ``(τ, bag)`` entries meaning "from τ (inclusive) until the next entry the
relation equals *bag*".  That makes ``at(τ)`` a binary search, keeps storage
proportional to the number of changes, and makes the R2S operators
(:mod:`repro.core.operators`) a simple pairwise diff of consecutive states.

Instantaneous relations are bags (multisets), matching SQL/CQL semantics
where duplicates are meaningful until an explicit DISTINCT.
"""

from __future__ import annotations

import bisect
from collections import Counter
from sys import getsizeof
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from repro.core.errors import StateError, TimeError
from repro.core.records import Schema
from repro.core.time import Timestamp


class Bag:
    """A finite multiset of hashable items (an instantaneous relation).

    Thin, explicit wrapper over :class:`collections.Counter` providing the
    multiset algebra the relational operators need: additive union, monus
    (proper multiset difference), intersection, and support (distinct).
    """

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._counts: Counter = Counter(items)

    @classmethod
    def from_counts(cls, counts: dict[Hashable, int]) -> "Bag":
        """Build directly from an item → multiplicity mapping."""
        bag = cls()
        for item, count in counts.items():
            if count < 0:
                raise ValueError(f"negative multiplicity for {item!r}")
            if count:
                bag._counts[item] = count
        return bag

    def add(self, item: Hashable, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot add a negative count")
        if count:
            self._counts[item] += count

    def discard(self, item: Hashable, count: int = 1) -> int:
        """Remove up to ``count`` copies; return how many were removed."""
        have = self._counts.get(item, 0)
        removed = min(have, count)
        if removed == have:
            self._counts.pop(item, None)
        else:
            self._counts[item] = have - removed
        return removed

    def apply_signed(self, changes: Mapping[Hashable, int]) -> None:
        """Apply signed multiplicity changes in place, all or nothing:
        ``+n`` adds ``n`` copies of an item, ``-n`` removes ``n``, ``0``
        does nothing.

        Two dict operations per changed item.  A removal that exceeds
        what the bag holds raises :class:`~repro.core.errors.StateError`
        once the changes already made are undone, so a refused call
        leaves the bag as it was.
        """
        counts = self._counts
        get, pop = counts.get, counts.pop
        for item, change in changes.items():
            if change > 0:
                counts[item] = get(item, 0) + change
            elif change:
                have = pop(item, 0)
                if have + change > 0:
                    counts[item] = have + change
                elif have + change:
                    if have:
                        counts[item] = have
                    self._undo(changes, item)
                    raise StateError(f"retraction of absent record {item!r}")

    def _undo(self, changes: Mapping[Hashable, int], failed: Hashable) -> None:
        """Revert the changes :meth:`apply_signed` made before ``failed``."""
        counts = self._counts
        for item, change in changes.items():
            if item is failed:
                return
            left = counts.get(item, 0) - change
            if left:
                counts[item] = left
            else:
                counts.pop(item)

    def count(self, item: Hashable) -> int:
        return self._counts.get(item, 0)

    def __contains__(self, item: Hashable) -> bool:
        return self._counts.get(item, 0) > 0

    def __len__(self) -> int:
        """Total multiplicity (bag cardinality)."""
        return sum(self._counts.values())

    @property
    def support_size(self) -> int:
        """Number of distinct items."""
        return len(self._counts)

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate items with multiplicity (each copy yielded)."""
        for item, count in self._counts.items():
            for _ in range(count):
                yield item

    def items(self) -> Iterator[tuple[Hashable, int]]:
        """Iterate ``(item, multiplicity)`` pairs."""
        return iter(self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        return f"Bag({dict(self._counts)!r})"

    def __le__(self, other: "Bag") -> bool:
        """Sub-bag test: every multiplicity here is <= the other's."""
        return all(other.count(i) >= c for i, c in self._counts.items())

    def union(self, other: "Bag") -> "Bag":
        """Additive (bag) union: multiplicities add."""
        out = Bag()
        out._counts = self._counts + other._counts
        return out

    def difference(self, other: "Bag") -> "Bag":
        """Monus: multiplicities subtract, floored at zero."""
        out = Bag()
        out._counts = self._counts - other._counts
        return out

    def intersection(self, other: "Bag") -> "Bag":
        """Multiplicity-wise minimum."""
        out = Bag()
        out._counts = self._counts & other._counts
        return out

    def max_union(self, other: "Bag") -> "Bag":
        """Multiplicity-wise maximum (set-style union lifted to bags)."""
        out = Bag()
        out._counts = self._counts | other._counts
        return out

    def distinct(self) -> "Bag":
        """The support of the bag (every multiplicity clamped to 1)."""
        out = Bag()
        out._counts = Counter(dict.fromkeys(self._counts, 1))
        return out

    def map(self, fn: Callable[[Any], Any]) -> "Bag":
        """Apply ``fn`` to each item (multiplicities merge on collision)."""
        out = Bag()
        for item, count in self._counts.items():
            out.add(fn(item), count)
        return out

    def filter(self, predicate: Callable[[Any], bool]) -> "Bag":
        """Keep only items satisfying ``predicate``."""
        out = Bag()
        for item, count in self._counts.items():
            if predicate(item):
                out._counts[item] = count
        return out

    def copy(self) -> "Bag":
        out = Bag()
        out._counts = self._counts.copy()
        return out

    def __sizeof__(self) -> int:
        # The Bag and the Counter it owns, i.e. what :meth:`copy`
        # allocates; the items are shared and not counted.
        return object.__sizeof__(self) + getsizeof(self._counts)

    def to_sorted_list(self) -> list[Any]:
        """Items with multiplicity, sorted by repr (stable for reporting)."""
        return sorted(self, key=repr)


EMPTY_BAG = Bag()


class TimeVaryingRelation:
    """A mapping from instants to instantaneous bags (Definition 3.1).

    Stored as a change-log of ``(τ, bag)`` with strictly increasing τ.  The
    relation is *empty* before the first change point.  ``at(τ)`` returns
    the bag in force at τ.
    """

    def __init__(self, schema: Schema | None = None) -> None:
        self._schema = schema
        self._times: list[Timestamp] = []
        self._states: list[Bag] = []

    @classmethod
    def from_snapshots(cls, snapshots: Iterable[tuple[Timestamp, Bag]],
                       schema: Schema | None = None,
                       coalesce: bool = True) -> "TimeVaryingRelation":
        """Build from ``(τ, bag)`` pairs (must be in increasing-τ order).

        When ``coalesce`` is true, consecutive identical states are merged
        into one change point, which normalises the representation.
        """
        relation = cls(schema=schema)
        for t, bag in snapshots:
            relation.set_at(t, bag, coalesce=coalesce)
        return relation

    @property
    def schema(self) -> Schema | None:
        return self._schema

    def set_at(self, t: Timestamp, bag: Bag, coalesce: bool = True) -> None:
        """Record that from instant ``t`` on, the relation equals ``bag``."""
        if self._times and t <= self._times[-1]:
            raise TimeError(
                f"change points must increase: {t} after {self._times[-1]}")
        if coalesce and self._states and self._states[-1] == bag:
            return
        self._times.append(t)
        self._states.append(bag)

    def at(self, t: Timestamp) -> Bag:
        """The instantaneous relation R(τ) in force at instant ``t``."""
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return EMPTY_BAG
        return self._states[idx]

    def latest(self) -> Bag:
        """The newest state: the bag in force from the last change point
        on (the empty bag before the first)."""
        return self._states[-1] if self._states else EMPTY_BAG

    def change_points(self) -> list[Timestamp]:
        """Instants at which the relation (may) change, in order."""
        return list(self._times)

    def snapshots(self) -> Iterator[tuple[Timestamp, Bag]]:
        """Iterate the change-log as ``(τ, bag)`` pairs."""
        return iter(zip(self._times, self._states))

    def __len__(self) -> int:
        """Number of change points."""
        return len(self._times)

    def __repr__(self) -> str:
        return (f"TimeVaryingRelation(changes={len(self._times)}, "
                f"schema={self._schema!r})")

    def __eq__(self, other: object) -> bool:
        """Pointwise equality over the union of both change-point sets."""
        if not isinstance(other, TimeVaryingRelation):
            return NotImplemented
        instants = sorted(set(self._times) | set(other._times))
        return all(self.at(t) == other.at(t) for t in instants)

    def lift(self, fn: Callable[..., Bag], *others: "TimeVaryingRelation",
             schema: Schema | None = None) -> "TimeVaryingRelation":
        """Apply a bag-level function pointwise over time.

        This is exactly how CQL defines R2R operators: a non-temporal
        relational operator applied independently at every instant.  The
        result's change points are the union of the inputs' change points
        (the only instants where anything can change).
        """
        relations = (self, *others)
        instants = sorted({t for r in relations for t in r._times})
        out = TimeVaryingRelation(schema=schema)
        for t in instants:
            out.set_at(t, fn(*(r.at(t) for r in relations)))
        return out

    def restricted(self, instants: Iterable[Timestamp]) -> list[
            tuple[Timestamp, Bag]]:
        """Sample the relation at the given instants."""
        return [(t, self.at(t)) for t in instants]
