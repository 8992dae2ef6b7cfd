"""Relations: instantaneous bags, time-varying relations (Definition 3.1)
and the delta log every maintained relation keeps.

CQL's second data type, the *time-varying relation*, maps each time instant
to a finite bag of tuples.  We represent one as a change-log: a sorted list
of ``(τ, bag)`` entries meaning "from τ (inclusive) until the next entry the
relation equals *bag*".  That makes ``at(τ)`` a binary search, keeps storage
proportional to the number of changes, and makes the R2S operators
(:mod:`repro.core.operators`) a simple pairwise diff of consecutive states.
It is the reference semantics' type.

A relation the engine maintains — a standing query's answer, a base table,
a view — is instead a :class:`Changelog`: its current contents plus the
netted ``(row, weight)`` batches that built them (the stream/table duality:
a table is the fold of its changelog).  Its rows are values tuples; a read
labels them with the owner's schema (:func:`labelled`), and a time-varying
relation is built from one only when a caller asks for a whole history.

Instantaneous relations are bags (multisets), matching SQL/CQL semantics
where duplicates are meaningful until an explicit DISTINCT.
"""

from __future__ import annotations

import bisect
from itertools import groupby
from operator import itemgetter
from sys import getsizeof
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from repro.core.errors import StateError, TimeError
from repro.core.records import Schema, label_rows
from repro.core.time import Timestamp


class Bag:
    """A finite multiset of hashable items (an instantaneous relation).

    The multiset is an exact ``dict`` of item → multiplicity (not a
    subclass such as :class:`collections.Counter`), so every fold, read
    and copy runs on the builtin dict's fast paths.  Every multiplicity
    held is positive: no entry holds zero or less, so two bags are equal
    exactly when their dicts are.  On top sits the multiset algebra the
    relational operators need: additive union, monus (proper multiset
    difference), intersection, and support (distinct).
    """

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        """Count the elements of ``items``, each occurrence one copy."""
        counts: dict[Hashable, int] = {}
        if items:
            if isinstance(items, Mapping):
                raise TypeError(
                    "Bag() counts an iterable's elements; build a bag from "
                    "an item → multiplicity mapping with Bag.from_counts")
            get = counts.get
            for item in items:
                counts[item] = get(item, 0) + 1
        self._counts = counts

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "Bag":
        """Build directly from an item → multiplicity mapping."""
        bag = cls()
        held = bag._counts
        for item, count in counts.items():
            if count < 0:
                raise ValueError(f"negative multiplicity for {item!r}")
            if count:
                held[item] = count
        return bag

    def add(self, item: Hashable, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot add a negative count")
        if count:
            counts = self._counts
            counts[item] = counts.get(item, 0) + count

    def discard(self, item: Hashable, count: int = 1) -> int:
        """Remove up to ``count`` copies; return how many were removed."""
        if count < 0:
            raise ValueError("cannot discard a negative count")
        counts = self._counts
        have = counts.get(item, 0)
        if count >= have:
            counts.pop(item, None)
            return have
        if count:
            counts[item] = have - count
        return count

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
            if change:  # a zero change was never applied
                left = counts.get(item, 0) - change
                if left:
                    counts[item] = left
                else:
                    del counts[item]

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
        counts = out._counts = self._counts.copy()
        get = counts.get
        for item, count in other._counts.items():
            counts[item] = get(item, 0) + count
        return out

    def difference(self, other: "Bag") -> "Bag":
        """Monus: multiplicities subtract, floored at zero."""
        out, get = Bag(), other._counts.get
        out._counts = {item: left for item, count in self._counts.items()
                       if (left := count - get(item, 0)) > 0}
        return out

    def intersection(self, other: "Bag") -> "Bag":
        """Multiplicity-wise minimum."""
        out, get = Bag(), other._counts.get
        out._counts = {item: min(count, theirs)
                       for item, count in self._counts.items()
                       if (theirs := get(item, 0))}
        return out

    def max_union(self, other: "Bag") -> "Bag":
        """Multiplicity-wise maximum (set-style union lifted to bags)."""
        out = Bag()
        counts = out._counts = self._counts.copy()
        get = counts.get
        for item, count in other._counts.items():
            if count > get(item, 0):
                counts[item] = count
        return out

    def distinct(self) -> "Bag":
        """The support of the bag (every multiplicity clamped to 1)."""
        out = Bag()
        out._counts = dict.fromkeys(self._counts, 1)
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
        out._counts = {item: count for item, count in self._counts.items()
                       if predicate(item)}
        return out

    def copy(self) -> "Bag":
        out = Bag()
        out._counts = self._counts.copy()
        return out

    def __sizeof__(self) -> int:
        # The Bag and the dict it owns, i.e. what :meth:`copy` allocates;
        # the items are shared and not counted.
        return object.__sizeof__(self) + getsizeof(self._counts)


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
            return Bag()
        return self._states[idx]

    def latest(self) -> Bag:
        """The newest state: the bag in force from the last change point
        on (a fresh empty bag before the first)."""
        return self._states[-1] if self._states else Bag()

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


def labelled(rows: Bag, schema: Schema | None) -> Bag:
    """A new Bag of ``rows`` (values tuples), each a Record of ``schema``:
    how a maintained relation's rows reach a reader.  With no schema the
    rows are copied as they are."""
    if schema is None:
        return rows.copy()
    out, counts = Bag(), rows._counts
    out._counts = dict(zip(label_rows(schema, counts), counts.values()))
    return out


def _negated(rows: tuple, weights: tuple) -> dict[Hashable, int]:
    return dict(zip(rows, [-weight for weight in weights]))


def _bag_of(held: Mapping[Hashable, Hashable]) -> Bag:
    """A new Bag of ``held``'s values, each once (a held log's rows)."""
    out = Bag()
    out._counts = dict.fromkeys(held.values(), 1)
    return out


class Changelog:
    """A maintained relation: its current contents plus the append-only,
    version-stamped log of the netted batches that built them.

    A batch is a z-set: ``(row, weight)`` entries, +n for inserts and −n
    for deletes, each row once, no weight zero.  It is stored column-wise,
    as a ``(rows, weights)`` pair of tuples — under a third of the memory
    of a tuple of pairs.  Versions never decrease; two commits at one
    version are two batches, so a position in the log (its length) is a
    checkpoint and :meth:`truncate` the rollback to it.

    The log keeps what its owner retains: a standing query keeps every
    batch, a table or view only what some consumer has yet to pull
    (:meth:`gc`).  History reads — :meth:`as_of`, :meth:`relation` — fold
    back from a copy of the contents, so they reach as far back as the
    oldest batch retained.

    The contents are kept one of two ways.  A log *owns* them by
    default: a :class:`Bag` that :meth:`commit` nets each batch into and
    :meth:`truncate` takes batches back out of.  A log can instead *hold*
    rows its owner's root operator already keeps (:meth:`hold`): a
    running aggregate keeps its answer, one row per group, so a standing
    query rooted at one keeps it once.  That owner's batches are net by
    construction and have already moved the rows when they are
    committed, so :meth:`commit` only appends them, and :meth:`truncate`
    only cuts batches: the operator's own rollback restores the rows.
    """

    __slots__ = ("_bag", "_held", "_size", "_versions", "_batches")

    def __init__(self) -> None:
        #: The owned contents; None while the log holds its owner's rows.
        self._bag: Bag | None = Bag()
        #: The held rows (any key → a row, each row once), or None.
        self._held: Mapping[Hashable, Hashable] | None = None
        #: ``len(_bag)``, kept by :meth:`commit` and :meth:`truncate`.
        self._size = 0
        self._versions: list[int] = []
        self._batches: list[tuple[tuple, tuple]] = []

    def hold(self, rows: Mapping[Hashable, Hashable] | None) -> None:
        """Read the contents off ``rows`` from now on: a mapping whose
        values are the relation's rows, each once, that the operator
        committing here keeps up to date (and must hold exactly the
        contents now).  With None, own the contents again: a Bag of the
        rows held now, which later changes to them do not reach."""
        held = self._held
        if rows is not None:
            self._held, self._bag = rows, None
        elif held is not None:
            self._bag, self._size, self._held = _bag_of(held), len(held), None

    @property
    def holds(self) -> bool:
        """Whether the contents are held rows (see :meth:`hold`)."""
        return self._held is not None

    @property
    def contents(self) -> Bag:
        """The relation now.  An owned log's own Bag, changed only through
        :meth:`commit` and :meth:`truncate`: readers must not change it,
        and those that keep it must copy it.  A holding log builds a new
        Bag of its rows per read."""
        held = self._held
        return self._bag if held is None else _bag_of(held)

    @property
    def size(self) -> int:
        """``len(contents)``, its total multiplicity, read without walking
        the contents."""
        held = self._held
        return self._size if held is None else len(held)

    def current(self) -> Bag:
        """The relation now, as a new Bag the log's later changes do not
        reach."""
        held = self._held
        return self._bag.copy() if held is None else _bag_of(held)

    def labelled(self, schema: Schema | None) -> Bag:
        """:meth:`current` with each row a Record of ``schema`` (see
        :func:`labelled`): a holding log labels its rows directly."""
        held = self._held
        if held is None:
            return labelled(self._bag, schema)
        if schema is None:
            return _bag_of(held)
        out = Bag()
        out._counts = dict.fromkeys(label_rows(schema, held.values()), 1)
        return out

    def commit(self, version: int,
               deltas: list[tuple[Hashable, int]]) -> tuple[int, ...]:
        """Fold ``deltas`` into the contents at ``version``; returns the
        logged batch's net weights, in its row order (empty when nothing
        changed).

        All or nothing: a version behind the newest, or a retraction of
        more copies than the contents hold, raises
        :class:`~repro.core.errors.StateError` and changes nothing.  A
        net that is empty logs nothing.  A holding log appends ``deltas``
        as they stand: its owner hands over a net batch whose rows it has
        already moved, at a version its own clock keeps in order.
        """
        versions = self._versions
        if self._held is not None:
            if not deltas:
                return ()
            if versions and version < versions[-1]:
                raise StateError(
                    f"changelog versions must not decrease: {version} "
                    f"after {versions[-1]}")
            rows, weights = zip(*deltas)
            versions.append(version)
            self._batches.append((rows, weights))
            return weights
        # Rows rarely repeat within one commit, so the net is first taken
        # as one dict build (one hash per row) and summed row by row only
        # when some row did repeat or a weight was zero.
        net = dict(deltas)
        if len(net) != len(deltas) or 0 in net.values():
            net = {}
            get = net.get
            for row, weight in deltas:
                net[row] = get(row, 0) + weight
            net = {row: weight for row, weight in net.items() if weight}
        if not net:
            return ()
        if versions and version < versions[-1]:
            raise StateError(
                f"changelog versions must not decrease: {version} after "
                f"{versions[-1]}")
        self._bag.apply_signed(net)
        weights = tuple(net.values())
        self._size += sum(weights)
        versions.append(version)
        self._batches.append((tuple(net), weights))
        return weights

    def truncate(self, length: int) -> None:
        """Cut the log back to its first ``length`` batches (a rollback to
        a length it had) and take the batches cut back out of owned
        contents, newest first.  Held rows are left as they are: the
        operator keeping them rolls them back to its own barrier."""
        if self._held is None:
            undo = self._bag.apply_signed
            for rows, weights in reversed(self._batches[length:]):
                undo(_negated(rows, weights))
                self._size -= sum(weights)
        del self._versions[length:]
        del self._batches[length:]

    def gc(self, below: int) -> int:
        """Drop the batches committed at versions ``<= below``; returns
        how many went.  The contents keep them.

        Safe when every consumer has pulled past ``below``: a consumer at
        version ``v >= below`` only ever pulls ``(v, ...]``, and one that
        attaches later primes from the contents, not from a replay — so
        the cost is the batches dropped, never the rows the relation
        holds.
        """
        cut = bisect.bisect_right(self._versions, below)
        del self._versions[:cut]
        del self._batches[:cut]
        return cut

    def between(self, after: int, upto: int) -> list[tuple[Hashable, int]]:
        """Every ``(row, weight)`` committed at versions in ``(after,
        upto]``, oldest batch first."""
        lo = bisect.bisect_right(self._versions, after)
        hi = bisect.bisect_right(self._versions, upto)
        out: list[tuple[Hashable, int]] = []
        for rows, weights in self._batches[lo:hi]:
            out.extend(zip(rows, weights))
        return out

    def as_of(self, version: int) -> Bag:
        """The contents as of ``version`` (a new Bag): every later batch
        undone, newest first."""
        contents = self.current()
        keep = bisect.bisect_right(self._versions, version)
        for rows, weights in reversed(self._batches[keep:]):
            contents.apply_signed(_negated(rows, weights))
        return contents

    def relation(self, schema: Schema | None = None) -> "TimeVaryingRelation":
        """The retained history as a :class:`TimeVaryingRelation`, built
        now: one change point per version whose batches change the
        contents, holding the contents after it.  A version whose
        batches net to no change has none, the first one included.

        Folds back from a copy of the contents, copying it once per
        change point.
        """
        points: list[tuple[int, Bag]] = []
        state, pending = self.current(), None
        newest_first = zip(reversed(self._versions), reversed(self._batches))
        for version, batches in groupby(newest_first, key=itemgetter(0)):
            undo: dict[Hashable, int] = {}
            get = undo.get
            for _, (rows, weights) in batches:
                for row, weight in zip(rows, weights):
                    undo[row] = get(row, 0) - weight
            if any(undo.values()):
                if pending:
                    state.apply_signed(pending)
                # A copy taken after the change fits its contents; one
                # changed after the copy may outgrow its table.
                points.append((version, labelled(state, schema)))
                pending = undo
        relation = TimeVaryingRelation(schema=schema)
        for version, bag in reversed(points):
            relation.set_at(version, bag, coalesce=False)
        return relation

    def entries(self, start: int = 0) -> Iterator[tuple[int, tuple]]:
        """Each retained batch from position ``start`` on (a length the
        log had), oldest first, as ``(version, ((row, weight), ...))``."""
        return ((version, tuple(zip(rows, weights)))
                for version, (rows, weights)
                in zip(self._versions[start:], self._batches[start:]))

    def weights(self, start: int = 0) -> list[tuple[int, ...]]:
        """Each retained batch's weights from position ``start`` on (a
        length the log had), oldest first, in the batch's row order."""
        return [weights for _, weights in self._batches[start:]]

    def __len__(self) -> int:
        """The number of batches retained."""
        return len(self._versions)
