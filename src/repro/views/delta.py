"""CDC deltas and version-stamped changelogs for dynamic tables.

A :class:`Delta` is one z-set entry — a record with a signed weight
(+n inserts, −n deletes), the carrier of incremental view maintenance
(Elghandour et al.'s delta-driven refresh).  A :class:`Changelog` is the
append-only log of a table's committed deltas, stamped with the refresh
version (an integer instant) at which they took effect; downstream views
pull exactly the slice ``(their version, target version]`` to catch up.
The log holds only what some attached consumer has yet to pull: entries
below the low-water mark are trimmed, and the table's contents — not the
log — are the record of everything older.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from repro.core.errors import StateError
from repro.core.records import Record
from repro.core.relation import Bag


class Delta:
    """One signed change: ``weight`` copies of ``row`` added (or removed).

    Immutable by convention and built by the hundred thousand per pass,
    so a plain two-slot object: no per-instance dict, no frozen-dataclass
    ``__setattr__`` detour.
    """

    __slots__ = ("row", "weight")

    def __init__(self, row: Record, weight: int) -> None:
        if weight == 0:
            raise StateError("a delta must have non-zero weight")
        self.row = row
        self.weight = weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self.weight == other.weight and self.row == other.row

    def __hash__(self) -> int:
        return hash((self.row, self.weight))

    def __repr__(self) -> str:
        return f"Delta(row={self.row!r}, weight={self.weight!r})"


def net_weights(deltas: Iterable[Delta]) -> dict[Record, int]:
    """Row → summed weight over ``deltas`` (zero sums kept)."""
    weights: dict[Record, int] = {}
    get = weights.get
    for delta in deltas:
        row = delta.row
        weights[row] = get(row, 0) + delta.weight
    return weights


def net(deltas: Iterable[Delta]) -> list[Delta]:
    """Collapse deltas row-wise: weights sum, zero-weight rows vanish.

    Keeps changelogs tight — an affected-keys refresh emits a retract +
    insert per touched group, and when the pair cancels (the group's
    aggregate landed back on the same value) nothing is logged.
    """
    deltas = list(deltas)
    return net_of(deltas, net_weights(deltas))


def net_of(deltas: list[Delta], weights: dict[Record, int]) -> list[Delta]:
    """The net form of ``deltas`` given their :func:`net_weights`.

    Builds a delta only for a row whose deltas merged into a new weight:
    when no row repeats the list is already net and is returned as is,
    and otherwise each surviving row keeps its first delta whenever that
    already carries the net weight.
    """
    if len(weights) == len(deltas):
        return deltas
    pending = weights.copy()
    out = []
    for delta in deltas:
        weight = pending.pop(delta.row, 0)
        if weight:
            out.append(delta if weight == delta.weight
                       else Delta(delta.row, weight))
    return out


def apply_deltas(bag: Bag, deltas: Iterable[Delta]) -> None:
    """Apply deltas to a materialised bag in place, all or nothing.

    Raises :class:`StateError` when a (net) retract exceeds the bag's
    multiplicity — that is a torn changelog, never a valid refresh — and
    then leaves the bag as it was.
    """
    bag.apply_signed(net_weights(deltas))


class Changelog:
    """An append-only, version-stamped log of committed deltas."""

    def __init__(self) -> None:
        self._versions: list[int] = []
        self._batches: list[tuple[Delta, ...]] = []

    def append(self, version: int, deltas: Iterable[Delta]) -> None:
        """Commit ``deltas`` at ``version`` (versions never decrease)."""
        batch = tuple(deltas)
        if not batch:
            return
        if self._versions and version < self._versions[-1]:
            raise StateError(
                f"changelog versions must not decrease: {version} after "
                f"{self._versions[-1]}")
        self._versions.append(version)
        self._batches.append(batch)

    def between(self, after: int, upto: int) -> list[Delta]:
        """All deltas committed at versions in ``(after, upto]``."""
        lo = bisect_right(self._versions, after)
        hi = bisect_right(self._versions, upto)
        out: list[Delta] = []
        for batch in self._batches[lo:hi]:
            out.extend(batch)
        return out

    def latest_version(self) -> int | None:
        return self._versions[-1] if self._versions else None

    def entries(self) -> Iterator[tuple[int, tuple[Delta, ...]]]:
        return iter(zip(self._versions, self._batches))

    def __len__(self) -> int:
        return len(self._versions)

    def gc(self, below: int) -> int:
        """Drop entries committed at versions ``<= below``; returns the
        entries reclaimed.

        Safe when every attached consumer has consumed past ``below``: a
        consumer at version ``v >= below`` only ever pulls ``(v, ...]``.
        A consumer attached *later* does not replay the log at all — it
        primes from the source's current contents (see
        :meth:`DynamicTableService.create_from_plan`) — so reclaimed
        history is simply gone, and the cost is the entries dropped,
        never the rows the table holds.
        """
        cut = bisect_right(self._versions, below)
        del self._versions[:cut]
        del self._batches[:cut]
        return cut

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> dict:
        return {"versions": list(self._versions),
                "batches": list(self._batches)}

    def restore(self, state: dict) -> None:
        self._versions = list(state["versions"])
        self._batches = list(state["batches"])
