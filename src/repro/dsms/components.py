"""The four architectural components of Figure 3: Stream, Store, Scratch,
Throw.

The paper describes the canonical DSMS layout: *streams* are both input and
main output; the *Store* aligns with CQL's time-varying relation
abstraction and persists query results; the *Scratch* is working memory for
intermediate operator state; the *Throw* is the logical recycle bin where
expired tuples go.  This module gives each a concrete, inspectable
realisation wired into the DSMS engine.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Protocol

from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.time import Timestamp


class Store:
    """Persistent result storage: one time-varying relation per query.

    The Store is what a client reads when it asks a DSMS for "the current
    answer" of a registered relation-producing query.
    """

    def __init__(self) -> None:
        self._relations: dict[str, TimeVaryingRelation] = {}
        self._current: dict[str, Bag] = {}
        self.writes = 0

    def register(self, name: str) -> None:
        self._relations[name] = TimeVaryingRelation()
        self._current[name] = Bag()

    def write(self, name: str, state: Bag, t: Timestamp) -> None:
        """Persist a query's new current state at instant ``t``.

        O(1) however long the history or large the state: only the
        change-log's tail is looked at, and ``state`` itself is kept, not
        copied — it serves as both the change-log entry and the current
        answer.  The caller hands it over: a query passes the Bag its own
        change-log holds, which nothing mutates again (the Store replaces
        stored bags, it never mutates one either).  Readers get copies.
        """
        relation = self._relations[name]
        times = relation._times
        if times and times[-1] == t:
            # Same-instant refinement: keep the latest state for t.
            times.pop()
            relation._states.pop()
        relation.set_at(t, state, coalesce=False)
        self._current[name] = state
        self.writes += 1

    def current(self, name: str) -> Bag:
        """The stored answer right now (a private copy)."""
        return self._current[name].copy()

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint every change-log as an offset, O(relations).

        A change-log only grows, except that a write at the instant of its
        tail replaces the tail: so the checkpoint is each log's length
        plus its tail entry, held by reference (stored bags are never
        mutated).
        """
        relations: dict[str, Any] = {}
        for name, relation in self._relations.items():
            times, states = relation._times, relation._states
            relations[name] = ((len(times), times[-1], states[-1]) if times
                               else (0, None, None))
        return {"relations": relations, "writes": self.writes}

    def restore(self, payload: dict[str, Any]) -> None:
        """Roll the Store back to a snapshot, in place: truncate each
        change-log to its offset and put its tail entry back."""
        for name, (length, t, state) in payload["relations"].items():
            relation = self._relations[name]
            del relation._times[length:]
            del relation._states[length:]
            if length:
                relation._times[-1] = t
                relation._states[-1] = state
            self._current[name] = state if length else Bag()
        self.writes = payload["writes"]

    def history(self, name: str) -> TimeVaryingRelation:
        """The full change-log of the stored answer."""
        return self._relations[name]

    def names(self) -> list[str]:
        return sorted(self._relations)


class StateHolder(Protocol):
    """Anything whose memory footprint the Scratch can account for."""

    @property
    def state_size(self) -> int: ...


class _Account:
    """One owner's page of the Scratch ledger."""

    __slots__ = ("holders", "settled")

    def __init__(self) -> None:
        self.holders: list[tuple[str, StateHolder]] = []
        #: Sum of the holders' sizes as of the owner's last settle —
        #: this owner's share of the ledger total.
        self.settled = 0


class Scratch:
    """Working-memory accounting for intermediate operator state.

    Operators (window buffers, join hash tables, aggregate groups) register
    here; the Scratch reports total and peak occupancy, which the Figure 3
    benchmark sweeps against window size.

    The Scratch is a ledger keyed by *owner* (the query, or the shared
    group, whose service path mutates the holders): whoever changes its
    holders' state calls :meth:`settle` afterwards, which re-reads only
    that owner's holders and folds the difference into the running
    :attr:`total`.  A service quantum therefore costs O(own operators),
    however many owners are registered.  :meth:`occupancy` is the full
    audit — it re-reads every holder — and equals :attr:`total` whenever
    every mutation has been settled.
    """

    def __init__(self) -> None:
        self._accounts: dict[Hashable, _Account] = {}
        #: The ledger's running total: what :meth:`occupancy` would
        #: return, without re-reading a holder.
        self.total = 0
        self.peak = 0

    def register(self, owner: Hashable, label: str,
                 holder: StateHolder) -> None:
        """Add ``holder`` to ``owner``'s account at its current size."""
        account = self._accounts.get(owner)
        if account is None:
            account = self._accounts[owner] = _Account()
        account.holders.append((label, holder))
        size = holder.state_size
        account.settled += size
        self.total += size

    def unregister(self, owner: Hashable) -> int:
        """Close ``owner``'s account: its holders leave the ledger and
        the audit at once.  Returns how many holders were dropped (0 for
        an unknown owner).

        Used when a query is cancelled, and when its physical operators
        are replaced wholesale (live rescale): the dead operators would
        otherwise keep their state in the occupancy number forever.
        """
        account = self._accounts.pop(owner, None)
        if account is None:
            return 0
        self.total -= account.settled
        return len(account.holders)

    def settle(self, owner: Hashable) -> int:
        """Re-read ``owner``'s holders, fold the change into the ledger
        total, refresh :attr:`peak` and return the total."""
        account = self._accounts.get(owner)
        if account is not None:
            size = 0
            for _, holder in account.holders:
                size += holder.state_size
            self.total += size - account.settled
            account.settled = size
        total = self.total
        if total > self.peak:
            self.peak = total
        return total

    def occupancy(self) -> int:
        """Total tuples currently held in registered operator state —
        the audit: every holder is re-read."""
        total = sum(holder.state_size
                    for account in self._accounts.values()
                    for _, holder in account.holders)
        if total > self.peak:
            self.peak = total
        return total

    def breakdown(self) -> dict[str, int]:
        """Occupancy per registered holder label."""
        out: dict[str, int] = {}
        for account in self._accounts.values():
            for label, holder in account.holders:
                out[label] = out.get(label, 0) + holder.state_size
        return out

    def __len__(self) -> int:
        return sum(len(account.holders)
                   for account in self._accounts.values())


class Throw:
    """The logical recycle bin: every expired/discarded tuple passes here.

    Keeps counts (and optionally the tuples themselves, for inspection)
    so tests can assert that windows really release state.
    """

    def __init__(self, keep_tuples: bool = False) -> None:
        self._keep = keep_tuples
        self._tuples: list[tuple[Any, Timestamp]] = []
        self.discarded = 0

    def discard(self, value: Any, t: Timestamp) -> None:
        self.discarded += 1
        if self._keep:
            self._tuples.append((value, t))

    def discard_many(self, n: int, t: Timestamp) -> None:
        """``n`` anonymous discards at instant ``t`` in one step."""
        if n <= 0:
            return
        self.discarded += n
        if self._keep:
            self._tuples.extend([(None, t)] * n)

    def tuples(self) -> Iterator[tuple[Any, Timestamp]]:
        if not self._keep:
            raise ValueError("Throw was created with keep_tuples=False")
        return iter(self._tuples)

    def __repr__(self) -> str:
        return f"Throw(discarded={self.discarded})"
