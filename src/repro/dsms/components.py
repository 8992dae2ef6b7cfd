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

from typing import Hashable, Protocol

from repro.core.errors import PlanError
from repro.core.records import Schema
from repro.core.relation import Bag, Changelog, TimeVaryingRelation


class Store:
    """Persistent result storage: one time-varying relation per query.

    The Store is what a client reads when it asks a DSMS for "the current
    answer" of a registered relation-producing query.  It keeps no answer
    or history of its own: each query's is the query's own
    :class:`~repro.core.relation.Changelog`
    (:attr:`ContinuousQuery.changelog`), registered once and held by
    reference — so a query's fold and rollback are the Store's too, and
    the answer and its history outlive a cancelled query without keeping
    its operators.  The log holds values tuples; a read labels them as
    Records of the schema the query registered (see
    :meth:`~repro.core.relation.Changelog.labelled`).
    """

    def __init__(self) -> None:
        self._logs: dict[str, tuple[Changelog, Schema | None]] = {}

    def register(self, name: str, log: Changelog,
                 schema: Schema | None = None) -> None:
        self._logs[name] = (log, schema)

    def _entry(self, name: str) -> tuple[Changelog, Schema | None]:
        entry = self._logs.get(name)
        if entry is None:
            raise PlanError(f"unknown query {name!r}")
        return entry

    def current(self, name: str) -> Bag:
        """The stored answer right now (a new Bag)."""
        log, schema = self._entry(name)
        return log.labelled(schema)

    def history(self, name: str) -> TimeVaryingRelation:
        """The stored answer's history, built now from the query's
        change-log (see :meth:`Changelog.relation`)."""
        log, schema = self._entry(name)
        return log.relation(schema)

    def names(self) -> list[str]:
        return sorted(self._logs)


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

    Keeps the count, so tests can assert that windows really release
    state.
    """

    def __init__(self) -> None:
        self.discarded = 0

    def discard_many(self, n: int) -> None:
        """``n`` discards in one step."""
        if n > 0:
            self.discarded += n

    def __repr__(self) -> str:
        return f"Throw(discarded={self.discarded})"
