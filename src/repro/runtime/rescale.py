"""Live rescale: checkpoint-driven state migration across widths.

The survey's elasticity story (§4.2, ROADMAP item 4): a fissioned query
must be able to change its parallelism *without stopping* — no replay
from the beginning, no output divergence, a stall bounded by the state
volume actually moved.  :func:`rescale` does exactly that for a running
:class:`~repro.cql.executor.ContinuousQuery`, serial or fissioned:

1. **Barrier by instant.**  The migration runs at a quiescent instant
   boundary (between ``push_batch`` calls — the same barrier the chaos
   layer checkpoints at).  Nothing mid-instant may be in flight: staged
   arrivals or un-processed relation updates abort the migration rather
   than silently drop records.

2. **Recompile, re-key the partitions.**  The plan is compiled again at
   the target width.  For the partition boundary and each logical node
   below it, the node's operators in the old partitions give their
   keyed containers (:class:`~repro.cql.state.KeyedState`) to its
   operators in the new ones, each entry routed by the routing key's
   positions the partition scheme recorded for that node
   (:attr:`~repro.plan.parallel.PartitionScheme.positions`) through
   :func:`~repro.runtime.partitioning.key_router` — the placement
   arrivals are routed by, so a record's post-rescale owner is exactly
   the partition future arrivals with its key are routed to.  What is
   left per operator is its rekey rule.  A key's state moves
   *wholesale* (window buffers, join index buckets, group accumulators),
   so per-key processing order — and therefore every future emission —
   is identical to a never-rescaled run.  Broadcast state (stream-free
   join sides, base relations) is replicated to every target, as the
   scheme requires.

3. **Everything else stays.**  The operators above the boundary run once
   whatever the width, so their state moves across by reference; the
   agenda, maintained state and change-log are the query's own and are
   not touched at all.  The new operators keep no recovery image, so no
   checkpoint taken before the rescale restores after it, and the
   query's next checkpoint writes all of its state.

The migration only reads the running operators and writes the freshly
compiled ones, which replace them at the end; a failed rescale leaves
the query running at its old width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.errors import StateError
from repro.core.time import Timestamp
from repro.cql.state import KeyedState, copy_sized
from repro.plan.ir import LogicalOp, walk
from repro.plan.parallel import BROADCAST
from repro.runtime.partitioning import key_router

__all__ = ["RescaleError", "RescaleReport", "rescale"]


class RescaleError(StateError):
    """A running query's state could not be migrated to the target width."""


@dataclass(frozen=True)
class RescaleReport:
    """What one live rescale did — the bench's stall/volume evidence."""

    parallelism_from: int
    parallelism_to: int
    #: The migration instant: the newest instant the query had evaluated
    #: (None when nothing had been processed yet).
    instant: Timestamp | None
    #: State entries re-keyed across partitions (window tuples, join
    #: index rows, aggregate groups and rows).
    migrated_entries: int
    #: Wall-clock stall: how long the query was frozen mid-migration.
    seconds: float


def rescale(query: Any, parallelism: int) -> RescaleReport:
    """Migrate a running query to a new width, in place.

    The query object keeps its identity (engine handles, scratch
    registrations and difftest drivers hold references to it); only its
    physical tree is swapped.  Returns a :class:`RescaleReport`; raises
    :class:`~repro.core.errors.PlanError` for a plan that is not
    key-partitionable and :class:`RescaleError` — leaving the query
    untouched — when the state cannot be migrated.
    """
    from repro.cql import executor as cqlexec  # runtime<->cql import cycle

    if parallelism < 1:
        raise RescaleError(f"parallelism must be >= 1, got {parallelism}")
    if query.group.memo is not None:
        raise RescaleError(
            "shared-group queries cannot be repartitioned: their operator "
            "state interleaves with other members'")
    started_at = time.perf_counter()
    if parallelism == query.parallelism:
        return RescaleReport(query.parallelism, parallelism, None, 0,
                             time.perf_counter() - started_at)
    # A width above 1 on either side: whichever compile fissioned the
    # plan proved it partitionable (compile_plan raises PlanError if not).
    compiled = cqlexec.compile_plan(query.plan, query.catalog,
                                    query.group.agenda,
                                    parallelism=parallelism)
    scheme = compiled[4] or query._scheme
    boundary = scheme.boundary
    migration = _Migration(scheme.positions, parallelism, cqlexec)
    old_map, new_map = query._phys_by_logical, compiled[3]
    done: set[int] = set()
    # Children before parents: an operator that runs several nodes (a
    # window source its scan and pushed filters, a join the chain fused
    # into it) is met first at the node whose rows its state holds.
    for node in reversed(list(walk(boundary))):
        news = new_map[id(node)]
        if id(news[0]) not in done:
            done.add(id(news[0]))
            migration.move(node, old_map[id(node)], news)
    spines = zip(_spine(query._root, old_map[id(boundary)]),
                 _spine(compiled[0], new_map[id(boundary)]))
    for old, new in spines:
        _carry(old, new, private=False)

    width = query.parallelism
    query._install(compiled, parallelism)
    return RescaleReport(width, parallelism, query.group._cursor,
                         migration.moved, time.perf_counter() - started_at)


def _carry(old: Any, new: Any, private: bool) -> None:
    """Put the state of ``old`` (an operator or a keyed container) on
    ``new``: by reference when ``old`` retires with the rescale, else
    (``private``) as copies made entry by entry, as a barrier copies
    them.  ``new`` keeps no recovery image, so the query's next barrier
    writes every key."""
    if old.__class__ is KeyedState:
        new.data = ({key: copy_sized(value)[0]
                     for key, value in old.data.items()}
                    if private else old.data)
        new.tally = old.tally
        return
    for attr in old._STATE_ATTRS:
        value = getattr(old, attr)
        if value.__class__ is KeyedState:
            _carry(value, getattr(new, attr), private)
        else:
            setattr(new, attr, copy_sized(value)[0] if private else value)
    for tally in old._TALLIES:
        setattr(new, tally, getattr(old, tally))


def _spine(root: Any, partition_roots: list[Any]) -> list[Any]:
    """The operators above the partitions, root first: the unary chain
    down to the partition boundary, or to the union above the boundary's
    copies (the one operator with several children on the way)."""
    stop = {id(op) for op in partition_roots}
    out, cursor = [], root
    while id(cursor) not in stop and len(cursor.children) == 1:
        out.append(cursor)
        cursor = cursor.children[0]
    return out


class _Migration:
    """One rescale's state moves, old partitions → new width."""

    def __init__(self, positions: Mapping[int, Any], parallelism: int,
                 cqlexec: Any) -> None:
        self.positions = positions
        self.n = parallelism
        self.ex = cqlexec
        self.moved = 0

    def _split(self, olds: list[Any], news: list[Any],
               attrs: tuple[str, ...],
               route: Callable[[Any, Any], int]) -> None:
        """Split each keyed container ``attrs`` of the old copies into the
        new copies' (see :meth:`~repro.cql.state.KeyedState.split`)."""
        for attr in attrs:
            targets = [getattr(new, attr) for new in news]
            for old in olds:
                self.moved += getattr(old, attr).split(targets, route)

    @staticmethod
    def _replicate(olds: list[Any], news: list[Any],
                   verify: Callable[[Any], Any] | None = None) -> None:
        """Broadcast state (operators or containers): every target gets
        a copy of old partition 0's.  ``verify`` reads what must agree
        across the old partitions."""
        if verify is not None and any(verify(old) != verify(olds[0])
                                      for old in olds[1:]):
            raise RescaleError(
                "broadcast state diverged across partitions; cannot migrate")
        for new in news:
            _carry(olds[0], new, private=True)

    def move(self, node: LogicalOp, olds: list[Any],
             news: list[Any]) -> None:
        """The state of the operator running ``node``, from its copies in
        the old partitions to its (freshly compiled) copies in the target
        partitions."""
        ex, op = self.ex, news[0]
        name = type(op).__name__
        at = self.positions[id(node)]
        if isinstance(op, ex.RelationSourceOp):
            if any(old._staged for old in olds):
                raise RescaleError(
                    f"{name} has staged relation updates; rescale only at "
                    f"an instant boundary")
            self._replicate(olds, news, verify=lambda op: op._initial)
        elif isinstance(op, ex.JoinOp):
            self._move_join(olds, news)
        elif at is BROADCAST:
            self._replicate(olds, news)
        elif isinstance(op, ex.StreamSourceOp):
            self._move_stream_source(key_router(at, self.n), olds, news)
        elif isinstance(op, ex.GroupWindowSourceOp):
            self._move_group_window_source(key_router(at, self.n), olds,
                                           news)
        elif isinstance(op, ex.AggregateOp):
            route = key_router(at, self.n)
            # A group's accumulators and row move whole: a group lives
            # wholly inside one partition, before and after.  A group's
            # key holds its output row's leading columns, except that a
            # one-column key is the bare value, routed as itself (a
            # group window's key always has its bounds too).
            bare = type(op) is ex.AggregateOp and len(node.group_by) == 1
            self._split(olds, news, ("_groups", "_current_rows"),
                        lambda group, _: route((group,) if bare else group))
        elif op._STATE_ATTRS:
            raise RescaleError(f"{name} has no rekey rule for its state")
        # The tallies are global, not per-key: keep the totals on target
        # 0 so engine-level work counters and explain_analyze's source
        # selectivities stay monotone.
        for tally in op._TALLIES:
            setattr(news[0], tally, sum(getattr(old, tally) for old in olds))
            for new in news[1:]:
                setattr(new, tally, 0)
        if isinstance(op, ex.StreamSourceOp):
            for new in news:
                new._order_expiries()

    def _move_stream_source(self, route: Callable[[Any], int],
                            olds: list[Any], news: list[Any]) -> None:
        name = type(news[0]).__name__
        if any(old._staged or old._arrived for old in olds):
            raise RescaleError(
                f"{name} has staged arrivals; rescale only at an instant "
                f"boundary")
        if any(old._fifo for old in olds):
            # Unreachable behind a partitionability proof: [Rows n]
            # windows are never keyed.
            raise RescaleError(
                "[Rows n] windows depend on global arrival order and do "
                "not rescale")
        # The window's partition columns contain the routing key, so a
        # [Partition By] FIFO lands whole in one target.
        self._split(olds, news, ("_expiries", "_per_key"),
                    lambda key, values: route(values))
        for old in olds:
            for attr in ("_pending", "_visible"):
                for entry in getattr(old, attr):
                    getattr(news[route(entry[0])], attr).append(entry)
                    self.moved += 1
        news[0].evicted = sum(old.evicted for old in olds)

    def _move_group_window_source(self, route: Callable[[Any], int],
                                  olds: list[Any], news: list[Any]) -> None:
        """An open window's rows split by the stream's key, and each
        target that then holds rows of a window holds its span too.  A
        session is keyed by its group columns, which contain the routing
        key, so it lands whole in one target; a tumble or hop window's
        rows spread over the targets, as arrivals would have."""
        if any(old._staged or old._arrived for old in olds):
            raise RescaleError(
                f"{type(news[0]).__name__} has staged arrivals; rescale "
                f"only at an instant boundary")
        self._split(olds, news, ("_rows",),
                    lambda key, values: route(values))
        spans = {key: span for old in olds
                 for key, span in old._spans.data.items()}
        for new in news:
            new._spans.data = {key: spans[key] for key in new._rows.data}
            new._spans._recount()
        news[0].evicted = sum(old.evicted for old in olds)

    def _move_join(self, olds: list[Any], news: list[Any]) -> None:
        """Each input's index, re-keyed by the routing key's positions in
        that input's rows: a join compiled from a chain of joins is met
        at its lowest join, so the inputs are read off the operator."""
        op = news[0]
        for attr, child in zip(op._STATE_ATTRS, op.inputs):
            at = self.positions[id(child)]
            if at is BROADCAST:
                self._replicate([getattr(old, attr) for old in olds],
                                [getattr(new, attr) for new in news],
                                verify=lambda state: state.data)
                continue
            route = key_router(at, self.n)
            self._split(olds, news, (attr,),
                        lambda key, item, route=route: route(item))
