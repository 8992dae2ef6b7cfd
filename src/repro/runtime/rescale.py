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
   the target width.  Below the partition boundary, each operator's
   keyed containers (:class:`~repro.cql.state.KeyedState`) in every old
   partition split into the new partitions' copies, routed by the
   planner's key annotations (:func:`repro.plan.parallel.key_annotations`)
   and :func:`~repro.runtime.partitioning.partition_of` — the placement
   every routing layer uses, so a record's post-rescale owner is exactly
   the partition future arrivals with its key are routed to.  What is
   left per operator is its routing rule.  A key's state moves
   *wholesale* (window buffers, join index buckets, group accumulators),
   so per-key processing order — and therefore every future emission —
   is identical to a never-rescaled run.  Broadcast state (stream-free
   join sides, base relations) is replicated to every target, as the
   scheme requires.

3. **Everything else stays.**  The operators above the boundary run once
   whatever the width, so their state moves across by reference; the
   agenda, maintained state, change-log and emissions are the query's
   own and are not touched at all.  The new operators keep no recovery
   image, so no checkpoint taken before the rescale restores after it,
   and the query's next checkpoint writes all of its state.

The migration only reads the running operators and writes the freshly
compiled ones, which replace them at the end; a failed rescale leaves
the query running at its old width.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.errors import StateError
from repro.core.time import Timestamp
from repro.cql.state import KeyedState, copy_sized
from repro.plan.ir import (
    Aggregate,
    Distinct,
    Join,
    LogicalOp,
    SetOp,
    StreamScan,
    WindowAggregate,
    scans_of,
    walk,
)
from repro.plan.parallel import BROADCAST, PartitionScheme, key_annotations
from repro.runtime.partitioning import partition_of

__all__ = ["RescaleError", "RescaleReport", "rescale"]

#: Distinct from BROADCAST (which is None): an operator the key analysis
#: never reached, i.e. no recoverable routing key for its state.
_MISSING = object()


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
    #: index rows, aggregate groups and rows, distinct/set-op records).
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
    if query._shared is not None:
        raise RescaleError(
            "shared-group queries cannot be repartitioned: their operator "
            "state interleaves with other members'")
    started_at = time.perf_counter()
    if parallelism == query.parallelism:
        return RescaleReport(query.parallelism, parallelism, None, 0,
                             time.perf_counter() - started_at)
    # A width above 1 on either side: whichever compile fissioned the
    # plan proved it partitionable (compile_plan raises PlanError if not).
    compiled = cqlexec.compile_plan(query.plan, query.catalog, query._agenda,
                                    parallelism=parallelism)
    scheme = compiled[4] or query._scheme
    boundary = scheme.boundary
    migration = _Migration(scheme, key_annotations(query.plan, scheme),
                           parallelism, query.plan, compiled[3], cqlexec)
    old_roots = query._phys_by_logical[id(boundary)]
    new_roots = compiled[3][id(boundary)]
    old_parts = [_subtree(root) for root in old_roots]
    new_parts = [_subtree(root) for root in new_roots]
    migration.check_quiescent([op for part in old_parts for op in part])

    for position in range(len(new_parts[0])):
        migration.move([part[position] for part in old_parts],
                       [part[position] for part in new_parts])
    spines = zip(_spine(query._root, old_roots),
                 _spine(compiled[0], new_roots))
    for old, new in spines:
        _carry(old, new, private=False)

    width = query.parallelism
    query._install(compiled, parallelism)
    return RescaleReport(width, parallelism, query._last_instant,
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
    new.emitted, new.received = old.emitted, old.received


def _subtree(root: Any) -> list[Any]:
    """A partition's operators, depth-first — the same positions in every
    copy of the partition, whatever the width."""
    out, stack = [], [root]
    while stack:
        op = stack.pop()
        out.append(op)
        stack.extend(reversed(op.children))
    return out


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

    def __init__(self, scheme: PartitionScheme,
                 annotations: Mapping[int, Any], parallelism: int,
                 plan: LogicalOp, node_map: Mapping[int, list[Any]],
                 cqlexec: Any) -> None:
        self.scheme = scheme
        self.ann = annotations
        self.n = parallelism
        self.ex = cqlexec
        self.moved = 0
        logical_by_id = {id(node): node for node in walk(plan)}
        self._nodes_of_phys: dict[int, list[LogicalOp]] = defaultdict(list)
        for node_id, ops in node_map.items():
            for op in ops:
                self._nodes_of_phys[id(op)].append(logical_by_id[node_id])

    # -- shared helpers ------------------------------------------------------

    def _router(self, positions: list[int]) -> Callable[[tuple], int]:
        """The target partition of a values tuple, by its values at
        ``positions``."""
        n = self.n

        def route(values: tuple) -> int:
            # Single-column keys hash the bare value, matching
            # PartitionScheme.key_for, which arrivals are routed by.
            if len(positions) == 1:
                return partition_of(values[positions[0]], n)
            return partition_of(tuple(values[p] for p in positions), n)
        return route

    def _node_for(self, op: Any, kinds: tuple[type, ...]) -> LogicalOp:
        for node in self._nodes_of_phys.get(id(op), ()):
            if isinstance(node, kinds):
                return node
        raise RescaleError(
            f"no logical node of kind {kinds} for {type(op).__name__}")

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

    # -- quiescence ----------------------------------------------------------

    def check_quiescent(self, ops: list[Any]) -> None:
        for op in ops:
            name = type(op).__name__
            if isinstance(op, self.ex.StreamSourceOp):
                if op._staged or op._arrived:
                    raise RescaleError(
                        f"{name} has staged arrivals; rescale only at "
                        f"an instant boundary")
            elif isinstance(op, self.ex.RelationSourceOp):
                if op._staged:
                    raise RescaleError(
                        f"{name} has staged relation updates; rescale "
                        f"only at an instant boundary")

    # -- operator state ------------------------------------------------------

    def move(self, olds: list[Any], news: list[Any]) -> None:
        """One operator's state, from its copies in the old partitions to
        its (freshly compiled) copies in the target partitions."""
        ex, op = self.ex, news[0]
        name = type(op).__name__
        if isinstance(op, ex.StreamSourceOp):
            self._move_stream_source(olds, news)
        elif isinstance(op, ex.RelationSourceOp):
            self._replicate(olds, news,
                            verify=lambda op: (op._initial, op._staged))
        elif op._STATE_ATTRS:
            node = self._node_for(op, (Join, Aggregate, WindowAggregate,
                                       Distinct, SetOp))
            if isinstance(node, SetOp) and not all(
                    any(isinstance(s, StreamScan) for s in scans_of(child))
                    for child in node.children):
                raise RescaleError(
                    f"{name}: a stream-free set-op side is replicated per "
                    f"partition and cannot be re-keyed")
            keys = self.ann.get(id(node), _MISSING)
            if keys is BROADCAST:
                self._replicate(olds, news)
            elif isinstance(node, Join):  # covers AppendOnlyJoinOp
                self._move_join(op, node, olds, news)
            elif keys is _MISSING:
                raise RescaleError(f"{name}: no recoverable routing key")
            elif isinstance(op, ex.AggregateOp):
                route = self._router(
                    [node.group_names.index(key) for key in keys])
                # A group's accumulators and row move whole: a group
                # lives wholly inside one partition, before and after.
                self._split(olds, news, ("_groups", "_current_rows"),
                            lambda group, _: route(group))
            else:  # distinct counts and set-op sides, keyed by record
                route = self._router(
                    [node.schema.index_of(column) for column in keys])
                self._split(olds, news, op._STATE_ATTRS,
                            lambda record, _: route(record.values))
        # Lifetime accounting is global, not per-key: keep the totals on
        # target 0 so engine-level work counters stay monotone.
        for attr in ("emitted", "received"):
            setattr(news[0], attr, sum(getattr(old, attr) for old in olds))
            for new in news[1:]:
                setattr(new, attr, 0)

    def _move_stream_source(self, olds: list[Any],
                            news: list[Any]) -> None:
        if any(old._fifo for old in olds):
            # Unreachable behind a partitionability proof: [Rows n]
            # windows are never keyed.
            raise RescaleError(
                "[Rows n] windows depend on global arrival order and do "
                "not rescale")
        route = self._router(self.scheme.stream_keys[news[0].scan.name])
        # The window's partition columns contain the routing key, so a
        # [Partition By] FIFO lands whole in one target.
        self._split(olds, news, ("_expiries", "_per_key"),
                    lambda key, record: route(record.values))
        for old in olds:
            for attr in ("_pending", "_visible"):
                for entry in getattr(old, attr):
                    getattr(news[route(entry[0].values)], attr).append(entry)
                    self.moved += 1
        news[0].evicted = sum(old.evicted for old in olds)
        # ``arrivals`` is lifetime accounting outside the checkpoint
        # protocol: keep the totals on partition 0, so explain_analyze's
        # source selectivities do not reset to zero mid-flight.
        news[0].arrivals = sum(old.arrivals for old in olds)

    def _move_join(self, op: Any, node: Join, olds: list[Any],
                   news: list[Any]) -> None:
        # An append-only index holds (record, multiplicity) pairs.
        pairs = isinstance(op, self.ex.AppendOnlyJoinOp)
        for attr, child in (("_left_state", node.left),
                            ("_right_state", node.right)):
            keys = self.ann.get(id(child), _MISSING)
            if keys is _MISSING:
                raise RescaleError(
                    f"join side {attr} has no recoverable routing key")
            if keys is BROADCAST:
                self._replicate([getattr(old, attr) for old in olds],
                                [getattr(new, attr) for new in news],
                                verify=lambda state: state.data)
                continue
            route = self._router(
                [child.schema.index_of(column) for column in keys])
            self._split(olds, news, (attr,),
                        lambda key, item, route=route:
                        route((item[0] if pairs else item).values))
