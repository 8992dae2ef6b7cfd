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
   the target width.  Each operator below the partition boundary is
   checkpointed in every old partition (the ``snapshot()/restore()``
   protocol) and its state split by the *target* width using the
   planner's key annotations (:func:`repro.plan.parallel.key_annotations`)
   and :func:`~repro.runtime.partitioning.partition_of` — the placement
   every routing layer uses, so a record's post-rescale owner is exactly
   the partition future arrivals with its key are routed to.  A key's
   state moves *wholesale* (window buffers, join index buckets, group
   accumulators), so per-key processing order — and therefore every
   future emission — is identical to a never-rescaled run.  Broadcast
   state (stream-free join sides, base relations) is replicated to every
   target, as the scheme requires.

3. **Everything else stays.**  The operators above the boundary run once
   whatever the width, so their state is copied across unchanged; the
   agenda, maintained state, change-log and emissions are the query's
   own and are not touched at all.

The migration never mutates the query until every payload has been
built and restored into the new operators; a failed rescale leaves the
query running at its old width.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.errors import StateError
from repro.core.time import Timestamp
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
    #: index rows, aggregate groups, distinct/set-op records).
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

    restores: list[tuple[Any, Mapping[str, Any]]] = []
    for position, template in enumerate(new_parts[0]):
        payloads = migration.rekey_op(
            type(template).__name__, template,
            [part[position].snapshot() for part in old_parts])
        restores.extend((part[position], payload)
                        for part, payload in zip(new_parts, payloads))
    spines = zip(_spine(query._root, old_roots),
                 _spine(compiled[0], new_roots))
    restores.extend((new, old.snapshot()) for old, new in spines)
    for op, payload in restores:
        op.restore(payload)
    # ``arrivals`` is lifetime accounting outside the checkpoint protocol:
    # keep the totals on partition 0, so explain_analyze's source
    # selectivities do not reset to zero mid-flight.
    for position, op in enumerate(new_parts[0]):
        if isinstance(op, cqlexec.StreamSourceOp):
            op.arrivals = sum(part[position].arrivals for part in old_parts)

    width = query.parallelism
    query._install(compiled, parallelism)
    return RescaleReport(width, parallelism, query._last_instant,
                         migration.moved, time.perf_counter() - started_at)


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
    """One rescale's worth of payload surgery, old partitions → new width."""

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

    def _route(self, components: tuple) -> int:
        # Single-column keys hash the bare value, matching
        # PartitionScheme.key_for, which arrivals are routed by.
        key = components[0] if len(components) == 1 else components
        return partition_of(key, self.n)

    def _blank(self) -> list[dict[str, Any]]:
        return [{} for _ in range(self.n)]

    def _node_for(self, op: Any, kinds: tuple[type, ...]) -> LogicalOp:
        for node in self._nodes_of_phys.get(id(op), ()):
            if isinstance(node, kinds):
                return node
        raise RescaleError(
            f"no logical node of kind {kinds} for {type(op).__name__}")

    def _spread_counters(self, news: list[dict[str, Any]],
                         olds: list[Mapping[str, Any]]) -> None:
        # Lifetime accounting is global, not per-key: keep the totals on
        # target 0 so engine-level work/eviction counters stay monotone.
        for attr in ("emitted", "received"):
            news[0][attr] = sum(old[attr] for old in olds)
            for payload in news[1:]:
                payload[attr] = 0

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

    def rekey_op(self, name: str, op: Any,
                 olds: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """One operator's old per-partition payloads → per-*target*
        payloads (``op`` is the operator's copy in target partition 0)."""
        ex = self.ex
        if isinstance(op, ex.StreamSourceOp):
            return self._rekey_stream_source(op, olds)
        if isinstance(op, ex.RelationSourceOp):
            return self._broadcast(op, olds, verify=("_initial", "_staged"))
        if isinstance(op, (ex.FilterOp, ex.ProjectOp)):
            news = self._blank()
            self._spread_counters(news, olds)
            return news
        if isinstance(op, ex.JoinOp):  # covers AppendOnlyJoinOp
            node = self._node_for(op, (Join,))
            if self.ann.get(id(node), _MISSING) is BROADCAST:
                return self._broadcast(op, olds)
            return self._rekey_join(op, node, olds)
        if isinstance(op, ex.AggregateOp):
            node = self._node_for(op, (Aggregate, WindowAggregate))
            keys = self.ann.get(id(node), _MISSING)
            if keys is BROADCAST:
                return self._broadcast(op, olds)
            if keys is _MISSING:
                raise RescaleError(f"{name}: no recoverable routing key")
            return self._rekey_aggregate(node, keys, olds)
        if isinstance(op, ex.DistinctOp):  # covers AppendOnlyDistinctOp
            node = self._node_for(op, (Distinct,))
            return self._rekey_records(
                name, op, node, olds,
                attrs=("_seen",) if isinstance(op, ex.AppendOnlyDistinctOp)
                else ("_counts",))
        if isinstance(op, ex.SetOpOp):
            node = self._node_for(op, (SetOp,))
            for child in node.children:
                if not any(isinstance(s, StreamScan)
                           for s in scans_of(child)):
                    raise RescaleError(
                        f"{name}: a stream-free set-op side is replicated "
                        f"per partition and cannot be re-keyed")
            return self._rekey_records(name, op, node, olds,
                                       attrs=("_left", "_right", "_out"))
        if op._STATE_ATTRS:
            raise RescaleError(
                f"{name}: no migration rule for {type(op).__name__}")
        news = self._blank()
        self._spread_counters(news, olds)
        return news

    def _broadcast(self, op: Any, olds: list[Mapping[str, Any]],
                   verify: tuple[str, ...] = ()) -> list[dict[str, Any]]:
        """Replicated state: every target gets old partition 0's copy.

        ``restore`` deep-copies payloads, so sharing the source object
        across targets is safe.  Only cheaply value-comparable attrs are
        verified identical across the old partitions.
        """
        for attr in verify:
            reference = olds[0][attr]
            for old in olds[1:]:
                if old[attr] != reference:
                    raise RescaleError(
                        f"broadcast state diverged across partitions "
                        f"({attr}); cannot migrate")
        news = self._blank()
        for payload in news:
            for attr in op._STATE_ATTRS:
                payload[attr] = olds[0][attr]
        self._spread_counters(news, olds)
        return news

    def _rekey_stream_source(self, op: Any, olds: list[Mapping[str, Any]]) \
            -> list[dict[str, Any]]:
        indices = self.scheme.stream_keys[op.scan.name]

        def owner(record):
            return self._route(tuple(record.values[i] for i in indices))

        news = self._blank()
        for payload in news:
            payload.update(_staged=[], _expiries=defaultdict(list),
                           _fifo=deque(), _per_key=defaultdict(deque),
                           _pending=[], _visible=[], _arrived=False,
                           evicted=0, _buffered=0)
        for old in olds:
            if old["_fifo"]:
                # Unreachable behind a partitionability proof: [Rows n]
                # windows are never keyed.
                raise RescaleError(
                    "[Rows n] windows depend on global arrival order and "
                    "do not rescale")
            for expiry, records in old["_expiries"].items():
                for record in records:
                    target = news[owner(record)]
                    target["_expiries"][expiry].append(record)
                    target["_buffered"] += 1
            for window_key, queue in old["_per_key"].items():
                if not queue:
                    continue
                # The window's partition columns contain the routing key,
                # so the whole per-key FIFO shares one owner.
                target = news[owner(queue[0])]
                target["_per_key"][window_key].extend(queue)
                target["_buffered"] += len(queue)
            for entry in old["_pending"]:
                target = news[owner(entry[0])]
                target["_pending"].append(entry)
                target["_buffered"] += 1
            for entry in old["_visible"]:
                target = news[owner(entry[0])]
                target["_visible"].append(entry)
                target["_buffered"] += 1
        # Every buffered tuple moved exactly once; the targets' O(1)
        # state_size tallies are the counts of what each received.
        self.moved += sum(payload["_buffered"] for payload in news)
        news[0]["evicted"] = sum(old["evicted"] for old in olds)
        self._spread_counters(news, olds)
        return news

    def _rekey_join(self, op: Any, node: Join,
                    olds: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
        append_only = isinstance(op, self.ex.AppendOnlyJoinOp)
        news = self._blank()
        for payload in news:
            payload["_left_state"] = defaultdict(Counter)
            payload["_right_state"] = defaultdict(Counter)
            if append_only:
                payload["_left_index"] = defaultdict(list)
                payload["_right_index"] = defaultdict(list)
        sides = (("_left_state", "_left_index", node.left),
                 ("_right_state", "_right_index", node.right))
        for state_attr, index_attr, child in sides:
            keys = self.ann.get(id(child), _MISSING)
            if keys is _MISSING:
                raise RescaleError(
                    f"join side {state_attr} has no recoverable routing key")
            if keys is BROADCAST:
                attrs = (state_attr, index_attr) if append_only \
                    else (state_attr,)
                for attr in attrs:
                    reference = olds[0][attr]
                    for old in olds[1:]:
                        if old[attr] != reference:
                            raise RescaleError(
                                f"broadcast join state diverged across "
                                f"partitions ({attr}); cannot migrate")
                    for payload in news:
                        payload[attr] = olds[0][attr]
                continue
            positions = [child.schema.index_of(column) for column in keys]

            def owner(record, positions=positions):
                return self._route(
                    tuple(record.values[p] for p in positions))

            for old in olds:
                for bucket, counter in old[state_attr].items():
                    for record, mult in counter.items():
                        news[owner(record)][state_attr][bucket][record] \
                            += mult
                        self.moved += 1
                if append_only:
                    for bucket, entries in old[index_attr].items():
                        for record, mult in entries:
                            news[owner(record)][index_attr][bucket] \
                                .append((record, mult))
                            self.moved += 1
        for payload in news:
            # The O(1) state_size tally, re-derived for the new shape
            # (a broadcast side is held in full by every target).
            counted = sum(
                sum(counter.values())
                for attr in ("_left_state", "_right_state")
                for counter in payload[attr].values())
            listed = sum(
                mult
                for attr in ("_left_index", "_right_index")
                for entries in payload.get(attr, {}).values()
                for _, mult in entries)
            payload["_held"] = counted + listed
        self._spread_counters(news, olds)
        return news

    def _rekey_aggregate(self, node: Aggregate | WindowAggregate,
                         keys: tuple[str, ...],
                         olds: list[Mapping[str, Any]]) \
            -> list[dict[str, Any]]:
        positions = [node.group_names.index(key) for key in keys]
        news = self._blank()
        for payload in news:
            payload.update(_groups={}, _current_rows={}, _child_active=False)
        for old in olds:
            for group, state in old["_groups"].items():
                target = news[self._route(
                    tuple(group[p] for p in positions))]
                # The whole accumulator moves: a group lives wholly inside
                # one partition, before and after.
                target["_groups"][group] = state
                row = old["_current_rows"].get(group)
                if row is not None:
                    target["_current_rows"][group] = row
                self.moved += 1
        self._spread_counters(news, olds)
        return news

    def _rekey_records(self, name: str, op: Any, node: LogicalOp,
                       olds: list[Mapping[str, Any]],
                       attrs: tuple[str, ...]) -> list[dict[str, Any]]:
        """Re-key per-record state (distinct counters, set-op sides)."""
        keys = self.ann.get(id(node), _MISSING)
        if keys is BROADCAST:
            return self._broadcast(op, olds)
        if keys is _MISSING:
            raise RescaleError(f"{name}: no recoverable routing key")
        positions = [node.schema.index_of(column) for column in keys]
        news = self._blank()
        for payload in news:
            for attr in attrs:
                payload[attr] = (set() if attr == "_seen" else Counter())
        for old in olds:
            for attr in attrs:
                if attr == "_seen":
                    for record in old[attr]:
                        target = self._route(
                            tuple(record.values[p] for p in positions))
                        news[target][attr].add(record)
                        self.moved += 1
                else:
                    for record, count in old[attr].items():
                        target = self._route(
                            tuple(record.values[p] for p in positions))
                        news[target][attr][record] += count
                        self.moved += 1
        self._spread_counters(news, olds)
        return news
