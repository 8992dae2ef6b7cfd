"""Live rescale: checkpoint-driven state migration across widths.

The survey's elasticity story (§4.2, ROADMAP item 4): a fissioned query
must be able to change its parallelism *without stopping* — no replay
from the beginning, no output divergence, a stall bounded by the state
volume actually moved.  :func:`rescale` does exactly that for a running
:class:`~repro.cql.parallel.PartitionedQuery`:

1. **Barrier-by-instant checkpoint.**  At a quiescent instant boundary
   (between ``push_batch`` calls — the same barrier the chaos layer
   checkpoints at) every replica is snapshotted via the existing
   ``snapshot()/restore()`` protocol.  Nothing mid-instant may be in
   flight: staged arrivals or un-processed relation updates abort the
   migration rather than silently drop records.

2. **State re-keying.**  Each operator's checkpointed state is split by
   the *target* width using the planner's key annotations
   (:func:`repro.plan.parallel.key_annotations`) and the shared
   :func:`~repro.runtime.broker.default_hash` placement — the same hash
   every routing layer uses, so a record's post-rescale owner is exactly
   the replica future arrivals with its key will be routed to.  A key's
   state moves *wholesale* (window buffers, join index buckets, group
   accumulators), so per-key processing order — and therefore every
   future emission — is identical to a never-rescaled run at the target
   width.  Broadcast state (stream-free join sides, base relations) is
   replicated to every target, as the scheme requires.

3. **Driver reconstruction.**  A replica's maintained relation state
   cannot always be split record-by-record — the spine above the
   partition boundary may project the routing key away.  Instead each
   target's driver state is *recomputed* from its re-keyed boundary
   state (group current-rows, join index products) pushed functionally
   through the stateless spine, and a conservation check pins the union
   of target states to the union of source states before anything is
   swapped in.  The change-log is re-seeded so ``as_relation()`` still
   reports the exact pre-rescale history.

The migration never mutates the query until every payload has been
built and verified; a failed rescale leaves the query running at its
old width.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.errors import StateError
from repro.core.relation import Bag
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
from repro.plan.parallel import (
    BROADCAST,
    key_annotations,
    partition_boundary,
)
from repro.runtime.broker import default_hash

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
    #: The migration instant: the last instant the old replicas applied a
    #: net change at (None when nothing had been processed yet).
    instant: Timestamp | None
    #: State entries re-keyed across partitions (window tuples, join
    #: index rows, aggregate groups, distinct/set-op records).
    migrated_entries: int
    #: Wall-clock stall: how long the query was frozen mid-migration.
    seconds: float


def rescale(query: Any, parallelism: int) -> RescaleReport:
    """Migrate a running :class:`PartitionedQuery` to a new width, in place.

    The query object keeps its identity (engine handles, scratch
    registrations and difftest drivers hold references to it); only its
    replica set is swapped.  Returns a :class:`RescaleReport`; raises
    :class:`RescaleError` — leaving the query untouched — when the state
    cannot be migrated.
    """
    from repro.cql import executor as cqlexec  # runtime<->cql import cycle

    if parallelism < 1:
        raise RescaleError(f"parallelism must be >= 1, got {parallelism}")
    started_at = time.perf_counter()
    if parallelism == query.parallelism:
        return RescaleReport(query.parallelism, parallelism, None, 0,
                             time.perf_counter() - started_at)

    annotations = key_annotations(query.plan)
    boundary = partition_boundary(query.plan)
    if annotations is None or boundary is None:
        raise RescaleError("plan is not key-partitionable; nothing to rescale")

    snaps = [replica.snapshot() for replica in query._replicas]
    replicas = [cqlexec.ContinuousQuery(query.plan, query.catalog)
                for _ in range(parallelism)]
    template = replicas[0]

    migration = _Migration(query, annotations, boundary, parallelism,
                           template, cqlexec)
    migration.check_quiescent(snaps)
    per_target_ops = migration.rekey_operators(snaps)
    payloads = migration.driver_payloads(snaps, per_target_ops)
    for replica, ops, driver in zip(replicas, per_target_ops, payloads):
        driver["operators"] = ops
        replica.restore(driver)
    migration.carry_accounting(query._replicas, replicas)

    instant = payloads[0]["last_instant"]
    query._replicas = replicas
    query.parallelism = parallelism
    query._stream_sources = replicas[0]._stream_sources
    query._relation_sources = replicas[0]._relation_sources
    return RescaleReport(len(snaps), parallelism, instant, migration.moved,
                         time.perf_counter() - started_at)


class _Migration:
    """One rescale's worth of payload surgery, old snapshots → new width."""

    def __init__(self, query: Any, annotations: Mapping[int, Any],
                 boundary: tuple[LogicalOp, tuple[str, ...], str],
                 parallelism: int, template: Any, cqlexec: Any) -> None:
        self.query = query
        self.scheme = query.scheme
        self.ann = annotations
        self.boundary = boundary
        self.n = parallelism
        self.template = template
        self.ex = cqlexec
        self.moved = 0
        logical_by_id = {id(node): node for node in walk(query.plan)}
        self._nodes_of_phys: dict[int, list[LogicalOp]] = defaultdict(list)
        for node_id, op in template._phys_by_logical.items():
            self._nodes_of_phys[id(op)].append(logical_by_id[node_id])

    # -- shared helpers ------------------------------------------------------

    def _route(self, components: tuple) -> int:
        # Single-column keys hash the bare value, matching
        # PartitionScheme.key_for / PartitionedQuery._route placement.
        key = components[0] if len(components) == 1 else components
        return default_hash(key) % self.n

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

    def check_quiescent(self, snaps: list[Mapping[str, Any]]) -> None:
        ops = self.template.operators()
        for snap in snaps:
            if snap["undelivered"]:
                raise RescaleError(
                    "undelivered emissions pending; drain before rescaling")
            for (name, op), payload in zip(ops, snap["operators"]):
                if isinstance(op, self.ex.StreamSourceOp):
                    if payload["_staged"] or payload["_arrived"]:
                        raise RescaleError(
                            f"{name} has staged arrivals; rescale only at "
                            f"an instant boundary")
                elif isinstance(op, self.ex.RelationSourceOp):
                    if payload["_staged"]:
                        raise RescaleError(
                            f"{name} has staged relation updates; rescale "
                            f"only at an instant boundary")

    # -- operator state ------------------------------------------------------

    def rekey_operators(self, snaps: list[Mapping[str, Any]]) \
            -> list[list[dict[str, Any]]]:
        """Old per-replica operator payloads → per-*target* payload lists."""
        per_op: list[list[dict[str, Any]]] = []
        operators = self.template.operators()
        for index, (name, op) in enumerate(operators):
            olds = [snap["operators"][index] for snap in snaps]
            per_op.append(self._rekey_op(name, op, olds))
        return [[per_op[i][k] for i in range(len(per_op))]
                for k in range(self.n)]

    def _rekey_op(self, name: str, op: Any,
                  olds: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
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
        """Replicated state: every target gets old replica 0's copy.

        ``restore`` deep-copies payloads, so sharing the source object
        across targets is safe.  Only cheaply value-comparable attrs are
        verified identical across the old replicas.
        """
        for attr in verify:
            reference = olds[0][attr]
            for old in olds[1:]:
                if old[attr] != reference:
                    raise RescaleError(
                        f"broadcast state diverged across replicas "
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
                                f"replicas ({attr}); cannot migrate")
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

    # -- driver state --------------------------------------------------------

    def driver_payloads(self, snaps: list[Mapping[str, Any]],
                        per_target_ops: list[list[dict[str, Any]]]) \
            -> list[dict[str, Any]]:
        """The non-operator half of each target's restore payload."""
        boundary_node = self.boundary[0]
        boundary_phys = self.template._phys_by_logical[id(boundary_node)]
        operators = self.template.operators()
        boundary_index = next(
            index for index, (_, op) in enumerate(operators)
            if op is boundary_phys)
        chain: list[Any] = []
        cursor = self.template._root
        while cursor is not boundary_phys:
            chain.append(cursor)
            if not cursor.children:
                raise RescaleError("spine walk did not reach the boundary")
            cursor = cursor.children[0]

        states: list[Bag] = []
        for target in range(self.n):
            bag = self._boundary_output(
                boundary_phys, per_target_ops[target][boundary_index])
            for op in reversed(chain):
                bag = self._apply_spine(op, bag)
            states.append(Bag.from_counts(
                {record: mult for record, mult in bag.items() if mult}))

        # Conservation: the union of the recomputed target states must be
        # exactly the union of the source states, or the migration is
        # wrong and must not be swapped in.
        source: Counter = Counter()
        for snap in snaps:
            for record, mult in snap["state"].items():
                source[record] += mult
        migrated: Counter = Counter()
        for state in states:
            for record, mult in state.items():
                migrated[record] += mult
        if source != migrated:
            raise RescaleError(
                "state conservation check failed: recomputed target states "
                "do not union to the checkpointed global state")

        instant = max((snap["last_instant"] for snap in snaps
                       if snap["last_instant"] is not None), default=None)
        merged_log = self.query._merged_log()
        merged_emissions = sorted(
            (emission for snap in snaps for emission in snap["emissions"]),
            key=lambda emission: emission.timestamp)
        scheduled: set[Timestamp] = set()
        for snap in snaps:
            scheduled.update(snap["agenda"]["scheduled"])

        payloads = []
        for target, state in enumerate(states):
            if instant is None:
                log: list[tuple[Timestamp, Bag]] = []
            elif target == 0:
                # Target 0 carries the merged pre-rescale history; every
                # target seeds its own share of the state at the migration
                # instant, so the per-instant union — what as_relation()
                # reports — is unchanged across the rescale.
                log = [(t, bag) for t, bag in merged_log if t < instant]
                log.append((instant, state))
            else:
                log = [(instant, state)]
            payloads.append({
                "agenda": {"heap": sorted(scheduled),
                           "scheduled": set(scheduled)},
                "state": state,
                "log": log,
                "emissions": list(merged_emissions) if target == 0 else [],
                "undelivered": [],
                "last_instant": instant,
                "deltas_processed": sum(snap["deltas_processed"]
                                        for snap in snaps)
                if target == 0 else 0,
            })
        return payloads

    def _boundary_output(self, op: Any,
                         payload: Mapping[str, Any]) -> Counter:
        """The boundary operator's current output, read from its payload."""
        ex = self.ex
        if isinstance(op, ex.AggregateOp):
            return Counter(payload["_current_rows"].values())
        if isinstance(op, ex.AppendOnlyJoinOp):
            return self._join_output(op, payload["_left_index"],
                                     payload["_right_index"],
                                     lambda entries: entries)
        if isinstance(op, ex.JoinOp):
            return self._join_output(op, payload["_left_state"],
                                     payload["_right_state"],
                                     lambda counter: counter.items())
        raise RescaleError(
            f"cannot read current output from {type(op).__name__}")

    def _join_output(self, op: Any, left: Mapping, right: Mapping,
                     entries_of: Any) -> Counter:
        out: Counter = Counter()
        for key, left_bucket in left.items():
            right_bucket = right.get(key)
            if not right_bucket:
                continue
            for left_record, left_mult in entries_of(left_bucket):
                for right_record, right_mult in entries_of(right_bucket):
                    joined = left_record.concat(right_record)
                    if op._residual is None or op._residual(joined):
                        out[joined] += left_mult * right_mult
        return out

    def _apply_spine(self, op: Any, bag: Counter) -> Counter:
        """One stateless spine operator, applied functionally to a bag."""
        ex = self.ex
        if isinstance(op, ex.FilterOp):
            return Counter({record: mult for record, mult in bag.items()
                            if op._predicate(record)})
        if isinstance(op, ex.ProjectOp):
            out: Counter = Counter()
            for record, mult in bag.items():
                out[op._mapper(record)] += mult
            return out
        if isinstance(op, ex.DistinctOp):  # covers AppendOnlyDistinctOp
            return Counter({record: 1 for record, mult in bag.items()
                            if mult > 0})
        raise RescaleError(
            f"cannot recompute driver state through {type(op).__name__}")

    # -- post-restore accounting --------------------------------------------

    def carry_accounting(self, old_replicas: list[Any],
                         new_replicas: list[Any]) -> None:
        """Keep lifetime arrival counts monotone across the swap.

        ``arrivals`` is deliberately outside the checkpoint protocol
        (lifetime accounting, not state), so it is carried over by hand —
        explain_analyze's source selectivities must not reset to zero
        mid-flight.
        """
        old_ops = [replica.operators() for replica in old_replicas]
        for index, (_, op) in enumerate(new_replicas[0].operators()):
            if isinstance(op, self.ex.StreamSourceOp):
                op.arrivals = sum(ops[index][1].arrivals for ops in old_ops)
