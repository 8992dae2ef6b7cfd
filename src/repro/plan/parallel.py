"""Fission analysis: can a logical plan run key-partitioned, and by what?

The survey's data-parallelism story (§4.2) hinges on one question the
planner must answer *before* execution: is there a partition key K such
that records with different K-values never interact anywhere in the
plan?  If so, the query can be replicated N ways, each replica fed only
its share of the key space, and the merged replica outputs are exactly
the single-copy outputs — fission.  If not, parallel execution would
change the answer, and the only safe parallelism is 1.

:func:`partition_scheme` performs that analysis on the unified logical
IR.  It picks K at the topmost keyed boundary (a grouped aggregate's
GROUP BY, or an equi-join's key columns) and pushes K down the tree,
checking every operator on the way:

* per-record operators (filter, project onto bare columns, time-based
  windows) are transparent;
* a grouped aggregate is safe iff K ⊆ its group columns — then each
  group lives wholly inside one partition;
* an equi-join is safe iff K maps through the join condition, so both
  sides co-locate matching rows; a side with no stream scans is
  *broadcast* (relations are replicated to every partition) and needs no
  key;
* duplicate elimination and set operations only ever compare identical
  rows, which carry identical keys — safe when both sides resolve;
* ``[Rows n]`` windows depend on global arrival order across all keys —
  **not** partitionable; ``[Partition By … Rows n]`` is safe iff K ⊆ the
  window's partition columns;
* a SQL group window keeps each group's windows (and sessions) apart,
  so any K ⊆ its group columns is safe; with no ``GROUP BY`` there is
  no key, and the plan runs serially.

At each stream leaf K resolves to *positional* column indices, which is
what the executors need: routing happens on raw arrival tuples before
any alias qualification.  Relation leaves resolve to nothing — relation
updates broadcast to every partition.

A ``None`` result is a proof obligation failed, and callers must fall
back to parallelism 1; :func:`decide_parallelism` wraps that rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import SchemaError
from repro.plan.exprs import Column, WindowSpecKind
from repro.plan.ir import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    RelToStream,
    RelationScan,
    SetOp,
    StreamScan,
    WindowAggregate,
    WindowOp,
    scans_of,
    walk,
)

__all__ = ["PartitionScheme", "partition_scheme", "decide_parallelism",
           "key_annotations", "BROADCAST"]

#: Annotation marker for nodes in a stream-free (broadcast) subtree:
#: their state is replicated identically in every partition.
BROADCAST = None


@dataclass(frozen=True)
class PartitionScheme:
    """A proven key-partitioning of a logical plan.

    ``keys`` are the boundary's key column names (for explain output);
    ``stream_keys`` maps each scanned *stream name* to the positional
    indices of the routing key inside that stream's raw tuples.  Streams
    not in the mapping do not occur in the plan; relations always
    broadcast.

    ``boundary`` is the topmost keyed operator, the one whose key
    *defines* the partitioning: a grouped aggregate or an equi-join.
    Everything between it and the root is a per-record spine; everything
    below it carries the key on some column of every record.  A
    fissioned query compiles the subtree rooted here once per partition
    and runs the spine once, over the union of the copies' outputs
    (``repro.cql.executor.compile_plan``).
    """

    keys: tuple[str, ...]
    stream_keys: Mapping[str, tuple[int, ...]]
    origin: str
    boundary: LogicalOp = field(compare=False, repr=False)

    def key_for(self, stream: str, values: Sequence[Any]) -> Any:
        """The routing key of one raw arrival tuple on ``stream``."""
        indices = self.stream_keys[stream]
        if len(indices) == 1:
            return values[indices[0]]
        return tuple(values[i] for i in indices)

    def router(self, stream: str,
               partitions: int) -> Callable[[Sequence[Any]], int]:
        """Raw arrival tuple on ``stream`` → the index of the partition,
        out of ``partitions``, that owns its key."""
        # Lazy: the planner itself never needs the runtime package.
        from repro.runtime.partitioning import partition_of

        key_for = self.key_for
        return lambda values: partition_of(key_for(stream, values),
                                           partitions)

    def describe(self) -> str:
        per_stream = ", ".join(
            f"{name}[{','.join(map(str, idx))}]"
            for name, idx in sorted(self.stream_keys.items()))
        return f"partition by ({', '.join(self.keys)}) via {self.origin}: " \
            f"{per_stream or 'no stream inputs'}"


def partition_scheme(plan: LogicalOp) -> PartitionScheme | None:
    """The key-partitioning of ``plan``, or None when fission is unsound."""
    boundary = _boundary(plan)
    if boundary is None:
        return None
    node, keys, origin = boundary
    spine = _spine_of(plan, node)
    final = isinstance(node, WindowAggregate) and node.window is not None
    if any(isinstance(op, RelToStream) for op in spine) and not final:
        # Delta-shaped output (ISTREAM/DSTREAM/RSTREAM): merged replica
        # emissions are only the serial emissions when every output row
        # still carries its partition key — otherwise rows from different
        # partitions can collide in value, and cross-key cancellation the
        # serial bag performs never happens in the merge.  For a join
        # boundary either side's key columns qualify: the equi-join pins
        # them equal in every output row.  A group window only inserts
        # (each window's final row, once): nothing cancels.
        candidates = ([node.left_keys, node.right_keys]
                      if isinstance(node, Join) else [keys])
        if not any(_keys_reach_output(spine, candidate)
                   for candidate in candidates):
            return None
    resolved = _resolve(node, list(keys))
    if resolved is None:
        return None
    streams = {scan.name for scan in scans_of(plan)
               if isinstance(scan, StreamScan)}
    if streams - set(resolved):
        return None  # some stream escaped the key analysis — unsafe
    if not streams:
        return None  # nothing to partition: all inputs are relations
    return PartitionScheme(keys=tuple(keys), stream_keys=dict(resolved),
                           origin=origin, boundary=node)


def _spine_of(plan: LogicalOp, node: LogicalOp) -> list[LogicalOp]:
    """The unary operators between the root and the boundary, top down."""
    ops: list[LogicalOp] = []
    cursor = plan
    while cursor is not node:
        ops.append(cursor)
        cursor = cursor.children[0]
    return ops


def _keys_reach_output(spine: Sequence[LogicalOp],
                       keys: Sequence[str]) -> bool:
    """Do the boundary's key columns survive every spine projection?"""
    current = list(keys)
    for op in reversed(spine):
        if isinstance(op, Project):
            mapped = []
            for key in current:
                for name, expr in zip(op.names, op.exprs):
                    if isinstance(expr, Column) and expr.name == key:
                        mapped.append(name)
                        break
                else:
                    return False
            current = mapped
    return True


def key_annotations(plan: LogicalOp, scheme: PartitionScheme) \
        -> dict[int, tuple[str, ...] | None]:
    """Per-node routing-key columns for a plan ``scheme`` partitions.

    Maps ``id(node)`` → the routing key's column names *in that node's
    output schema*, for every node the key analysis descends through,
    plus the spine above the boundary as far as the key survives
    projection.  Nodes in a stream-free subtree map to :data:`BROADCAST`
    (their state is replicated in every partition); nodes absent from
    the mapping have no recoverable key (e.g. spine ops above a
    projection that dropped it).

    This is what live rescale (``repro.runtime.rescale``) uses to
    re-key each operator's checkpointed state by the target width.
    """
    node, keys = scheme.boundary, scheme.keys
    ann: dict[int, tuple[str, ...] | None] = {}
    _annotate(node, list(keys), ann)
    # The spine above the boundary: carry the key upward through renames
    # until a projection loses it (nodes above that point stay absent).
    spine: list[LogicalOp] = []
    cursor = plan
    while cursor is not node:
        spine.append(cursor)
        cursor = cursor.children[0]
    current = list(keys)
    for op in reversed(spine):
        if isinstance(op, Project):
            mapped = []
            for key in current:
                out_name = None
                for name, expr in zip(op.names, op.exprs):
                    if isinstance(expr, Column) and expr.name == key:
                        out_name = name
                        break
                if out_name is None:
                    return ann  # key projected away: stop annotating up
                mapped.append(out_name)
            current = mapped
        # Filter / Distinct / RelToStream keep their child's schema.
        ann[id(op)] = tuple(current)
    return ann


def _annotate(node: LogicalOp, keys: list[str],
              ann: dict[int, tuple[str, ...] | None]) -> None:
    """Record each descended node's key columns; mirrors :func:`_resolve`.

    Only called on plans :func:`partition_scheme` already proved, so the
    failure branches of ``_resolve`` are unreachable here.
    """
    ann[id(node)] = tuple(keys)
    if isinstance(node, StreamScan):
        return
    if isinstance(node, RelationScan):
        ann[id(node)] = BROADCAST
        return
    if isinstance(node, (Filter, Distinct, RelToStream, WindowOp)):
        _annotate(node.children[0], keys, ann)
        return
    if isinstance(node, Project):
        renamed = [node.exprs[node.schema.index_of(k)].name for k in keys]
        _annotate(node.children[0], renamed, ann)
        return
    if isinstance(node, (Aggregate, WindowAggregate)):
        renamed = [node.group_by[node.group_names.index(k)] for k in keys]
        _annotate(node.children[0], renamed, ann)
        return
    if isinstance(node, Join):
        _annotate_join(node, keys, ann)
        return
    if isinstance(node, SetOp):
        positions = [node.left.schema.index_of(k) for k in keys]
        right_keys = [node.right.schema.fields[p] for p in positions]
        _annotate(node.left, keys, ann)
        _annotate(node.right, right_keys, ann)
        return


def _annotate_join(node: Join, keys: list[str],
                   ann: dict[int, tuple[str, ...] | None]) -> None:
    left_schema = node.left.schema
    on_left = []
    for key in keys:
        try:
            left_schema.index_of(key)
        except SchemaError:
            continue
        on_left.append(key)
    if on_left:
        side, other = node.left, node.right
        names, own_keys, other_keys = on_left, node.left_keys, \
            node.right_keys
    else:
        side, other = node.right, node.left
        names, own_keys, other_keys = list(keys), node.right_keys, \
            node.left_keys
    _annotate(side, names, ann)
    if any(isinstance(s, StreamScan) for s in scans_of(other)):
        schema = side.schema
        key_positions = [schema.index_of(k) for k in own_keys]
        mapped = [other_keys[key_positions.index(schema.index_of(n))]
                  for n in names]
        _annotate(other, mapped, ann)
    else:
        for sub in walk(other):
            ann[id(sub)] = BROADCAST


def decide_parallelism(plan: LogicalOp, requested: int | None = None,
                       cores: int | None = None) -> int:
    """Clamp a parallelism request to what the plan's semantics allow.

    Unpartitionable plans always get 1.  Without an explicit request the
    planner picks min(4, cores) — beyond the boundary key's typical
    cardinality the extra replicas only add routing cost.
    """
    if partition_scheme(plan) is None:
        return 1
    if requested is not None:
        return max(1, requested)
    if cores is None:
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


# ---------------------------------------------------------------------------
# Boundary selection
# ---------------------------------------------------------------------------

#: Spine operators above the boundary that are safe to skip: they treat
#: each row independently (or compare only identical rows), so a row
#: computed by the partition owning its key is the row the single-copy
#: plan would compute.
_SPINE = (Filter, Project, Distinct, RelToStream)


def _boundary(plan: LogicalOp) \
        -> tuple[LogicalOp, tuple[str, ...], str] | None:
    """Walk the unary spine to the topmost keyed boundary.

    Returns (node, keys-in-node-output-schema, origin label).
    """
    node = plan
    while isinstance(node, _SPINE):
        node = node.children[0]
    if isinstance(node, (Aggregate, WindowAggregate)):
        if not node.group_by:
            return None  # a global aggregate needs every record in one place
        return node, tuple(node.group_names), \
            f"aggregate group by ({', '.join(node.group_by)})"
    if isinstance(node, Join) and node.left_keys:
        # Key on whichever side actually carries streams; a stream-free
        # side is broadcast and imposes no key.
        left_streams = any(isinstance(s, StreamScan)
                           for s in scans_of(node.left))
        keys = node.left_keys if left_streams else node.right_keys
        return node, tuple(keys), \
            f"equi-join on ({', '.join(node.left_keys)})"
    return None


# ---------------------------------------------------------------------------
# Key push-down
# ---------------------------------------------------------------------------


def _resolve(node: LogicalOp, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    """Push key columns (named in ``node``'s output schema) to the leaves.

    Returns stream name → positional key indices, or None when any
    operator on the way would let different keys interact.
    """
    if isinstance(node, StreamScan):
        try:
            return {node.name: tuple(node.schema.index_of(k) for k in keys)}
        except SchemaError:
            return None
    if isinstance(node, RelationScan):
        return {}  # broadcast: every partition sees the whole relation
    if isinstance(node, (Filter, Distinct, RelToStream)):
        return _resolve(node.children[0], keys)
    if isinstance(node, WindowOp):
        return _resolve_window(node, keys)
    if isinstance(node, Project):
        return _resolve_project(node, keys)
    if isinstance(node, (Aggregate, WindowAggregate)):
        return _resolve_aggregate(node, keys)
    if isinstance(node, Join):
        return _resolve_join(node, keys)
    if isinstance(node, SetOp):
        return _resolve_setop(node, keys)
    return None  # opaque / frontend-specific node: assume unsafe


def _resolve_window(node: WindowOp, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    spec = node.spec
    if spec.kind is WindowSpecKind.ROWS:
        # [Rows n] keeps the n globally most recent rows across all keys;
        # splitting the input changes which rows survive.
        return None
    if spec.kind is WindowSpecKind.PARTITIONED:
        # Safe iff rows that share a window also share a partition:
        # K ⊆ Partition By columns.
        schema = node.children[0].schema
        try:
            window_cols = {schema.index_of(c) for c in spec.partition_by}
            if any(schema.index_of(k) not in window_cols for k in keys):
                return None
        except SchemaError:
            return None
    return _resolve(node.children[0], keys)


def _resolve_project(node: Project, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    renamed = []
    for key in keys:
        try:
            expr = node.exprs[node.schema.index_of(key)]
        except SchemaError:
            return None
        if not isinstance(expr, Column):
            return None  # computed key column: cannot route on raw input
        renamed.append(expr.name)
    return _resolve(node.children[0], renamed)


def _resolve_aggregate(node: Aggregate | WindowAggregate, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    # Keys must name group columns (never aggregate outputs); map each
    # output group name back to the input column it groups on.
    renamed = []
    for key in keys:
        try:
            position = node.group_names.index(key)
        except ValueError:
            return None
        renamed.append(node.group_by[position])
    return _resolve(node.children[0], renamed)


def _resolve_join(node: Join, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    left_schema = node.left.schema
    on_left, on_right = [], []
    for key in keys:
        try:
            left_schema.index_of(key)
        except SchemaError:
            on_right.append(key)
        else:
            on_left.append(key)
    if on_left and on_right:
        return None  # key straddles the join: no single co-location key
    if on_left:
        side, other = node.left, node.right
        names, own_keys, other_keys = on_left, node.left_keys, \
            node.right_keys
    else:
        side, other = node.right, node.left
        names, own_keys, other_keys = on_right, node.right_keys, \
            node.left_keys
    branch = _resolve(side, names)
    if branch is None:
        return None
    if any(isinstance(s, StreamScan) for s in scans_of(other)):
        # Both sides carry streams: matching rows must co-locate, so K
        # has to map through the equi-join condition onto the other side.
        schema = side.schema
        try:
            key_positions = [schema.index_of(k) for k in own_keys]
            mapped = []
            for name in names:
                position = schema.index_of(name)
                if position not in key_positions:
                    return None  # K not part of the join key: unsafe
                mapped.append(other_keys[key_positions.index(position)])
        except SchemaError:
            return None
        other_branch = _resolve(other, mapped)
        if other_branch is None:
            return None
    else:
        other_branch = {}  # stream-free side: broadcast, no key needed
    resolved = dict(branch)
    if not _merge(resolved, other_branch):
        return None
    return resolved


def _resolve_setop(node: SetOp, keys: list[str]) \
        -> dict[str, tuple[int, ...]] | None:
    # Set operands share arity, not names: translate keys positionally.
    left_schema, right_schema = node.left.schema, node.right.schema
    try:
        positions = [left_schema.index_of(k) for k in keys]
    except SchemaError:
        return None
    right_keys = [right_schema.fields[p] for p in positions]
    left = _resolve(node.left, keys)
    right = _resolve(node.right, right_keys)
    if left is None or right is None:
        return None
    resolved = dict(left)
    if not _merge(resolved, right):
        return None
    return resolved


def _merge(into: dict[str, tuple[int, ...]],
           branch: Mapping[str, tuple[int, ...]]) -> bool:
    """Merge per-stream key indices; equal demands only.

    A stream scanned twice must route both scans identically — each
    arrival is routed once, so conflicting key demands are unsatisfiable.
    """
    for name, indices in branch.items():
        if name in into and into[name] != indices:
            return False
        into[name] = indices
    return True
