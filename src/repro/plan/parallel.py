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
GROUP BY, or an equi-join's key columns) and pushes K's *positions*
down the tree, checking every operator on the way:

* per-record operators (filter, project onto bare columns, time-based
  windows) are transparent;
* a grouped aggregate is safe iff K ⊆ its group columns — then each
  group lives wholly inside one partition;
* an equi-join is safe iff K maps through the join condition, so both
  sides co-locate matching rows; a side with no stream scans is
  *broadcast* (relations are replicated to every partition) and needs no
  key;
* ``[Rows n]`` windows depend on global arrival order across all keys —
  **not** partitionable; ``[Partition By … Rows n]`` is safe iff K ⊆ the
  window's partition columns;
* a SQL group window keeps each group's windows (and sessions) apart,
  so any K ⊆ its group columns is safe; with no ``GROUP BY`` there is
  no key, and the plan runs serially;
* anything else below the boundary (a set operation or DISTINCT: the
  frontends build those only above the keyed boundary) is opaque, and
  the plan runs serially.

The push-down records, for every node it descends through, where the
routing key sits in that node's output row
(:attr:`PartitionScheme.positions`).  At a stream leaf those are the
positions arrivals are routed by, on raw tuples before any alias
qualification; at a join, aggregate or window they are what live
rescale (:mod:`repro.runtime.rescale`) re-keys that operator's state by.
Every node of a stream-free subtree (a relation leaf, a join side over
relations only, whether or not it carries the key) is
:data:`BROADCAST`: relation updates go to every partition, so each
holds the whole subtree.

A ``None`` result is a proof obligation failed, and callers must fall
back to parallelism 1; :func:`decide_parallelism` wraps that rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
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
    StreamScan,
    WindowAggregate,
    WindowOp,
    scans_of,
    walk,
)

__all__ = ["PartitionScheme", "partition_scheme", "decide_parallelism",
           "BROADCAST"]

#: The positions of a node in a stream-free (broadcast) subtree: its
#: state is replicated identically in every partition.
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

    ``positions`` maps ``id(node)`` of the boundary and of every node
    below it to the routing key's positions in that node's output row,
    or to :data:`BROADCAST` in a stream-free subtree.  An aggregate's
    group columns come first in its output, so its positions are also
    the key's positions in its group key.
    """

    keys: tuple[str, ...]
    stream_keys: Mapping[str, tuple[int, ...]]
    origin: str
    boundary: LogicalOp = field(compare=False, repr=False)
    positions: Mapping[int, tuple[int, ...] | None] = field(
        compare=False, repr=False)

    def key_for(self, stream: str, values: Sequence[Any]) -> Any:
        """The routing key of one raw arrival tuple on ``stream``."""
        return itemgetter(*self.stream_keys[stream])(values)

    def router(self, stream: str,
               partitions: int) -> Callable[[Sequence[Any]], int]:
        """Raw arrival tuple on ``stream`` → the index of the partition,
        out of ``partitions``, that owns its key."""
        # Lazy: the planner itself never needs the runtime package.
        from repro.runtime.partitioning import key_router

        return key_router(self.stream_keys[stream], partitions)

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
    positions: dict[int, tuple[int, ...] | None] = {}
    try:
        resolved = _resolve(
            node, tuple(node.schema.index_of(k) for k in keys), positions)
    except SchemaError:
        return None
    if resolved is None:
        return None
    streams = {scan.name for scan in scans_of(plan)
               if isinstance(scan, StreamScan)}
    if streams - set(resolved):
        return None  # some stream escaped the key analysis — unsafe
    if not streams:
        return None  # nothing to partition: all inputs are relations
    return PartitionScheme(keys=tuple(keys), stream_keys=resolved,
                           origin=origin, boundary=node,
                           positions=positions)


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


def decide_parallelism(plan: LogicalOp, requested: int) -> int:
    """Clamp a parallelism request to what the plan's semantics allow:
    unpartitionable plans always get 1."""
    if partition_scheme(plan) is None:
        return 1
    return max(1, requested)


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
        keys = node.left_keys if _has_streams(node.left) else node.right_keys
        return node, tuple(keys), \
            f"equi-join on ({', '.join(node.left_keys)})"
    return None


def _has_streams(node: LogicalOp) -> bool:
    return any(isinstance(scan, StreamScan) for scan in scans_of(node))


# ---------------------------------------------------------------------------
# Key push-down
# ---------------------------------------------------------------------------


def _resolve(node: LogicalOp, at: tuple[int, ...],
             positions: dict[int, tuple[int, ...] | None]) \
        -> dict[str, tuple[int, ...]] | None:
    """Push the key, at positions ``at`` of ``node``'s output row, to the
    leaves, recording each node's positions in ``positions``.

    Returns stream name → positional key indices, or None when any
    operator on the way would let different keys interact.  An unknown
    name raises :class:`SchemaError`, which fails the whole proof.
    """
    if not _has_streams(node):
        # Broadcast: relation updates reach every partition, so each
        # holds the whole of a stream-free subtree and needs no key.
        for sub in walk(node):
            positions[id(sub)] = BROADCAST
        return {}
    positions[id(node)] = at
    if isinstance(node, StreamScan):
        return {node.name: at}
    if isinstance(node, WindowOp):
        spec = node.spec
        if spec.kind is WindowSpecKind.ROWS:
            # [Rows n] keeps the n globally most recent rows across all
            # keys; splitting the input changes which rows survive.
            return None
        if spec.kind is WindowSpecKind.PARTITIONED:
            # Safe iff rows that share a window also share a partition:
            # K ⊆ Partition By columns.
            schema = node.child.schema
            if not set(at) <= {schema.index_of(c)
                               for c in spec.partition_by}:
                return None
        return _resolve(node.child, at, positions)
    if isinstance(node, Filter):
        return _resolve(node.child, at, positions)
    if isinstance(node, Project):
        exprs = [node.exprs[p] for p in at]
        if not all(isinstance(expr, Column) for expr in exprs):
            return None  # computed key column: cannot route on raw input
        schema = node.child.schema
        return _resolve(node.child, tuple(schema.index_of(expr.name)
                                          for expr in exprs), positions)
    if isinstance(node, (Aggregate, WindowAggregate)):
        # Keys must name group columns (never aggregate outputs), which
        # come first in the output: map each back to the input column it
        # groups on.
        if any(p >= len(node.group_by) for p in at):
            return None
        schema = node.child.schema
        return _resolve(node.child, tuple(schema.index_of(node.group_by[p])
                                          for p in at), positions)
    if isinstance(node, Join):
        return _resolve_join(node, at, positions)
    return None  # opaque / frontend-specific node: assume unsafe


def _resolve_join(node: Join, at: tuple[int, ...],
                  positions: dict[int, tuple[int, ...] | None]) \
        -> dict[str, tuple[int, ...]] | None:
    width = node.left.schema.arity
    if all(p < width for p in at):
        side, other = node.left, node.right
        own_keys, other_keys = node.left_keys, node.right_keys
    elif all(p >= width for p in at):
        side, other = node.right, node.left
        own_keys, other_keys = node.right_keys, node.left_keys
        at = tuple(p - width for p in at)
    else:
        return None  # key straddles the join: no single co-location key
    resolved = _resolve(side, at, positions)
    if resolved is None:
        return None
    if _has_streams(other):
        # Both sides carry streams: matching rows must co-locate, so K
        # has to map through the equi-join condition onto the other side.
        own = [side.schema.index_of(k) for k in own_keys]
        if not set(at) <= set(own):
            return None  # K not part of the join key: unsafe
        schema = other.schema
        at = tuple(schema.index_of(other_keys[own.index(p)]) for p in at)
    branch = _resolve(other, at, positions)
    if branch is None or not _merge(resolved, branch):
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
