"""The unified logical-plan IR every frontend lowers into.

One operator tree language for all four query frontends (paper Figure 3's
optimisation stack, Section 3.2):

* the CQL parser/planner lowers SELECT blocks to scans, windows, R2R
  operators and an R2S root;
* the streaming-SQL dialect lowers to scans, filters, projections and
  :class:`WindowAggregate` (its GROUP BY windows);
* RSP-QL lowers windowed RDF streams to :class:`WindowOp` over triple
  scans plus :class:`BGPMatch`;
* the dataflow pipeline builder lowers its DAG to :class:`OpaqueSource` /
  :class:`OpaqueOp` nodes (payload-carrying, so rule passes can reorder
  and eliminate them without understanding the user functions inside).

Nodes expose ``op_name``/``children`` so the monotonicity classifier in
:mod:`repro.core.monotonicity` applies directly, and carry their output
:class:`~repro.core.records.Schema` so expression compilation resolves
column positions at plan time.  A node that derives a new layout (a
projection, a join, an aggregate) builds it once, on first read, and
keeps it beside its fields: every query compiled from one plan shares
its schemas, and equality and hashing stay over the fields.

History: the core of this hierarchy moved here from
``repro.cql.algebra``; the compatibility shim is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import is_not
from typing import Any, Mapping, Sequence

from repro.core.errors import PlanError
from repro.core.operators import AggregateKind, R2SKind
from repro.core.records import Schema
from repro.plan.exprs import (
    EmitMode,
    Expr,
    GroupWindow,
    WindowSpec,
    WindowSpecKind,
    bind_literals,
    literal_values,
)


@dataclass(frozen=True)
class LogicalOp:
    """Base class for logical plan nodes."""

    @property
    def op_name(self) -> str:
        raise NotImplementedError

    @property
    def children(self) -> tuple["LogicalOp", ...]:
        return ()

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def with_children(self, children: Sequence["LogicalOp"]) -> "LogicalOp":
        """A copy of this node over different children (same arity)."""
        raise NotImplementedError

    # -- pretty printing -----------------------------------------------------

    def explain(self, indent: int = 0) -> str:
        """An EXPLAIN-style rendering of the plan tree."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.op_name


@dataclass(frozen=True)
class StreamScan(LogicalOp):
    """Leaf: read a registered stream.  Schema is alias-qualified."""

    name: str
    alias: str
    stream_schema: Schema

    @property
    def op_name(self) -> str:
        return "stream_scan"

    @property
    def schema(self) -> Schema:
        return self.stream_schema

    def with_children(self, children: Sequence[LogicalOp]) -> "StreamScan":
        if children:
            raise PlanError("stream_scan takes no children")
        return self

    def describe(self) -> str:
        return f"StreamScan({self.name} AS {self.alias})"


@dataclass(frozen=True)
class RelationScan(LogicalOp):
    """Leaf: read a registered (time-varying) relation."""

    name: str
    alias: str
    relation_schema: Schema

    @property
    def op_name(self) -> str:
        return "relation_scan"

    @property
    def schema(self) -> Schema:
        return self.relation_schema

    def with_children(self, children: Sequence[LogicalOp]) -> "RelationScan":
        if children:
            raise PlanError("relation_scan takes no children")
        return self

    def describe(self) -> str:
        return f"RelationScan({self.name} AS {self.alias})"


@dataclass(frozen=True)
class WindowOp(LogicalOp):
    """S2R: apply a window specification to a stream scan."""

    child: LogicalOp
    spec: WindowSpec

    @property
    def op_name(self) -> str:
        if self.spec.kind is WindowSpecKind.UNBOUNDED:
            return "unbounded_window"
        return "window"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children: Sequence[LogicalOp]) -> "WindowOp":
        (child,) = children
        return WindowOp(child, self.spec)

    def describe(self) -> str:
        return f"Window{self.spec}"


@dataclass(frozen=True)
class Filter(LogicalOp):
    """R2R: σ — keep records satisfying ``predicate``."""

    child: LogicalOp
    predicate: Expr

    @property
    def op_name(self) -> str:
        return "select"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children: Sequence[LogicalOp]) -> "Filter":
        (child,) = children
        return Filter(child, self.predicate)

    def describe(self) -> str:
        return f"Filter({self.predicate})"


@dataclass(frozen=True)
class Project(LogicalOp):
    """R2R: π — compute output columns from expressions."""

    child: LogicalOp
    exprs: tuple[Expr, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.exprs) != len(self.names):
            raise PlanError("projection exprs/names arity mismatch")

    @property
    def op_name(self) -> str:
        return "project"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @cached_property
    def schema(self) -> Schema:
        return Schema(self.names)

    def with_children(self, children: Sequence[LogicalOp]) -> "Project":
        (child,) = children
        return Project(child, self.exprs, self.names)

    def describe(self) -> str:
        cols = ", ".join(f"{e} AS {n}" for e, n in
                         zip(self.exprs, self.names))
        return f"Project({cols})"


@dataclass(frozen=True)
class Join(LogicalOp):
    """R2R: ⋈ — join two relations.

    ``left_keys``/``right_keys`` hold the extracted equi-join columns (empty
    for a pure cross/theta join); ``residual`` is any non-equi condition
    applied to joined records.
    """

    left: LogicalOp
    right: LogicalOp
    left_keys: tuple[str, ...] = ()
    right_keys: tuple[str, ...] = ()
    residual: Expr | None = None

    @property
    def op_name(self) -> str:
        return "equijoin" if self.left_keys else "cross"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    @cached_property
    def schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    def with_children(self, children: Sequence[LogicalOp]) -> "Join":
        left, right = children
        return Join(left, right, self.left_keys, self.right_keys,
                    self.residual)

    def describe(self) -> str:
        if self.left_keys:
            keys = ", ".join(f"{l}={r}" for l, r in
                             zip(self.left_keys, self.right_keys))
            extra = f" residual={self.residual}" if self.residual else ""
            return f"EquiJoin({keys}){extra}"
        if self.residual is not None:
            return f"ThetaJoin({self.residual})"
        return "CrossJoin"


@dataclass(frozen=True)
class AggregateExpr:
    """One aggregate output column at the plan level."""

    kind: AggregateKind
    arg: Expr | None  # None for COUNT(*)
    name: str

    def describe(self) -> str:
        arg = "*" if self.arg is None else str(self.arg)
        return f"{self.kind.value}({arg}) AS {self.name}"


@dataclass(frozen=True)
class Aggregate(LogicalOp):
    """R2R: γ — grouped aggregation.

    Output schema: group-by columns (under their given output names)
    followed by aggregate columns.
    """

    child: LogicalOp
    group_by: tuple[str, ...]           # input column names
    group_names: tuple[str, ...]        # output names for the group columns
    aggregates: tuple[AggregateExpr, ...]

    def __post_init__(self) -> None:
        if len(self.group_by) != len(self.group_names):
            raise PlanError("group_by/group_names arity mismatch")

    @property
    def op_name(self) -> str:
        return "aggregate"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @cached_property
    def schema(self) -> Schema:
        return Schema(self.group_names + tuple(a.name
                                               for a in self.aggregates))

    def with_children(self, children: Sequence[LogicalOp]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.group_names,
                         self.aggregates)

    def describe(self) -> str:
        parts = list(self.group_by) + [a.describe() for a in self.aggregates]
        return f"Aggregate({', '.join(parts)})"


@dataclass(frozen=True)
class Distinct(LogicalOp):
    """R2R: δ — duplicate elimination."""

    child: LogicalOp

    @property
    def op_name(self) -> str:
        return "distinct"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children: Sequence[LogicalOp]) -> "Distinct":
        (child,) = children
        return Distinct(child)


@dataclass(frozen=True)
class SetOp(LogicalOp):
    """R2R: bag union / difference / intersection of two relations."""

    kind: str  # "union" | "difference" | "intersection"
    left: LogicalOp
    right: LogicalOp

    _VALID = ("union", "difference", "intersection")
    #: Set operations where operand order does not matter.
    COMMUTATIVE = ("union", "intersection")

    def __post_init__(self) -> None:
        if self.kind not in self._VALID:
            raise PlanError(f"bad set-op kind {self.kind!r}")
        if self.left.schema.arity != self.right.schema.arity:
            raise PlanError("set operands must have equal arity")

    @property
    def op_name(self) -> str:
        return self.kind

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def with_children(self, children: Sequence[LogicalOp]) -> "SetOp":
        left, right = children
        return SetOp(self.kind, left, right)

    def describe(self) -> str:
        return self.kind.capitalize()


@dataclass(frozen=True)
class RelToStream(LogicalOp):
    """R2S: the topmost ISTREAM / DSTREAM / RSTREAM operator."""

    child: LogicalOp
    kind: R2SKind

    @property
    def op_name(self) -> str:
        return self.kind.value

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children: Sequence[LogicalOp]) -> "RelToStream":
        (child,) = children
        return RelToStream(child, self.kind)

    def describe(self) -> str:
        return self.kind.value.upper()


# ---------------------------------------------------------------------------
# Frontend-specific nodes (SQL group windows, RSP-QL patterns, dataflow)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowAggregate(LogicalOp):
    """The streaming-SQL aggregation node: GROUP BY + optional window.

    ``window=None`` is a running (changelog) aggregation; otherwise the
    group window (TUMBLE/HOP/SESSION) adds ``window_start``/``window_end``
    columns to the output.  ``emit`` records the materialisation policy.
    """

    child: LogicalOp
    group_by: tuple[str, ...]
    group_names: tuple[str, ...]
    aggregates: tuple[AggregateExpr, ...]
    window: GroupWindow | None = None
    emit: EmitMode = EmitMode.CHANGES

    def __post_init__(self) -> None:
        if len(self.group_by) != len(self.group_names):
            raise PlanError("group_by/group_names arity mismatch")

    @property
    def op_name(self) -> str:
        return "window_aggregate" if self.window is not None else "aggregate"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @cached_property
    def schema(self) -> Schema:
        fields = self.group_names + tuple(a.name for a in self.aggregates)
        if self.window is not None:
            fields = fields + ("window_start", "window_end")
        return Schema(fields)

    def with_children(self, children: Sequence[LogicalOp]
                      ) -> "WindowAggregate":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        parts = list(self.group_by) + [a.describe() for a in self.aggregates]
        if self.window is not None:
            parts.append(str(self.window))
        parts.append(f"EMIT {self.emit.value.upper()}")
        return f"WindowAggregate({', '.join(parts)})"


@dataclass(frozen=True)
class BGPMatch(LogicalOp):
    """RSP-QL: match a basic graph pattern over a (windowed) triple bag.

    ``pattern`` is an opaque payload (a ``BasicGraphPattern``); the output
    schema is one column per selected variable.
    """

    child: LogicalOp
    pattern: Any = field(compare=False)
    variables: tuple[str, ...] = ()

    @property
    def op_name(self) -> str:
        return "bgp_match"

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @cached_property
    def schema(self) -> Schema:
        return Schema(self.variables)

    def with_children(self, children: Sequence[LogicalOp]) -> "BGPMatch":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        patterns = getattr(self.pattern, "patterns", None)
        body = (", ".join(str(p) for p in patterns)
                if patterns is not None else repr(self.pattern))
        return f"BGPMatch({body})"


@dataclass(frozen=True)
class OpaqueSource(LogicalOp):
    """Dataflow leaf: a source whose elements the IR cannot inspect."""

    kind: str                       # e.g. "source"
    tag: str                        # stable display label
    payload: Any = field(default=None, compare=False)

    @property
    def op_name(self) -> str:
        return self.kind

    @property
    def schema(self) -> Schema:
        return Schema(())

    def with_children(self, children: Sequence[LogicalOp]) -> "OpaqueSource":
        if children:
            raise PlanError(f"{self.kind} takes no children")
        return self

    def describe(self) -> str:
        return f"{self.kind.capitalize()}({self.tag})"


@dataclass(frozen=True)
class OpaqueOp(LogicalOp):
    """Dataflow inner node: user code (ParDo/GBK/window/sink) as payload.

    ``kind`` is the monotonicity-relevant operator name (``map``,
    ``flat_map``, ``window``, ``group_aggregate``...), so the classifier
    and the signature work without understanding the payload.
    """

    kind: str
    tag: str
    inputs: tuple[LogicalOp, ...]
    payload: Any = field(default=None, compare=False)

    @property
    def op_name(self) -> str:
        return self.kind

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return self.inputs

    @property
    def schema(self) -> Schema:
        return Schema(())

    def with_children(self, children: Sequence[LogicalOp]) -> "OpaqueOp":
        return replace(self, inputs=tuple(children))

    def describe(self) -> str:
        return f"{self.kind.capitalize()}({self.tag})"


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk(plan: LogicalOp):
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children:
        yield from walk(child)


def scans_of(plan: LogicalOp) -> list[StreamScan | RelationScan]:
    """All leaf scans of a plan, in left-to-right order."""
    return [node for node in walk(plan)
            if isinstance(node, (StreamScan, RelationScan))]


def bind(plan: LogicalOp,
         literals: Sequence[Any] | Mapping[int, Any]) -> LogicalOp:
    """``plan`` with each slotted literal of its filter and join
    predicates holding ``literals[slot]``: the plan of another text of
    ``plan``'s shape, from one pass over its nodes instead of a parse,
    plan and optimize (see :meth:`repro.cql.engine.CQLEngine.plan`).
    A subtree with no slot is shared with ``plan``."""
    if isinstance(plan, Filter):
        child = bind(plan.child, literals)
        predicate = bind_literals(plan.predicate, literals)
        if child is plan.child and predicate is plan.predicate:
            return plan
        return Filter(child, predicate)
    if isinstance(plan, Join):
        left, right = bind(plan.left, literals), bind(plan.right, literals)
        residual = (None if plan.residual is None
                    else bind_literals(plan.residual, literals))
        if left is plan.left and right is plan.right \
                and residual is plan.residual:
            return plan
        return Join(left, right, plan.left_keys, plan.right_keys, residual)
    children = plan.children
    if not children:
        return plan
    bound = [bind(child, literals) for child in children]
    if not any(map(is_not, bound, children)):
        return plan
    return plan.with_children(bound)


def literals_of(plan: LogicalOp) -> dict[int, Any]:
    """The values of the slotted literals :func:`bind` fills in
    ``plan`` — those of its filter and join predicates — by slot."""
    found: dict[int, Any] = {}
    for node in walk(plan):
        if isinstance(node, Filter):
            literal_values(node.predicate, found)
        elif isinstance(node, Join) and node.residual is not None:
            literal_values(node.residual, found)
    return found
