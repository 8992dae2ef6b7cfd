"""Compile a logical plan into a kernel delta plan for view refresh.

``compile_view_plan`` lowers a :class:`~repro.plan.ir.LogicalOp` tree —
the same IR every frontend produces — into an :class:`~repro.exec.plan.Plan`
whose operators all speak :class:`~repro.views.delta.Delta`.  Each
:class:`~repro.plan.ir.RelationScan` leaf becomes a named source channel
bound to a base table or upstream view; a terminal sink collects the
output deltas of one refresh.

View plans are *relational*: stream scans, windows and R2S roots have no
place in a materialised table's definition and are rejected at compile
time.  ``fuse()`` runs before ``open()`` so σ/π prefixes collapse into
single kernel nodes, exactly as in the standing-query path.

Priming: a freshly-opened plan does not represent the view of an empty
database until operators with non-trivial output-over-empty-input (the
global aggregate's COUNT = 0 row) have spoken.  ``prime()`` walks the
operators sinks-first, emitting each ``initial_output()`` downstream, so
inner operators fold their upstreams' primer rows into already-seeded
state; the sink's drain is the view's initial contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.errors import PlanError
from repro.core.records import Schema
from repro.cql.expressions import compile_expr, compile_predicate
from repro.exec.plan import Plan
from repro.exec.state import StateBackend
from repro.plan.exprs import EmitMode
from repro.plan.ir import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    RelationScan,
    SetOp,
    WindowAggregate,
)
from repro.views.delta import Delta
from repro.views.operators import (
    DeltaAggregateOp,
    DeltaDistinctOp,
    DeltaFilterOp,
    DeltaJoinOp,
    DeltaOperator,
    DeltaProjectOp,
    DeltaSetOp,
)


@dataclass(frozen=True)
class SourceBinding:
    """One plan source channel fed by a named base table or view.

    ``schema`` is the (alias-qualified) scan schema; pushed rows are
    relabelled to it so self-joins and aliased scans resolve columns
    correctly.
    """

    channel: str
    table: str
    schema: Schema


class _SinkOp(DeltaOperator):
    """Terminal collector: buffers the plan's output deltas per refresh."""

    def __init__(self) -> None:
        self.collected: list[Delta] = []

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        self.collected.extend(batch)

    def drain(self) -> list[Delta]:
        out, self.collected = self.collected, []
        return out

    def restore(self, state: Any) -> None:
        # Output buffered mid-refresh dies with the crash; the refresh
        # that failed re-runs from the restored operator state.
        self.collected = []


class ViewPlanHandle:
    """A compiled, openable kernel plan maintaining one view."""

    def __init__(self, plan: Plan, bindings: list[SourceBinding],
                 sink: _SinkOp, out_schema: Schema,
                 operator_names: list[str]) -> None:
        self.plan = plan
        self.bindings = bindings
        self.out_schema = out_schema
        self._sink = sink
        self._names = operator_names
        self._opened = False

    # -- lifecycle --------------------------------------------------------------

    def open(self, state_factory: Callable[[], StateBackend] | None = None,
             **labels: str) -> list[Delta]:
        """Fuse, open and prime; returns the view-of-empty-base deltas."""
        if self._opened:
            raise PlanError("view plan already opened")
        self._opened = True
        self.plan.fuse()
        if state_factory is not None:
            self.plan.open(state_factory=state_factory, **labels)
        else:
            self.plan.open(**labels)
        return self._prime()

    def _prime(self) -> list[Delta]:
        # Sinks-first: a downstream operator seeds its own empty-input
        # output before any upstream primer row flows through it, so the
        # retract half of its first refresh pair lands on a row the sink
        # has already seen.
        for name in reversed(self.plan.node_names()):
            op = self.plan.operator(name)
            primers = _initial_output(op)
            if primers:
                op.emit_batch(primers)
        return self._sink.drain()

    def sources(self) -> list[str]:
        return [binding.table for binding in self.bindings]

    def operator_names(self) -> list[str]:
        """Post-fusion kernel node names (crash-injection targets)."""
        return self.plan.node_names()

    def operator(self, name: str) -> Any:
        return self.plan.operator(name)

    # -- refresh ----------------------------------------------------------------

    def push_deltas(self, deltas_by_table: Mapping[str, list[Delta]],
                    ) -> list[Delta]:
        """Push one refresh's input deltas; returns the output deltas.

        Each binding of a mentioned table receives the batch with rows
        relabelled to the scan's qualified schema (a table scanned twice
        — a self-join — feeds both channels).  Every operator handles a
        source's batch whole, so one refresh is one ``emit_batch`` per
        operator per source batch.  The returned list is the caller's:
        the sink hands it over and starts a fresh one.
        """
        for binding in self.bindings:
            incoming = deltas_by_table.get(binding.table)
            if not incoming:
                continue
            schema = binding.schema
            batch = [Delta(delta.row.with_schema(schema), delta.weight)
                     for delta in incoming]
            self.plan.push_batch(binding.channel, batch)
        return self._sink.drain()

    # -- checkpointing ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return self.plan.snapshot()

    def restore(self, state: dict[str, Any]) -> None:
        self.plan.restore(state)
        self._sink.collected = []


def _initial_output(op: Any) -> list[Delta]:
    """``initial_output`` across fusion boundaries.

    A fused chain primes member-by-member: a member's primer rows flow
    through the chain *suffix* only, which is exactly the sinks-first
    discipline applied inside the chain.
    """
    from repro.exec.operator import FusedOperator

    if isinstance(op, FusedOperator):
        for position in range(len(op.members) - 1, -1, -1):
            member = op.members[position]
            primers = _initial_output(member)
            if primers:
                # Member emitters feed the next member synchronously and
                # the tail writes to the chain's downstream, so nothing
                # to collect here.
                member.emit_batch(primers)
        return []
    if isinstance(op, DeltaOperator):
        return op.initial_output()
    return []


class _Compiler:
    def __init__(self) -> None:
        self.plan = Plan()
        self.bindings: list[SourceBinding] = []
        self.names: list[str] = []
        self._counter = 0

    def _channel(self, label: str) -> str:
        self._counter += 1
        return f"{label}#{self._counter}"

    def lower(self, node: LogicalOp) -> str:
        if isinstance(node, RelationScan):
            channel = self.plan.add_source(
                self._channel(f"scan:{node.name}"))
            self.bindings.append(
                SourceBinding(channel, node.name, node.relation_schema))
            return channel
        if isinstance(node, Filter):
            child = self.lower(node.child)
            predicate = compile_predicate(node.predicate,
                                          node.child.schema)
            return self._add("filter", DeltaFilterOp(predicate), [child])
        if isinstance(node, Project):
            child = self.lower(node.child)
            evaluators = [compile_expr(expr, node.child.schema)
                          for expr in node.exprs]
            return self._add("project",
                             DeltaProjectOp(evaluators, node.schema),
                             [child])
        if isinstance(node, (Aggregate, WindowAggregate)):
            return self._lower_aggregate(node)
        if isinstance(node, Distinct):
            child = self.lower(node.child)
            return self._add("distinct", DeltaDistinctOp(), [child])
        if isinstance(node, SetOp):
            left = self.lower(node.left)
            right = self.lower(node.right)
            return self._add(node.kind,
                             DeltaSetOp(node.kind, node.left.schema),
                             [left, right])
        if isinstance(node, Join):
            return self._lower_join(node)
        raise PlanError(
            f"{node.op_name} cannot appear in a dynamic-table plan; view "
            f"definitions are relational (scans of tables/views, σ, π, γ, "
            f"δ, ∪/−/∩, ⋈)")

    def _add(self, label: str, op: DeltaOperator,
             inputs: list[str]) -> str:
        channel = self._channel(label)
        self.plan.add_operator(channel, op, inputs)
        self.names.append(channel)
        return channel

    def _lower_aggregate(self, node: Aggregate | WindowAggregate) -> str:
        if isinstance(node, WindowAggregate):
            if node.window is not None:
                raise PlanError(
                    "group windows cannot appear in a dynamic-table plan; "
                    "a view materialises a running (changelog) aggregate")
            if node.emit is not EmitMode.CHANGES:
                raise PlanError(
                    f"EMIT {node.emit.value.upper()} is meaningless for a "
                    f"dynamic table; views always materialise changes")
        child = self.lower(node.child)
        child_schema = node.child.schema
        group_indexes = [child_schema.index_of(name)
                         for name in node.group_by]
        evaluators = [None if agg.arg is None
                      else compile_expr(agg.arg, child_schema)
                      for agg in node.aggregates]
        kinds = [agg.kind for agg in node.aggregates]
        op = DeltaAggregateOp(group_indexes, evaluators, kinds, node.schema)
        return self._add("aggregate", op, [child])

    def _lower_join(self, node: Join) -> str:
        left = self.lower(node.left)
        right = self.lower(node.right)
        left_schema = node.left.schema
        right_schema = node.right.schema
        left_indexes = [left_schema.index_of(k) for k in node.left_keys]
        right_indexes = [right_schema.index_of(k) for k in node.right_keys]
        residual = (compile_predicate(node.residual, node.schema)
                    if node.residual is not None else None)
        op = DeltaJoinOp(left_indexes, right_indexes, node.schema, residual)
        return self._add("join", op, [left, right])


def compile_view_plan(logical: LogicalOp) -> ViewPlanHandle:
    """Lower a relational logical plan into a kernel delta plan."""
    compiler = _Compiler()
    root = compiler.lower(logical)
    if not compiler.bindings:
        raise PlanError("a dynamic table must scan at least one source")
    sink = _SinkOp()
    compiler.plan.add_operator("sink", sink, [root])
    return ViewPlanHandle(compiler.plan, compiler.bindings, sink,
                          logical.schema, compiler.names)


def make_scan(name: str, alias: str | None, schema: Schema) -> RelationScan:
    """A RelationScan over ``name`` with the alias-qualified schema."""
    alias = alias or name
    return RelationScan(name, alias, schema.qualify(alias))
