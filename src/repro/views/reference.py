"""Reference evaluator: full recompute of a view plan from base contents.

The denotational counterpart of the incremental kernel path — evaluate
the logical plan bottom-up over complete :class:`~repro.core.relation.Bag`
contents, no deltas, no state.  The difftest ``kernel-views`` leg and the
dynamic-tables bench both pin the incremental refresh against this
function, so it shares no code with what it checks: aggregates are a
plain from-scratch fold over each group's list of non-NULL argument
values, not the operator's incremental per-kind state.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.errors import PlanError
from repro.core.operators import AggregateKind
from repro.core.records import Record
from repro.core.relation import Bag
from repro.cql.expressions import compile_expr, compile_predicate
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


def recompute(plan: LogicalOp, contents: Mapping[str, Bag]) -> Bag:
    """Evaluate ``plan`` over full base contents (a bag per source name)."""
    if isinstance(plan, RelationScan):
        if plan.name not in contents:
            raise PlanError(f"no contents for scanned table {plan.name!r}")
        out = Bag()
        for row, count in contents[plan.name].items():
            out.add(row.with_schema(plan.relation_schema), count)
        return out
    if isinstance(plan, Filter):
        child = recompute(plan.child, contents)
        predicate = compile_predicate(plan.predicate, plan.child.schema)
        return child.filter(lambda row: predicate(row.values))
    if isinstance(plan, Project):
        child = recompute(plan.child, contents)
        evaluators = [compile_expr(expr, plan.child.schema)
                      for expr in plan.exprs]
        schema = plan.schema
        return child.map(lambda row: Record(
            schema, tuple(e(row.values) for e in evaluators),
            validate=False))
    if isinstance(plan, (Aggregate, WindowAggregate)):
        if isinstance(plan, WindowAggregate) and plan.window is not None:
            raise PlanError("group windows have no recompute semantics "
                            "over a static relation")
        return _recompute_aggregate(plan, contents)
    if isinstance(plan, Distinct):
        return recompute(plan.child, contents).distinct()
    if isinstance(plan, SetOp):
        left = recompute(plan.left, contents)
        right_raw = recompute(plan.right, contents)
        right = Bag()
        schema = plan.left.schema
        for row, count in right_raw.items():
            right.add(row.with_schema(schema), count)
        if plan.kind == "union":
            return left.union(right)
        if plan.kind == "difference":
            return left.difference(right)
        return left.intersection(right)
    if isinstance(plan, Join):
        return _recompute_join(plan, contents)
    raise PlanError(f"{plan.op_name} cannot appear in a dynamic-table plan")


def _recompute_aggregate(plan: Aggregate | WindowAggregate,
                         contents: Mapping[str, Bag]) -> Bag:
    child = recompute(plan.child, contents)
    child_schema = plan.child.schema
    group_indexes = [child_schema.index_of(name) for name in plan.group_by]
    evaluators = [None if agg.arg is None
                  else compile_expr(agg.arg, child_schema)
                  for agg in plan.aggregates]
    # Per group, per aggregate: every non-NULL argument value, repeated
    # by multiplicity (COUNT(*) counts a 1 per row).
    groups: dict[tuple, list[list[Any]]] = {}
    for row, count in child.items():
        key = tuple(row[i] for i in group_indexes)
        columns = groups.get(key)
        if columns is None:
            columns = groups[key] = [[] for _ in plan.aggregates]
        for column, evaluator in zip(columns, evaluators):
            value = 1 if evaluator is None else evaluator(row.values)
            if value is not None:
                column.extend([value] * count)
    if not groups and not plan.group_by:
        # SQL: an ungrouped aggregate of an empty relation is one row.
        groups[()] = [[] for _ in plan.aggregates]
    out = Bag()
    schema = plan.schema
    for key, columns in groups.items():
        values = list(key)
        for agg, column in zip(plan.aggregates, columns):
            values.append(_aggregate(agg.kind, column))
        out.add(Record(schema, values, validate=False))
    return out


def _aggregate(kind: AggregateKind, values: list[Any]) -> Any:
    """One aggregate over its non-NULL argument values: COUNT counts
    them, the others are NULL over none."""
    if kind is AggregateKind.COUNT:
        return len(values)
    if not values:
        return None
    if kind is AggregateKind.SUM:
        return sum(values)
    if kind is AggregateKind.AVG:
        return sum(values) / len(values)
    if kind is AggregateKind.MIN:
        return min(values)
    if kind is AggregateKind.MAX:
        return max(values)
    raise PlanError(f"unknown aggregate kind {kind}")


def _recompute_join(plan: Join, contents: Mapping[str, Bag]) -> Bag:
    left = recompute(plan.left, contents)
    right = recompute(plan.right, contents)
    left_schema = plan.left.schema
    right_schema = plan.right.schema
    left_indexes = [left_schema.index_of(k) for k in plan.left_keys]
    right_indexes = [right_schema.index_of(k) for k in plan.right_keys]
    residual = (compile_predicate(plan.residual, plan.schema)
                if plan.residual is not None else None)
    out = Bag()
    for left_row, left_count in left.items():
        left_key = tuple(left_row[i] for i in left_indexes)
        if left_indexes and any(k is None for k in left_key):
            continue
        for right_row, right_count in right.items():
            right_key = tuple(right_row[i] for i in right_indexes)
            if right_indexes and any(k is None for k in right_key):
                continue
            if left_key != right_key:
                continue
            joined = left_row.concat(right_row)
            if residual is not None and not residual(joined.values):
                continue
            out.add(joined, left_count * right_count)
    return out
