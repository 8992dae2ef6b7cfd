"""Lowering streaming SQL onto the unified logical IR (:mod:`repro.plan`).

A parsed :class:`~repro.sql.ast.SQLStatement` becomes the same IR every
other frontend produces::

    Project? ── Filter(HAVING)? ── WindowAggregate? ── Filter(WHERE)? ── StreamScan

The unified rewriter (:func:`repro.plan.rules.optimize`) then runs over
it — the SQL frontend carries no private rule logic — and
:func:`standing_query` makes the *optimised* tree a CQL standing query
(the survey's §4.1.3: one algebra over time-varying relations).
"""

from __future__ import annotations

from repro.core.errors import PlanError
from repro.core.operators import R2SKind
from repro.cql.catalog import Catalog
from repro.cql.planner import _AggregateCollector
from repro.plan.exprs import UNBOUNDED_SPEC, EmitMode
from repro.plan.ir import (
    Filter,
    LogicalOp,
    Project,
    RelationScan,
    RelToStream,
    StreamScan,
    WindowAggregate,
    WindowOp,
)
from repro.sql.ast import SQLStatement


def lower_statement(statement: SQLStatement,
                    catalog: Catalog) -> LogicalOp:
    """Translate a parsed SQL statement into the unified logical IR.

    A FROM source registered as a relation (a base table or an installed
    dynamic table) lowers to a :class:`RelationScan`, so views scan
    tables and other views through the same IR every frontend shares.
    """
    if catalog.is_relation(statement.source):
        schema = catalog.schema_of(statement.source) \
            .qualify(statement.binding)
        plan: LogicalOp = RelationScan(statement.source, statement.binding,
                                       schema)
    else:
        schema = catalog.stream(statement.source).schema \
            .qualify(statement.binding)
        plan = StreamScan(statement.source, statement.binding, schema)
    if statement.where is not None:
        plan = Filter(plan, statement.where)

    if not statement.is_aggregation:
        if statement.is_star:
            return plan
        exprs = tuple(item.expr for item in statement.items)
        names = tuple(item.output_name() for item in statement.items)
        return Project(plan, exprs, names)

    if statement.is_star:
        raise PlanError("SELECT * cannot be combined with aggregation")
    if statement.window is None and statement.emit is not EmitMode.CHANGES:
        raise PlanError("unwindowed aggregation must EMIT CHANGES")

    collector = _AggregateCollector()
    rewritten = tuple(collector.rewrite(item.expr, alias=item.alias)
                      for item in statement.items)
    names = tuple(item.output_name() for item in statement.items)
    having = (collector.rewrite(statement.having)
              if statement.having is not None else None)

    group_columns = tuple(c.name for c in statement.group_by)
    group_names = tuple(c.rpartition(".")[2] for c in group_columns)
    plan = WindowAggregate(plan, group_columns, group_names,
                           tuple(collector.specs),
                           window=statement.window, emit=statement.emit)
    if having is not None:
        plan = Filter(plan, having)
    return Project(plan, rewritten, names)


def standing_query(plan: LogicalOp) -> RelToStream:
    """The (optimised) IR of a SQL query as a CQL standing query:
    ISTREAM over it, each stream scan read through ``[Range Unbounded]``
    (so a stateless query emits every row it keeps) except a group
    window's, which ``compile_plan`` reads through its own source.
    """
    def windowed(node: LogicalOp) -> LogicalOp:
        if isinstance(node, StreamScan):
            return WindowOp(node, UNBOUNDED_SPEC)
        if isinstance(node, WindowAggregate) and node.window is not None:
            return node
        return node.with_children([windowed(child)
                                   for child in node.children])

    return RelToStream(windowed(plan), R2SKind.ISTREAM)


__all__ = ["lower_statement", "standing_query"]
