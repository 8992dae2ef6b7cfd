"""Lowering streaming SQL onto the unified logical IR (:mod:`repro.plan`).

A parsed :class:`~repro.sql.ast.SQLStatement` becomes the same IR every
other frontend produces::

    Project? ── Filter(HAVING)? ── WindowAggregate? ── Filter(WHERE)? ── StreamScan

The unified rewriter (:func:`repro.plan.rules.optimize`) then runs over
it — the SQL frontend no longer carries private rule logic — and
:func:`compile_to_dsl` walks the *optimised* tree to build the DSL
pipeline that executes on the dataflow runtime (the Figure 4 stack:
SQL → plan → DSL → dataflow → actors).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.errors import PlanError
from repro.core.records import Record, Schema
from repro.core.time import Timestamp
from repro.core.windows import SlidingWindow, TumblingWindow
from repro.cql.catalog import Catalog
from repro.cql.expressions import compile_expr, compile_predicate
from repro.cql.planner import _AggregateCollector
from repro.plan.exprs import EmitMode, GroupWindowKind
from repro.plan.ir import (
    Filter,
    LogicalOp,
    Project,
    RelationScan,
    StreamScan,
    WindowAggregate,
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


def compile_to_dsl(plan: LogicalOp, env,
                   rows: Iterable[tuple[Mapping[str, Any], Timestamp]]):
    """Compile an (optimised) IR tree into a DSL stream in ``env``.

    ``rows`` feed the single :class:`StreamScan` leaf.  Returns the DSL
    stream for the root; the caller attaches the sink and executes.
    """
    if isinstance(plan, StreamScan):
        schema = plan.schema
        fields = schema.unqualified().fields
        records = [(Record(schema, tuple(row[f] for f in fields),
                           validate=False), t)
                   for row, t in rows]
        return env.from_collection(records)

    if isinstance(plan, Filter):
        child = compile_to_dsl(plan.child, env, rows)
        predicate = compile_predicate(plan.predicate, plan.child.schema)
        return child.filter(lambda record: predicate(record.values))

    if isinstance(plan, Project):
        child = compile_to_dsl(plan.child, env, rows)
        evaluators = [compile_expr(e, plan.child.schema)
                      for e in plan.exprs]
        out_schema = plan.schema

        def project(record: Record) -> Record:
            return Record(out_schema,
                          tuple(e(record.values) for e in evaluators),
                          validate=False)

        return child.map(project)

    if isinstance(plan, WindowAggregate):
        child = compile_to_dsl(plan.child, env, rows)
        return _compile_aggregate(plan, child)

    raise PlanError(f"SQL execution cannot compile plan node {plan!r}")


def _compile_aggregate(plan: WindowAggregate, stream):
    # Imported here: CompositeAggregate lives in translate, which imports
    # this module.
    from repro.sql.translate import CompositeAggregate

    in_schema = plan.child.schema
    specs = list(plan.aggregates)
    evaluators = [None if s.arg is None else compile_expr(s.arg, in_schema)
                  for s in specs]
    composite = CompositeAggregate(specs, evaluators)
    group_indexes = [in_schema.index_of(c) for c in plan.group_by]
    inter_schema = plan.schema

    def key_fn(record: Record) -> tuple:
        return tuple(record[i] for i in group_indexes)

    keyed = stream.key_by(key_fn)
    window = plan.window

    if window is not None:
        if plan.emit is EmitMode.CHANGES:
            # The windows below fire once, at close: running each one's
            # refinements needs the per-instant window operator.
            raise PlanError(
                "EMIT CHANGES over a group window is not implemented: "
                "window refinements are not supported, use EMIT FINAL")
        if window.kind is GroupWindowKind.TUMBLE:
            windowed = keyed.window(TumblingWindow(window.size))
        elif window.kind is GroupWindowKind.HOP:
            windowed = keyed.window(SlidingWindow(window.size, window.slide))
        else:
            windowed = keyed.session_window(window.size)
        results = windowed.aggregate(composite)

        def to_row(value) -> Record:
            key, agg_values, win = value
            return Record(inter_schema,
                          tuple(key) + tuple(agg_values)
                          + (win.start, win.end), validate=False)

        return results.map(to_row)

    def fold(accumulator, record: Record):
        if accumulator is None:
            accumulator = composite.create_accumulator()
        return composite.add(accumulator, record)

    def running(op, element):
        accumulator = fold(op.state.get(element.key), element.value)
        op.state.put(element.key, accumulator)
        row = Record(
            inter_schema,
            tuple(element.key)
            + tuple(composite.get_result(accumulator)),
            validate=False)
        from repro.runtime.dag import Element
        yield Element(row, element.key, element.timestamp)

    return keyed.process(running)


__all__ = ["lower_statement", "compile_to_dsl"]
