"""Reference (denotational) evaluation of logical plans.

Interprets a :mod:`repro.plan.ir` plan directly with the core operators
of :mod:`repro.core.operators` over *recorded* input streams — the
executable form of CQL's abstract semantics (paper Section 3.1): the result
at every instant τ is exactly what the one-shot relational query would
return over the inputs up to τ.

This evaluator replays history and is deliberately non-incremental; the
incremental executor (:mod:`repro.cql.executor`) and the DSMS runtime are
both validated against it, and the Figure 1 / Listing 1 benchmarks use it
as the re-execution baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping

from repro.core.errors import PlanError
from repro.core.operators import AggregateKind, relation_to_stream
from repro.core.records import Record
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.stream import Stream
from repro.plan.ir import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    RelationScan,
    RelToStream,
    SetOp,
    StreamScan,
    WindowOp,
)
from repro.cql.catalog import Catalog
from repro.cql.expressions import compile_expr, compile_predicate
from repro.cql.planner import window_object
from repro.core import operators as core_ops


def reference_evaluate(plan: LogicalOp, catalog: Catalog,
                       streams: Mapping[str, Stream[Record]],
                       ) -> TimeVaryingRelation | Stream[Record]:
    """Evaluate ``plan`` denotationally over recorded streams.

    ``streams`` maps stream *names* to recorded :class:`Stream` objects of
    records in the stream's base schema.  Relations come from the catalog's
    current contents.  Returns a stream when the plan's root is an R2S
    operator and a time-varying relation otherwise.
    """
    if isinstance(plan, RelToStream):
        relation = _evaluate_relation(plan.child, catalog, streams)
        return relation_to_stream(relation, plan.kind)
    return _evaluate_relation(plan, catalog, streams)


def _qualified_stream(scan: StreamScan,
                      streams: Mapping[str, Stream[Record]],
                      ) -> Stream[Record]:
    try:
        recorded = streams[scan.name]
    except KeyError:
        raise PlanError(
            f"no recorded stream for {scan.name!r}") from None
    return recorded.map(lambda r: r.with_schema(scan.schema),
                        schema=scan.schema)


def _evaluate_relation(plan: LogicalOp, catalog: Catalog,
                       streams: Mapping[str, Stream[Record]],
                       ) -> TimeVaryingRelation:
    if isinstance(plan, WindowOp):
        # The optimizer may have pushed filters below the window
        # (push_filter_through_window).  Evaluate them *above* the window:
        # for time-based windows the two orders produce the same relation,
        # and windowing the raw stream keeps the change-point structure
        # (instants where the relation is re-evaluated) identical to the
        # un-rewritten plan's.
        node = plan.child
        predicates = []
        while isinstance(node, Filter):
            predicates.append(node.predicate)
            node = node.child
        scan = node
        if not isinstance(scan, StreamScan):
            raise PlanError("window operator must sit on a stream scan")
        stream = _qualified_stream(scan, streams)
        window = window_object(plan.spec, schema=scan.schema)
        relation = core_ops.stream_to_relation(stream, window)
        for predicate in predicates:
            test = compile_predicate(predicate, scan.schema)
            relation = core_ops.select(
                relation, lambda record, test=test: test(record.values))
        return relation

    if isinstance(plan, StreamScan):
        raise PlanError(
            f"bare stream scan {plan.name!r}: streams must be windowed "
            f"before relational operators apply (CQL's S2R rule)")

    if isinstance(plan, RelationScan):
        contents = catalog.relation(plan.name).contents
        relabeled = contents.map(lambda r: r.with_schema(plan.schema))
        relation = TimeVaryingRelation(schema=plan.schema)
        relation.set_at(0, relabeled)
        return relation

    if isinstance(plan, Filter):
        child = _evaluate_relation(plan.child, catalog, streams)
        predicate = compile_predicate(plan.predicate, plan.child.schema)
        return core_ops.select(child,
                               lambda record: predicate(record.values))

    if isinstance(plan, Project):
        child = _evaluate_relation(plan.child, catalog, streams)
        evaluators = [compile_expr(e, plan.child.schema)
                      for e in plan.exprs]
        schema = plan.schema

        def project_record(record: Record) -> Record:
            values = record.values
            return Record(schema, tuple(e(values) for e in evaluators),
                          validate=False)

        return child.lift(lambda bag: bag.map(project_record), schema=schema)

    if isinstance(plan, Join):
        left = _evaluate_relation(plan.left, catalog, streams)
        right = _evaluate_relation(plan.right, catalog, streams)
        if plan.left_keys:
            joined = core_ops.equijoin(left, right,
                                       list(plan.left_keys),
                                       list(plan.right_keys))
        else:
            joined = core_ops.cross(left, right)
        if plan.residual is not None:
            predicate = compile_predicate(plan.residual, plan.schema)
            joined = core_ops.select(
                joined, lambda record: predicate(record.values))
        return joined

    if isinstance(plan, Aggregate):
        child = _evaluate_relation(plan.child, catalog, streams)
        return _evaluate_aggregate(plan, child)

    if isinstance(plan, Distinct):
        child = _evaluate_relation(plan.child, catalog, streams)
        return core_ops.distinct(child)

    if isinstance(plan, SetOp):
        left = _evaluate_relation(plan.left, catalog, streams)
        right = _evaluate_relation(plan.right, catalog, streams)
        fn = {"union": core_ops.union,
              "difference": core_ops.difference,
              "intersection": core_ops.intersection}[plan.kind]
        return fn(left, right)

    if isinstance(plan, RelToStream):
        raise PlanError("nested relation-to-stream operators are invalid")

    raise PlanError(f"cannot evaluate plan node {plan!r}")


def _evaluate_aggregate(plan: Aggregate,
                        child: TimeVaryingRelation) -> TimeVaryingRelation:
    in_schema = plan.child.schema
    out_schema = plan.schema
    group_indexes = [in_schema.index_of(c) for c in plan.group_by]
    arg_evaluators = [
        None if spec.arg is None else compile_expr(spec.arg, in_schema)
        for spec in plan.aggregates]

    def aggregate_bag(bag: Bag) -> Bag:
        groups: dict[tuple, list[Record]] = defaultdict(list)
        for record in bag:
            groups[tuple(record[i] for i in group_indexes)].append(record)
        if not groups and not plan.group_by:
            groups[()] = []
        out = Bag()
        for key, rows in groups.items():
            values: list[Any] = list(key)
            for spec, evaluator in zip(plan.aggregates, arg_evaluators):
                values.append(_aggregate_value(spec.kind, evaluator, rows))
            out.add(Record(out_schema, values, validate=False))
        return out

    return child.lift(aggregate_bag, schema=out_schema)


def _aggregate_value(kind: AggregateKind, evaluator, rows: list[Record]):
    if evaluator is None:  # COUNT(*)
        return len(rows)
    values = [v for v in (evaluator(r.values) for r in rows)
              if v is not None]
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
