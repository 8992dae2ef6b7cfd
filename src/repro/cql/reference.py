"""Reference (denotational) evaluation of logical plans.

CQL's semantics (paper Section 3.1), executable: S2R windows, then an
instantaneous relational query at every instant, then R2S.
:func:`recompute` is the relational middle — the one R2R evaluator, over
complete bags, no deltas, no state.  :func:`reference_evaluate` lifts it
pointwise: it evaluates the whole R2R plan once per change point of any
leaf (a window over a recorded stream, or a relation from instant 0)
through one :meth:`~repro.core.relation.TimeVaryingRelation.lift`, then
applies R2S.  Every R2R node is a pure function of its inputs' bags at an
instant, so this gives the same coalesced relation, change points
included, as lifting node by node.

The executor, the DSMS runtime and dynamic tables are all validated
against this module, so it imports none of them; the Figure 1 / Listing 1
benchmarks use it as the re-execution baseline.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.core.errors import PlanError
from repro.core.operators import (
    fold_aggregate,
    relation_to_stream,
    select,
    stream_to_relation,
)
from repro.core.records import Record, trusted_record
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
    WindowAggregate,
    WindowOp,
)
from repro.cql.catalog import Catalog
from repro.cql.expressions import compile_expr, compile_predicate
from repro.cql.planner import window_object

#: A compiled R2R plan: the bags of its leaves in, the plan's bag out.
Evaluator = Callable[[Mapping[Hashable, Bag]], Bag]

_SET_OPS = {"union": Bag.union, "difference": Bag.difference,
            "intersection": Bag.intersection}


def recompute(plan: LogicalOp, contents: Mapping[Hashable, Bag]) -> Bag:
    """Evaluate the R2R ``plan`` over complete leaf contents: a bag per
    scanned table or view name (per ``WindowOp`` node, the bag its
    window holds)."""
    return _compiled(plan, [])(contents)


def reference_evaluate(plan: LogicalOp, catalog: Catalog,
                       streams: Mapping[str, Stream[Record]],
                       ) -> TimeVaryingRelation | Stream[Record]:
    """Evaluate ``plan`` denotationally over recorded streams.

    ``streams`` maps stream *names* to recorded :class:`Stream` objects of
    records in the stream's base schema.  Relations come from the catalog's
    current contents.  Returns a stream when the plan's root is an R2S
    operator and a time-varying relation otherwise.
    """
    root = plan.child if isinstance(plan, RelToStream) else plan
    found: list[LogicalOp] = []
    evaluate = _compiled(root, found)
    leaves: dict[Hashable, TimeVaryingRelation] = {}
    for leaf in found:
        if isinstance(leaf, RelationScan):
            relation = TimeVaryingRelation(schema=leaf.schema)
            relation.set_at(0, catalog.relation(leaf.name).contents)
            leaves[leaf.name] = relation
        else:
            leaves[leaf] = _window_leaf(leaf, streams)
    keys = list(leaves)
    first, *rest = leaves.values()
    relation = first.lift(lambda *bags: evaluate(dict(zip(keys, bags))),
                          *rest, schema=root.schema)
    if isinstance(plan, RelToStream):
        return relation_to_stream(relation, plan.kind)
    return relation


def _window_leaf(window: WindowOp, streams: Mapping[str, Stream[Record]],
                 ) -> TimeVaryingRelation:
    """The S2R relation of one window over its recorded stream.  Filters
    the optimizer pushed below the window apply above it: for time-based
    windows the orders agree, and windowing the raw stream keeps the
    un-rewritten plan's change points."""
    node, predicates = window.child, []
    while isinstance(node, Filter):
        predicates.append(node.predicate)
        node = node.child
    if not isinstance(node, StreamScan):
        raise PlanError("window operator must sit on a stream scan")
    if node.name not in streams:
        raise PlanError(f"no recorded stream for {node.name!r}")
    schema = node.schema
    stream = streams[node.name].map(lambda r: r.with_schema(schema),
                                    schema=schema)
    relation = stream_to_relation(stream, window_object(window.spec, schema))
    for predicate in predicates:
        test = compile_predicate(predicate, schema)
        relation = select(relation,
                          lambda record, test=test: test(record.values))
    return relation


def _leaf(contents: Mapping[Hashable, Bag], key: Hashable) -> Bag:
    bag = contents.get(key)
    if bag is None:
        raise PlanError(f"no contents for leaf {key!r}")
    return bag


def _compiled(plan: LogicalOp, leaves: list[LogicalOp]) -> Evaluator:
    """Compile ``plan`` once into a function of its leaves' bags,
    appending each leaf it reads to ``leaves``: a ``RelationScan``
    (keyed by name) or a ``WindowOp`` (keyed by node)."""
    if isinstance(plan, RelationScan):
        leaves.append(plan)
        name, schema = plan.name, plan.schema
        return lambda contents: _leaf(contents, name).map(
            lambda row: row.with_schema(schema))
    if isinstance(plan, WindowOp):
        leaves.append(plan)
        return lambda contents: _leaf(contents, plan)
    if isinstance(plan, StreamScan):
        raise PlanError(
            f"bare stream scan {plan.name!r}: streams must be windowed "
            f"before relational operators apply (CQL's S2R rule)")
    if isinstance(plan, Filter):
        child = _compiled(plan.child, leaves)
        predicate = compile_predicate(plan.predicate, plan.child.schema)
        return lambda contents: child(contents).filter(
            lambda row: predicate(row.values))
    if isinstance(plan, Project):
        child = _compiled(plan.child, leaves)
        evaluators = [compile_expr(e, plan.child.schema) for e in plan.exprs]
        schema = plan.schema
        return lambda contents: child(contents).map(
            lambda row: trusted_record(
                schema, tuple(e(row.values) for e in evaluators)))
    if isinstance(plan, Join):
        return _compiled_join(plan, leaves)
    if isinstance(plan, (Aggregate, WindowAggregate)):
        if isinstance(plan, WindowAggregate) and plan.window is not None:
            raise PlanError("group windows have no reference semantics yet")
        return _compiled_aggregate(plan, leaves)
    if isinstance(plan, Distinct):
        child = _compiled(plan.child, leaves)
        return lambda contents: child(contents).distinct()
    if isinstance(plan, SetOp):
        left = _compiled(plan.left, leaves)
        right = _compiled(plan.right, leaves)
        combine, schema = _SET_OPS[plan.kind], plan.schema
        if plan.right.schema.fields == schema.fields:
            return lambda contents: combine(left(contents), right(contents))
        # By position: the right operand's rows take the left's labels.
        return lambda contents: combine(left(contents), right(contents).map(
            lambda row: row.with_schema(schema)))
    if isinstance(plan, RelToStream):
        raise PlanError("nested relation-to-stream operators are invalid")
    raise PlanError(f"cannot evaluate plan node {plan!r}")


def _compiled_join(plan: Join, leaves: list[LogicalOp]) -> Evaluator:
    """⋈ as a hash join on the equi-keys (none: a cross join); a NULL key
    component never matches (SQL three-valued logic)."""
    left = _compiled(plan.left, leaves)
    right = _compiled(plan.right, leaves)
    left_indexes = [plan.left.schema.index_of(k) for k in plan.left_keys]
    right_indexes = [plan.right.schema.index_of(k) for k in plan.right_keys]
    residual = (compile_predicate(plan.residual, plan.schema)
                if plan.residual is not None else None)

    def join(contents: Mapping[Hashable, Bag]) -> Bag:
        index: dict[tuple, list[tuple[Record, int]]] = {}
        for row, count in right(contents).items():
            key = tuple(row.values[i] for i in right_indexes)
            if None not in key:
                index.setdefault(key, []).append((row, count))
        out = Bag()
        for row, count in left(contents).items():
            key = tuple(row.values[i] for i in left_indexes)
            if None in key:
                continue
            for other, other_count in index.get(key, ()):
                joined = row.concat(other)
                if residual is None or residual(joined.values):
                    out.add(joined, count * other_count)
        return out

    return join


def _compiled_aggregate(plan: Aggregate | WindowAggregate,
                        leaves: list[LogicalOp]) -> Evaluator:
    """γ from scratch: per group, each aggregate folds its non-NULL
    argument values (a 1 per row for COUNT(*)) repeated by multiplicity.
    An ungrouped aggregate of an empty relation is one row (SQL)."""
    child = _compiled(plan.child, leaves)
    in_schema = plan.child.schema
    group_indexes = [in_schema.index_of(name) for name in plan.group_by]
    evaluators = [None if agg.arg is None else compile_expr(agg.arg, in_schema)
                  for agg in plan.aggregates]
    kinds = [agg.kind for agg in plan.aggregates]
    schema = plan.schema

    def aggregate(contents: Mapping[Hashable, Bag]) -> Bag:
        groups: dict[tuple, list[list]] = {}
        if not group_indexes:
            groups[()] = [[] for _ in kinds]
        for row, count in child(contents).items():
            values = row.values
            key = tuple(values[i] for i in group_indexes)
            columns = groups.get(key)
            if columns is None:
                columns = groups[key] = [[] for _ in kinds]
            for column, evaluator in zip(columns, evaluators):
                value = 1 if evaluator is None else evaluator(values)
                if value is not None:
                    column.extend([value] * count)
        out = Bag()
        for key, columns in groups.items():
            out.add(trusted_record(schema, key + tuple(
                fold_aggregate(kind, column)
                for kind, column in zip(kinds, columns))))
        return out

    return aggregate
