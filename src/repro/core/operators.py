"""The CQL operator trichotomy (paper Figure 2 and Section 3.1).

CQL organises continuous queries around two data types — streams and
time-varying relations — and three operator classes converting between them:

* **Stream-to-Relation (S2R)** — window operators segmenting a stream into a
  time-varying relation (:func:`stream_to_relation`).
* **Relation-to-Relation (R2R)** — ordinary relational operators applied
  *pointwise in time* (:func:`select`, :func:`project`, :func:`join`,
  :func:`aggregate`, ...).
* **Relation-to-Stream (R2S)** — ``RSTREAM`` / ``ISTREAM`` / ``DSTREAM``
  turning a time-varying relation back into a stream
  (:func:`rstream`, :func:`istream`, :func:`dstream`).

These are the *reference* (denotational) implementations: clear, obviously
correct, and deliberately non-incremental.  The executors in
:mod:`repro.cql.executor` and :mod:`repro.dsms` are validated against them.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import WindowError
from repro.core.records import Record, Schema
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.stream import Stream
from repro.core.time import Timestamp
from repro.core.windows import (
    CountWindow,
    LandmarkWindow,
    NowWindow,
    PartitionedWindow,
    RangeWindow,
    SlidingWindow,
    SteppedRangeWindow,
    TumblingWindow,
    UnboundedWindow,
    WindowAssigner,
)

# ---------------------------------------------------------------------------
# Stream-to-Relation
# ---------------------------------------------------------------------------

#: Anything accepted as an S2R window specification.
S2RWindow = WindowAssigner | CountWindow | PartitionedWindow


def _relevant_instants(stream: Stream[Any], window: S2RWindow) -> list[Timestamp]:
    """Instants at which the windowed relation can change.

    Window contents change when an element enters (its timestamp) and when
    it leaves (depends on the window kind).  Evaluating the S2R operator at
    exactly these instants yields the complete change-log of the relation.
    """
    arrivals = stream.distinct_timestamps()
    instants: set[Timestamp] = set(arrivals)
    if isinstance(window, RangeWindow):
        instants.update(t + window.range for t in arrivals)
    elif isinstance(window, NowWindow):
        instants.update(t + 1 for t in arrivals)
    elif isinstance(window, TumblingWindow):
        for t in arrivals:
            instants.add(window.scope(t).end)
    elif isinstance(window, SteppedRangeWindow):
        for t in arrivals:
            instants.add(window.first_boundary_covering(t))
            instants.add(window.expiry_boundary(t))
    elif isinstance(window, SlidingWindow):
        for t in arrivals:
            # Under scope semantics an element is visible exactly until the
            # next slide boundary after it; later boundaries cannot change
            # its visibility again.  For gappy windows (slide > size) this
            # boundary lies beyond t + size, so it must not be capped by the
            # window extent — capping used to leave elements visible forever
            # in the sparse change-log.
            instants.add(window.expiry_boundary(t))
    # Unbounded, landmark, count and partitioned windows only change on
    # arrival, which ``arrivals`` already covers.
    return sorted(instants)


def _contents_at(stream: Stream[Any], window: S2RWindow,
                 t: Timestamp) -> Bag:
    """The bag of stream values visible through ``window`` at instant ``t``."""
    prefix = stream.up_to(t)
    if isinstance(window, (CountWindow, PartitionedWindow)):
        return Bag(e.value for e in window.select(list(prefix)))
    scope = window.scope(t)
    return Bag(e.value for e in prefix if e.timestamp in scope)


def stream_to_relation(stream: Stream[Any], window: S2RWindow,
                       instants: Iterable[Timestamp] | None = None
                       ) -> TimeVaryingRelation:
    """Apply a window operator: the S2R conversion of Figure 2.

    ``instants`` overrides the evaluation instants (used by the semantics
    checkers); by default the relation is evaluated at every instant where
    its contents can change, producing its exact change-log.
    """
    if instants is None:
        instants = _relevant_instants(stream, window)
    else:
        instants = sorted(set(instants))
    relation = TimeVaryingRelation(schema=stream.schema)
    for t in instants:
        relation.set_at(t, _contents_at(stream, window, t))
    return relation


def now(stream: Stream[Any]) -> TimeVaryingRelation:
    """CQL's ``[Now]`` — shorthand S2R."""
    return stream_to_relation(stream, NowWindow())


def unbounded(stream: Stream[Any]) -> TimeVaryingRelation:
    """CQL's ``[Range Unbounded]`` — shorthand S2R."""
    return stream_to_relation(stream, UnboundedWindow())


# ---------------------------------------------------------------------------
# Relation-to-Relation (pointwise lifting of bag operators)
# ---------------------------------------------------------------------------


def select(relation: TimeVaryingRelation,
           predicate: Callable[[Any], bool]) -> TimeVaryingRelation:
    """σ — keep tuples satisfying ``predicate``, at every instant."""
    return relation.lift(lambda bag: bag.filter(predicate),
                         schema=relation.schema)


def project(relation: TimeVaryingRelation,
            names: Sequence[str]) -> TimeVaryingRelation:
    """π — project record tuples onto ``names`` (bag semantics: duplicates
    are preserved)."""
    schema = relation.schema.project(names) if relation.schema else None
    return relation.lift(
        lambda bag: bag.map(lambda r: r.project(names)), schema=schema)


def rename(relation: TimeVaryingRelation, schema: Schema) -> TimeVaryingRelation:
    """ρ — relabel tuples under a new schema of the same arity."""
    return relation.lift(
        lambda bag: bag.map(lambda r: r.with_schema(schema)), schema=schema)


def cross(left: TimeVaryingRelation,
          right: TimeVaryingRelation) -> TimeVaryingRelation:
    """× — bag Cartesian product, pointwise in time: the equi-join on no
    columns."""
    return equijoin(left, right, (), ())


def join(left: TimeVaryingRelation, right: TimeVaryingRelation,
         on: Callable[[Any, Any], bool]) -> TimeVaryingRelation:
    """⋈ — theta join: product filtered by ``on(l, r)``, pointwise."""
    schema = None
    if left.schema and right.schema:
        schema = left.schema.concat(right.schema)

    def joined(lbag: Bag, rbag: Bag) -> Bag:
        out = Bag()
        for litem, lcount in lbag.items():
            for ritem, rcount in rbag.items():
                if on(litem, ritem):
                    out.add(litem.concat(ritem), lcount * rcount)
        return out

    return left.lift(joined, right, schema=schema)


def equijoin(left: TimeVaryingRelation, right: TimeVaryingRelation,
             left_key: Sequence[str],
             right_key: Sequence[str]) -> TimeVaryingRelation:
    """⋈ₖ — hash equi-join on named key columns, pointwise in time."""
    schema = None
    if left.schema and right.schema:
        schema = left.schema.concat(right.schema)

    def joined(lbag: Bag, rbag: Bag) -> Bag:
        # SQL three-valued logic: NULL = NULL is unknown, so rows with a
        # NULL key component can never match (same as the theta-join form).
        index: dict[tuple, list[tuple[Record, int]]] = defaultdict(list)
        for ritem, rcount in rbag.items():
            key = ritem.key(right_key)
            if None in key:
                continue
            index[key].append((ritem, rcount))
        out = Bag()
        for litem, lcount in lbag.items():
            key = litem.key(left_key)
            if None in key:
                continue
            for ritem, rcount in index.get(key, ()):
                out.add(litem.concat(ritem), lcount * rcount)
        return out

    return left.lift(joined, right, schema=schema)


def union(left: TimeVaryingRelation,
          right: TimeVaryingRelation) -> TimeVaryingRelation:
    """∪ — additive bag union, pointwise."""
    return left.lift(Bag.union, right, schema=left.schema)


def difference(left: TimeVaryingRelation,
               right: TimeVaryingRelation) -> TimeVaryingRelation:
    """− — bag monus, pointwise.  The canonical *non-monotonic* operator."""
    return left.lift(Bag.difference, right, schema=left.schema)


def intersection(left: TimeVaryingRelation,
                 right: TimeVaryingRelation) -> TimeVaryingRelation:
    """∩ — multiplicity-wise minimum, pointwise."""
    return left.lift(Bag.intersection, right, schema=left.schema)


def distinct(relation: TimeVaryingRelation) -> TimeVaryingRelation:
    """δ — duplicate elimination, pointwise."""
    return relation.lift(Bag.distinct, schema=relation.schema)


class AggregateKind(enum.Enum):
    """SQL aggregate functions supported by the reference evaluator."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


def fold_aggregate(kind: AggregateKind, values: list[Any]) -> Any:
    """One aggregate over its non-NULL argument values, each repeated by
    multiplicity: COUNT counts them, the others are NULL over none."""
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
    raise WindowError(f"unknown aggregate {kind}")


class AggregateSpec:
    """One aggregate column: ``kind(column) AS alias``.

    ``column=None`` means ``COUNT(*)``.
    """

    def __init__(self, kind: AggregateKind, column: str | None,
                 alias: str) -> None:
        if kind is not AggregateKind.COUNT and column is None:
            raise WindowError(f"{kind.value}(*) is only valid for COUNT")
        self.kind = kind
        self.column = column
        self.alias = alias

    def __repr__(self) -> str:
        arg = self.column if self.column is not None else "*"
        return f"{self.kind.value}({arg}) AS {self.alias}"


def aggregate(relation: TimeVaryingRelation,
              group_by: Sequence[str],
              aggregates: Sequence[AggregateSpec]) -> TimeVaryingRelation:
    """γ — grouped aggregation, pointwise in time.

    Output schema: the group-by columns followed by one column per
    aggregate alias.  With no groups and an empty input the result contains
    the single "empty aggregate" row (COUNT = 0), matching SQL.
    """
    out_fields = list(group_by) + [a.alias for a in aggregates]
    schema = Schema(out_fields)

    def grouped(bag: Bag) -> Bag:
        groups: dict[tuple, list[Record]] = defaultdict(list)
        for record in bag:
            groups[record.key(group_by)].append(record)
        if not groups and not group_by:
            groups[()] = []
        out = Bag()
        for key, rows in groups.items():
            values: list[Any] = list(key)
            for spec in aggregates:
                column_values = ([1] * len(rows) if spec.column is None
                                 else [r[spec.column] for r in rows
                                       if r[spec.column] is not None])
                values.append(fold_aggregate(spec.kind, column_values))
            out.add(Record(schema, values, validate=False))
        return out

    return relation.lift(grouped, schema=schema)


def extend(relation: TimeVaryingRelation,
           fn: Callable[[Record], Any], alias: str) -> TimeVaryingRelation:
    """Map calculation: add a computed column ``alias`` to each record."""
    base = relation.schema

    def extended(bag: Bag) -> Bag:
        out = Bag()
        for record, count in bag.items():
            schema = Schema(record.schema.fields + (alias,))
            out.add(Record(schema, record.values + (fn(record),),
                           validate=False), count)
        return out

    schema = Schema(base.fields + (alias,)) if base else None
    return relation.lift(extended, schema=schema)


# ---------------------------------------------------------------------------
# Relation-to-Stream
# ---------------------------------------------------------------------------


def rstream(relation: TimeVaryingRelation) -> Stream[Any]:
    """``RSTREAM`` — at every change point τ emit *all* of R(τ) stamped τ."""
    out: Stream[Any] = Stream(schema=relation.schema)
    for t, bag in relation.snapshots():
        for item in sorted(bag, key=repr):
            out.append(item, t)
    return out


def istream(relation: TimeVaryingRelation) -> Stream[Any]:
    """``ISTREAM`` — emit insertions: R(τ) − R(τ−) at each change point."""
    out: Stream[Any] = Stream(schema=relation.schema)
    previous = Bag()
    for t, bag in relation.snapshots():
        for item in sorted(bag.difference(previous), key=repr):
            out.append(item, t)
        previous = bag
    return out


def dstream(relation: TimeVaryingRelation) -> Stream[Any]:
    """``DSTREAM`` — emit deletions: R(τ−) − R(τ) at each change point."""
    out: Stream[Any] = Stream(schema=relation.schema)
    previous = Bag()
    for t, bag in relation.snapshots():
        for item in sorted(previous.difference(bag), key=repr):
            out.append(item, t)
        previous = bag
    return out


class R2SKind(enum.Enum):
    """The three relation-to-stream operators of CQL."""

    RSTREAM = "rstream"
    ISTREAM = "istream"
    DSTREAM = "dstream"


def relation_to_stream(relation: TimeVaryingRelation,
                       kind: R2SKind) -> Stream[Any]:
    """Dispatch to :func:`rstream` / :func:`istream` / :func:`dstream`."""
    if kind is R2SKind.RSTREAM:
        return rstream(relation)
    if kind is R2SKind.ISTREAM:
        return istream(relation)
    return dstream(relation)
