"""A view refresh is one instant on CQL's physical operators: one
``process`` per operator per refresh, checked by counting calls and
constructions, never by a clock, at two delta sizes."""

from collections import Counter

import pytest

from repro.core.operators import AggregateKind
from repro.core.records import Schema
from repro.cql.executor import (
    AggregateOp,
    JoinOp,
    RelationSourceOp,
    SpineOp,
)
from repro.plan.exprs import Binary, BinOp, Column, Literal
from repro.plan.ir import Aggregate, AggregateExpr, Filter, Join, Project
from repro.views import DynamicTableService, make_scan, recompute

pytestmark = pytest.mark.views

ORDERS = Schema(["oid", "cust", "amount"])
CUSTOMERS = Schema(["id", "region"])
CUSTOMER_COUNT = 20


def chain_plan():
    """γ(region; SUM, COUNT) over (π(cust, amount) σ(amount > 0) orders)
    ⋈ customers."""
    orders = make_scan("orders", "o", ORDERS)
    kept = Project(
        Filter(orders, Binary(BinOp.GT, Column("o.amount"), Literal(0))),
        (Column("o.cust"), Column("o.amount")), ("cust", "amount"))
    joined = Join(kept, make_scan("customers", "c", CUSTOMERS),
                  left_keys=("cust",), right_keys=("c.id",))
    return Aggregate(joined, ("c.region",), ("region",), (
        AggregateExpr(AggregateKind.SUM, Column("amount"), "total"),
        AggregateExpr(AggregateKind.COUNT, None, "n")))


def make_service():
    service = DynamicTableService()
    service.create_table("orders", ORDERS)
    service.create_table("customers", CUSTOMERS)
    service.apply("orders", inserts=[
        {"oid": oid, "cust": oid % CUSTOMER_COUNT, "amount": 10}
        for oid in range(100)], at=1)
    service.apply("customers", inserts=[
        {"id": cust, "region": cust % 3} for cust in range(CUSTOMER_COUNT)],
        at=1)
    view = service.create_from_plan("by_region", chain_plan())
    return service, view


def commit(service, version, deltas):
    """``deltas`` changes at ``version``: a customer moves region (two on
    ``customers``), the rest are order inserts — every one passes the
    filter and finds its customer."""
    cust = version % CUSTOMER_COUNT
    service.apply("customers",
                  deletes=[{"id": cust, "region": cust % 3}],
                  inserts=[{"id": cust, "region": 3 + version}],
                  at=version)
    service.apply("orders", inserts=[
        {"oid": 10_000 * version + n, "cust": n % CUSTOMER_COUNT,
         "amount": 1 + n % 7} for n in range(deltas - 2)], at=version)


def operators(view):
    return [op for _, op in view.operators()]


def assert_correct(service, view):
    contents = {src: service.read(src) for src in view.sources}
    assert service.read("by_region") == recompute(view.plan, contents)


@pytest.mark.parametrize("deltas", [10, 1_000])
def test_one_process_per_operator_per_refresh(deltas, monkeypatch):
    service, view = make_service()
    kinds = {type(op) for op in operators(view)}
    assert kinds == {RelationSourceOp, SpineOp, JoinOp, AggregateOp}
    calls = Counter()
    for kind in kinds:
        def counted(self, t, child_deltas, _process=kind.process):
            calls[type(self).__name__] += 1
            return _process(self, t, child_deltas)

        monkeypatch.setattr(kind, "process", counted)
    for version in (2, 3):
        commit(service, version, deltas)
        calls.clear()
        assert service.tick(version) == ["by_region"]
        # orders feed σ → π (one fused spine call) → ⋈ (left) and
        # customers ⋈ (right) in one instant: the join takes both sides'
        # batches in one call, and γ its one output batch.
        assert calls == Counter({"RelationSourceOp": 2, "SpineOp": 1,
                                 "JoinOp": 1, "AggregateOp": 1})
        assert_correct(service, view)


@pytest.mark.parametrize("deltas", [10, 1_000])
def test_no_schema_built_after_the_first_refresh(deltas, monkeypatch):
    service, _ = make_service()
    built = []
    init = Schema.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    commit(service, 2, deltas)
    service.tick(2)
    monkeypatch.setattr(Schema, "__init__", counted)
    for version in (3, 4, 5):
        commit(service, version, deltas)
        service.tick(version)
    assert built == []


@pytest.mark.parametrize("deltas", [10, 1_000])
def test_one_row_built_per_delta_crossing_an_operator(deltas, monkeypatch):
    """Deltas are bare pairs of values tuples: a refresh builds its rows
    as tuples, at most one per delta crossing a plan edge, and builds no
    Record at all, however many deltas cross — rows are labelled only
    when read."""
    built = Counter()
    record_type = Schema.record_type.fget

    def counting(schema):
        cls = record_type(schema)

        def label(values):
            built["rows"] += 1
            return cls(values)
        return label

    service, view = make_service()
    monkeypatch.setattr(Schema, "record_type", property(counting))
    for version in (2, 3):
        commit(service, version, deltas)
        crossed = sum(op.received for op in operators(view))
        built.clear()
        service.tick(version)
        crossed = sum(op.received for op in operators(view)) - crossed
        assert crossed >= deltas
        assert built["rows"] == 0
        assert_correct(service, view)
