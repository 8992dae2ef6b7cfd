"""A view refresh runs one batch per operator per source: checked by
counting calls and constructions, never by a clock, at two delta sizes."""

from collections import Counter

import pytest

import repro.exec.plan as plan_module
from repro.core.operators import AggregateKind
from repro.core.records import Schema
from repro.exec.operator import FusedOperator, Operator
from repro.plan.exprs import Binary, BinOp, Column, Literal
from repro.plan.ir import Aggregate, AggregateExpr, Filter, Join, Project
from repro.views import Delta, DynamicTableService, make_scan, recompute
from repro.views.operators import (
    DeltaAggregateOp,
    DeltaFilterOp,
    DeltaJoinOp,
    DeltaProjectOp,
)

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


def members(view):
    ops = []
    for name in view.handle.operator_names():
        op = view.handle.operator(name)
        ops.extend(op.members if isinstance(op, FusedOperator) else [op])
    return ops


def assert_correct(service, view):
    contents = {src: service.read(src) for src in view.sources}
    assert service.read("by_region") == recompute(view.plan, contents)


@pytest.mark.parametrize("deltas", [10, 1_000])
def test_one_emit_batch_per_operator_per_source_batch(deltas, monkeypatch):
    service, view = make_service()
    assert {type(op) for op in members(view)} >= {
        DeltaFilterOp, DeltaProjectOp, DeltaJoinOp, DeltaAggregateOp}
    calls = Counter()
    emit, emit_batch = Operator.emit, Operator.emit_batch

    def counted_emit(self, value):
        calls["emit", type(self).__name__] += 1
        emit(self, value)

    def counted_emit_batch(self, batch):
        calls["emit_batch", type(self).__name__] += 1
        emit_batch(self, batch)

    monkeypatch.setattr(Operator, "emit", counted_emit)
    monkeypatch.setattr(Operator, "emit_batch", counted_emit_batch)
    for version in (2, 3):
        commit(service, version, deltas)
        calls.clear()
        assert service.tick(version) == ["by_region"]
        # orders feed σ → π → ⋈ (left); customers feed ⋈ (right); each
        # of the join's two output batches goes through γ.
        assert calls == Counter({
            ("emit_batch", "DeltaFilterOp"): 1,
            ("emit_batch", "DeltaProjectOp"): 1,
            ("emit_batch", "DeltaJoinOp"): 2,
            ("emit_batch", "DeltaAggregateOp"): 2})
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
def test_one_delta_built_per_delta_crossing_an_operator(deltas,
                                                        monkeypatch):
    tally = Counter()
    init = Delta.__init__
    receive, receive_batch = \
        plan_module._Node.receive, plan_module._Node.receive_batch

    def counted_delta(self, row, weight):
        tally["built"] += 1
        init(self, row, weight)

    def counted_receive(self, value, input_index):
        tally["crossed"] += 1
        receive(self, value, input_index)

    def counted_receive_batch(self, batch, input_index):
        tally["crossed"] += len(batch)
        receive_batch(self, batch, input_index)

    monkeypatch.setattr(Delta, "__init__", counted_delta)
    monkeypatch.setattr(plan_module._Node, "receive", counted_receive)
    monkeypatch.setattr(plan_module._Node, "receive_batch",
                        counted_receive_batch)
    # Patched before the plan opens: sources bind their entry points then.
    service, view = make_service()
    for version in (2, 3):
        commit(service, version, deltas)
        tally.clear()
        service.tick(version)
        assert tally["crossed"] >= deltas
        assert tally["built"] <= tally["crossed"]
        assert_correct(service, view)
