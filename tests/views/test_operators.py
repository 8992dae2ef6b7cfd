"""A view's plan on CQL's physical operators: each compiled shape vs the
recompute reference, one ``evaluate`` instant per refresh."""

import pytest

from repro.core import Schema, StateError
from repro.core.records import Record
from repro.core.relation import Bag, Changelog, labelled
from repro.cql.catalog import Catalog
from repro.plan.exprs import Binary, BinOp, Column, Literal
from repro.plan.ir import (
    Aggregate,
    AggregateExpr,
    Distinct,
    Filter,
    Join,
    Project,
    RelationScan,
    SetOp,
    walk,
)
from repro.core.operators import AggregateKind
from repro.views import DynamicTable, make_scan, recompute

pytestmark = pytest.mark.views

SCHEMA = Schema(["g", "v"])


def rows_to_deltas(rows, weight=1):
    """Table rows as the values-tuple deltas a view's scans take."""
    return [(SCHEMA.coerce(r), weight) for r in rows]


def compile_view(plan):
    """The plan compiled as a dynamic table over tables of ``SCHEMA``."""
    catalog = Catalog()
    for node in walk(plan):
        if isinstance(node, RelationScan) and \
                not catalog.is_relation(node.name):
            catalog.register_relation(node.name, SCHEMA)
    return DynamicTable("v", plan, 0, catalog)


def bag_of(rows, schema):
    bag = Bag()
    for row in rows:
        bag.add(Record.from_mapping(schema, row))
    return bag


def run_incremental(plan, batches):
    """Prime a compiled view (instant 0) and evaluate one instant per
    batch; return the running Bag, labelled with the plan's schema."""
    view = compile_view(plan)
    log = Changelog()
    for version, batch in enumerate([{}] + batches):
        log.commit(version, view.evaluate(version, batch))
    return labelled(log.contents, plan.schema)


def sorted_items(bag):
    return sorted(bag.items(), key=repr)


class TestAggregate:
    def plan(self, group=True):
        scan = make_scan("t", "s", SCHEMA)
        aggs = (AggregateExpr(AggregateKind.COUNT, None, "n"),
                AggregateExpr(AggregateKind.SUM, Column("s.v"), "total"),
                AggregateExpr(AggregateKind.MIN, Column("s.v"), "lo"))
        if group:
            return Aggregate(scan, ("s.g",), ("g",), aggs)
        return Aggregate(scan, (), (), aggs)

    def test_grouped_matches_reference(self):
        rows = [{"g": 0, "v": 1}, {"g": 0, "v": 3}, {"g": 1, "v": None}]
        got = run_incremental(self.plan(), [{"t": rows_to_deltas(rows)}])
        want = recompute(self.plan(), {"t": bag_of(rows, SCHEMA)})
        assert sorted_items(got) == sorted_items(want)

    def test_group_vanishes_at_zero_rows(self):
        rows = [{"g": 0, "v": 2}]
        got = run_incremental(self.plan(), [
            {"t": rows_to_deltas(rows)},
            {"t": rows_to_deltas(rows, weight=-1)}])
        assert sorted_items(got) == []

    def test_global_aggregate_emits_empty_input_row(self):
        got = run_incremental(self.plan(group=False), [])
        want = recompute(self.plan(group=False), {"t": Bag()})
        assert sorted_items(got) == sorted_items(want)
        (row, count), = got.items()
        assert count == 1 and row["n"] == 0 and row["total"] is None

    def test_global_aggregate_returns_to_empty_row_on_full_delete(self):
        rows = [{"g": 0, "v": 7}]
        got = run_incremental(self.plan(group=False), [
            {"t": rows_to_deltas(rows)},
            {"t": rows_to_deltas(rows, weight=-1)}])
        (row, _), = got.items()
        assert row["n"] == 0

    def test_over_retraction_raises(self):
        view = compile_view(self.plan())
        view.evaluate(0, {})
        with pytest.raises(StateError):
            view.evaluate(
                1, {"t": rows_to_deltas([{"g": 0, "v": 1}], weight=-1)})

    def test_retracting_an_unheld_extreme_raises(self):
        view = compile_view(self.plan())
        view.evaluate(0, {})
        view.evaluate(1, {"t": rows_to_deltas([{"g": 0, "v": 1}])})
        # Same group and row count, but the MIN multiset never held 5.
        with pytest.raises(StateError, match="does not hold"):
            view.evaluate(2, {"t": rows_to_deltas([{"g": 0, "v": 1}])
                              + rows_to_deltas([{"g": 0, "v": 5}], -1)})

    def test_weighted_deltas_fold_multiplicity(self):
        got = run_incremental(self.plan(), [
            {"t": [((0, 2), 3)]}])
        (row, _), = got.items()
        assert row["n"] == 3 and row["total"] == 6


class TestSpecOutput:
    KINDS = (AggregateKind.COUNT, AggregateKind.SUM, AggregateKind.AVG,
             AggregateKind.MIN, AggregateKind.MAX)

    def plan(self):
        scan = make_scan("t", "s", SCHEMA)
        aggs = tuple(AggregateExpr(kind, Column("s.v"), kind.name.lower())
                     for kind in self.KINDS)
        return Aggregate(scan, (), (), aggs + (
            AggregateExpr(AggregateKind.COUNT, None, "rows"),))

    def only_row(self, bag):
        (row, count), = bag.items()
        assert count == 1
        return row.as_dict()

    def test_empty_accumulator_null_except_count(self):
        empty = self.only_row(run_incremental(self.plan(), []))
        assert empty == {"count": 0, "sum": None, "avg": None, "min": None,
                         "max": None, "rows": 0}
        # NULL arguments are skipped: a NULL-only group is "empty" too.
        nulls = self.only_row(run_incremental(
            self.plan(), [{"t": rows_to_deltas([{"g": 0, "v": None}])}]))
        assert nulls == dict(empty, rows=1)

    def test_avg_is_sum_over_count(self):
        got = self.only_row(run_incremental(self.plan(), [
            {"t": rows_to_deltas([{"g": 0, "v": 1}, {"g": 0, "v": 2},
                                  {"g": 0, "v": None}])}]))
        assert got["avg"] == 1.5 and got["count"] == 2 and got["rows"] == 3


class TestDistinct:
    def plan(self):
        scan = make_scan("t", "s", SCHEMA)
        return Distinct(Project(scan, (Column("s.g"),), ("g",)))

    def test_multiplicity_collapses(self):
        rows = [{"g": 1, "v": 0}, {"g": 1, "v": 5}, {"g": 2, "v": 0}]
        got = run_incremental(self.plan(), [{"t": rows_to_deltas(rows)}])
        want = recompute(self.plan(), {"t": bag_of(rows, SCHEMA)})
        assert sorted_items(got) == sorted_items(want)
        assert all(count == 1 for _, count in got.items())

    def test_retraction_only_at_zero_support(self):
        rows = [{"g": 1, "v": 0}, {"g": 1, "v": 5}]
        got = run_incremental(self.plan(), [
            {"t": rows_to_deltas(rows)},
            {"t": rows_to_deltas([rows[0]], weight=-1)}])
        assert len(sorted_items(got)) == 1  # still one distinct g


class TestSetOpAndJoin:
    def test_setops_match_reference(self):
        left = Project(make_scan("a", "l", SCHEMA),
                       (Column("l.g"),), ("x",))
        right = Project(make_scan("b", "r", SCHEMA),
                        (Column("r.g"),), ("x",))
        a_rows = [{"g": 1, "v": 0}, {"g": 1, "v": 1}, {"g": 2, "v": 0}]
        b_rows = [{"g": 1, "v": 9}, {"g": 3, "v": 9}]
        for kind in ("union", "difference", "intersection"):
            plan = SetOp(kind, left, right)
            got = run_incremental(plan, [
                {"a": rows_to_deltas(a_rows), "b": rows_to_deltas(b_rows)}])
            want = recompute(plan, {"a": bag_of(a_rows, SCHEMA),
                                    "b": bag_of(b_rows, SCHEMA)})
            assert sorted_items(got) == sorted_items(want), kind

    def test_join_matches_reference_and_skips_null_keys(self):
        plan = Join(make_scan("a", "l", SCHEMA), make_scan("b", "r", SCHEMA),
                    left_keys=("l.g",), right_keys=("r.g",))
        a_rows = [{"g": 1, "v": 0}, {"g": None, "v": 7}]
        b_rows = [{"g": 1, "v": 2}, {"g": 1, "v": 3}, {"g": None, "v": 8}]
        got = run_incremental(plan, [
            {"a": rows_to_deltas(a_rows)}, {"b": rows_to_deltas(b_rows)}])
        want = recompute(plan, {"a": bag_of(a_rows, SCHEMA),
                                "b": bag_of(b_rows, SCHEMA)})
        assert sorted_items(got) == sorted_items(want)
        assert sum(count for _, count in got.items()) == 2  # NULLs dropped

    def test_difference_is_the_monus_under_deletes(self):
        plan = SetOp("difference",
                     Project(make_scan("a", "l", SCHEMA),
                             (Column("l.g"),), ("x",)),
                     Project(make_scan("b", "r", SCHEMA),
                             (Column("r.g"),), ("x",)))
        one, other = {"g": 1, "v": 0}, {"g": 1, "v": 5}
        # 2 - 1 copies, then 2 - 3 (clamped at 0), then 1 - 3, then 1 - 0.
        got = run_incremental(plan, [
            {"a": rows_to_deltas([one, other]), "b": rows_to_deltas([one])},
            {"b": rows_to_deltas([other, {"g": 1, "v": 9}])},
            {"a": rows_to_deltas([one], -1)},
            {"b": rows_to_deltas([one, other, {"g": 1, "v": 9}], -1)}])
        assert sorted_items(got) == sorted_items(recompute(plan, {
            "a": bag_of([other], SCHEMA), "b": Bag()}))
        (row, count), = got.items()
        assert row["x"] == 1 and count == 1

    def test_set_op_refuses_a_side_it_does_not_hold(self):
        plan = SetOp("intersection",
                     Project(make_scan("a", "l", SCHEMA),
                             (Column("l.g"),), ("x",)),
                     Project(make_scan("b", "r", SCHEMA),
                             (Column("r.g"),), ("x",)))
        view = compile_view(plan)
        view.evaluate(0, {"a": rows_to_deltas([{"g": 1, "v": 0}])})
        with pytest.raises(StateError, match="right side does not hold"):
            view.evaluate(1, {"b": rows_to_deltas([{"g": 1, "v": 0}], -1)})
        assert view.evaluate(2, {"b": rows_to_deltas([{"g": 1, "v": 0}])}) \
            == [((1,), 1)]

    def test_join_refuses_an_unheld_row_before_indexing_it(self):
        plan = Join(make_scan("a", "l", SCHEMA), make_scan("b", "r", SCHEMA),
                    left_keys=("l.g",), right_keys=("r.g",))
        view = compile_view(plan)
        view.evaluate(0, {})
        with pytest.raises(StateError, match="right side does not hold"):
            view.evaluate(1, {"b": rows_to_deltas([{"g": 1, "v": 2}], -1)})
        # The refused retraction left no trace in the right index: a
        # valid insert on each side joins once.
        got = view.evaluate(2, {"a": rows_to_deltas([{"g": 1, "v": 0}]),
                                "b": rows_to_deltas([{"g": 1, "v": 2}])})
        assert got == [((1, 0, 1, 2), 1)]

    def test_join_retraction(self):
        plan = Join(make_scan("a", "l", SCHEMA), make_scan("b", "r", SCHEMA),
                    left_keys=("l.g",), right_keys=("r.g",))
        a_rows = [{"g": 1, "v": 0}]
        b_rows = [{"g": 1, "v": 2}]
        got = run_incremental(plan, [
            {"a": rows_to_deltas(a_rows)},
            {"b": rows_to_deltas(b_rows)},
            {"a": rows_to_deltas(a_rows, weight=-1)}])
        assert sorted_items(got) == []


class TestFilterProject:
    def test_filter_and_computed_projection(self):
        scan = make_scan("t", "s", SCHEMA)
        plan = Project(
            Filter(scan, Binary(BinOp.GT, Column("s.v"), Literal(1))),
            (Column("s.g"), Binary(BinOp.ADD, Column("s.v"), Literal(10))),
            ("g", "vv"))
        rows = [{"g": 0, "v": 1}, {"g": 0, "v": 2}, {"g": 1, "v": None}]
        got = run_incremental(plan, [{"t": rows_to_deltas(rows)}])
        want = recompute(plan, {"t": bag_of(rows, SCHEMA)})
        assert sorted_items(got) == sorted_items(want)
        (row, _), = got.items()
        assert row["vv"] == 12
