"""CREATE DYNAMIC TABLE surface syntax and its lowering."""

import pytest

from repro.core import ParseError, PlanError
from repro.core.records import Schema
from repro.cql.catalog import Catalog
from repro.plan.ir import RelationScan, StreamScan
from repro.sql import CreateDynamicTable, parse_statement
from repro.sql.lower import lower_statement

pytestmark = pytest.mark.views

QUERY = ("SELECT region, SUM(amount) AS total FROM orders "
         "GROUP BY region EMIT CHANGES")


class TestParse:
    def test_create_with_integer_lag(self):
        statement = parse_statement(
            f"CREATE DYNAMIC TABLE t TARGET_LAG = 3 AS {QUERY}")
        assert isinstance(statement, CreateDynamicTable)
        assert statement.name == "t"
        assert statement.target_lag == 3
        assert statement.select.source == "orders"

    def test_equals_is_optional(self):
        statement = parse_statement(
            f"CREATE DYNAMIC TABLE t TARGET_LAG 2 AS {QUERY}")
        assert statement.target_lag == 2

    def test_zero_lag_is_legal(self):
        statement = parse_statement(
            f"CREATE DYNAMIC TABLE t TARGET_LAG = 0 AS {QUERY}")
        assert statement.target_lag == 0

    def test_downstream_lag(self):
        statement = parse_statement(
            f"CREATE DYNAMIC TABLE t TARGET_LAG = DOWNSTREAM AS {QUERY}")
        assert statement.target_lag == "downstream"

    def test_lag_clause_optional(self):
        statement = parse_statement(f"CREATE DYNAMIC TABLE t AS {QUERY}")
        assert statement.target_lag is None

    def test_plain_select_still_parses(self):
        statement = parse_statement(QUERY)
        assert not isinstance(statement, CreateDynamicTable)

    def test_missing_as_rejected(self):
        with pytest.raises(ParseError):
            parse_statement(f"CREATE DYNAMIC TABLE t {QUERY}")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_statement(f"CREATE DYNAMIC TABLE t AS {QUERY} garbage")

    def test_negative_lag_rejected(self):
        with pytest.raises(ParseError):
            parse_statement(
                f"CREATE DYNAMIC TABLE t TARGET_LAG = -1 AS {QUERY}")


class TestLowering:
    def catalog(self):
        catalog = Catalog()
        catalog.register_relation("orders", Schema(["region", "amount"]))
        catalog.register_stream("Obs", Schema(["region", "amount"]))
        return catalog

    def test_relation_source_lowers_to_relation_scan(self):
        statement = parse_statement(
            "SELECT region FROM orders EMIT CHANGES")
        plan = lower_statement(statement, self.catalog())
        scan = plan
        while not isinstance(scan, RelationScan):
            scan = scan.children[0]
        assert scan.name == "orders"

    def test_stream_source_still_lowers_to_stream_scan(self):
        statement = parse_statement("SELECT region FROM Obs EMIT CHANGES")
        plan = lower_statement(statement, self.catalog())
        scan = plan
        while scan.children:
            scan = scan.children[0]
        assert isinstance(scan, StreamScan)

    def test_unknown_source_rejected(self):
        statement = parse_statement("SELECT x FROM ghost EMIT CHANGES")
        with pytest.raises(PlanError):
            lower_statement(statement, self.catalog())


class TestEndToEnd:
    def test_views_scan_views_through_the_same_dialect(self):
        from repro.views import DynamicTableService

        service = DynamicTableService()
        service.create_table("orders", Schema(["region", "amount"]))
        service.execute(f"CREATE DYNAMIC TABLE totals AS {QUERY}")
        service.execute(
            "CREATE DYNAMIC TABLE hot TARGET_LAG = DOWNSTREAM AS "
            "SELECT region FROM totals WHERE total > 10 EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 11}],
                      at=1)
        service.refresh("hot")
        assert [row["region"] for row, _ in service.read("hot").items()] \
            == ["eu"]

    @pytest.mark.parametrize("window, emit, message", [
        ("tumble", "changes", "group windows cannot appear"),
        (None, "final", "EMIT FINAL is meaningless"),
    ])
    def test_windowed_or_final_aggregate_refused(self, window, emit,
                                                 message):
        from repro.core.operators import AggregateKind
        from repro.plan.exprs import (
            EmitMode,
            GroupWindow,
            GroupWindowKind,
        )
        from repro.plan.ir import AggregateExpr, WindowAggregate
        from repro.views import DynamicTableService, make_scan

        service = DynamicTableService()
        schema = Schema(["region", "amount"])
        service.create_table("orders", schema)
        plan = WindowAggregate(
            make_scan("orders", "o", schema), ("o.region",), ("region",),
            (AggregateExpr(AggregateKind.COUNT, None, "n"),),
            window=(GroupWindow(GroupWindowKind.TUMBLE, 10)
                    if window else None),
            emit=EmitMode(emit))
        with pytest.raises(PlanError, match=message):
            service.create_from_plan("w", plan)
        assert service.view_names() == []

    def test_execute_rejects_plain_queries(self):
        from repro.views import DynamicTableService

        service = DynamicTableService()
        service.create_table("orders", Schema(["region", "amount"]))
        with pytest.raises(PlanError):
            service.execute(QUERY)
