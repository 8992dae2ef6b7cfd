"""Tests for the fission analysis (repro.plan.parallel)."""

import pytest

from repro.core import Schema
from repro.cql import Catalog, CQLEngine
from repro.plan import decide_parallelism, partition_scheme
from repro.plan.exprs import Binary, BinOp, Column, Literal
from repro.plan.ir import (
    Aggregate,
    AggregateExpr,
    Distinct,
    Project,
    SetOp,
    StreamScan,
    walk,
)
from repro.plan.parallel import BROADCAST
from repro.core.operators import AggregateKind


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.catalog.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.catalog.register_stream("Alerts", Schema(["room", "level"]))
    engine.catalog.register_relation("Rooms", Schema(["room", "floor"]), [])
    return engine


def scheme_of(engine, text, optimize=True):
    return partition_scheme(engine.plan(text, optimize=optimize))


class TestKeyedAggregates:
    def test_group_by_partitions_on_group_key(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
                    "GROUP BY room")
        assert scheme is not None
        assert scheme.keys == ("room",)
        assert scheme.stream_keys == {"Obs": (1,)}

    def test_global_aggregate_is_not_partitionable(self, engine):
        assert scheme_of(
            engine, "SELECT COUNT(*) AS n FROM Obs [Range 5]") is None

    def test_filter_and_projection_are_transparent(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, MAX(temp) AS m FROM Obs [Range 5] "
                    "WHERE temp > 30 GROUP BY room")
        assert scheme is not None
        assert scheme.stream_keys == {"Obs": (1,)}

    def test_multi_column_group_key(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, id, COUNT(*) AS n FROM Obs [Range 5] "
                    "GROUP BY room, id")
        assert scheme is not None
        assert scheme.stream_keys == {"Obs": (1, 0)}

    def test_computed_group_key_bails(self):
        # GROUP BY on a projected expression: the key does not exist on
        # raw arrivals, so there is nothing to route on.
        scan = StreamScan("Obs", "O", Schema(["O.id", "O.room", "O.temp"]))
        doubled = Project(
            scan, (Binary(BinOp.MUL, Column("O.temp"), Literal(2)),),
            ("t2",))
        plan = Aggregate(doubled, ("t2",), ("t2",),
                         (AggregateExpr(AggregateKind.COUNT, None, "n"),))
        assert partition_scheme(plan) is None


class TestWindows:
    def test_rows_window_blocks_fission(self, engine):
        # [Rows n] keeps the globally newest n rows across all keys.
        assert scheme_of(
            engine, "SELECT room, COUNT(*) AS n FROM Obs [Rows 5] "
                    "GROUP BY room") is None

    def test_partitioned_window_on_group_key_is_safe(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, COUNT(*) AS n "
                    "FROM Obs [Partition By room Rows 2] GROUP BY room")
        assert scheme is not None
        assert scheme.stream_keys == {"Obs": (1,)}

    def test_partitioned_window_on_other_key_bails(self, engine):
        assert scheme_of(
            engine, "SELECT room, COUNT(*) AS n "
                    "FROM Obs [Partition By id Rows 2] "
                    "GROUP BY room") is None


class TestJoins:
    def test_stream_stream_equijoin_coparitions_both_sides(self, engine):
        scheme = scheme_of(
            engine, "SELECT O.id, A.level FROM Obs O [Range 5], "
                    "Alerts A [Range 5] WHERE O.room = A.room")
        assert scheme is not None
        assert scheme.stream_keys == {"Obs": (1,), "Alerts": (0,)}

    def test_relation_side_broadcasts(self, engine):
        scheme = scheme_of(
            engine, "SELECT O.id, R.floor FROM Obs O [Range 5], Rooms R "
                    "WHERE O.room = R.room")
        assert scheme is not None
        assert scheme.stream_keys == {"Obs": (1,)}
        assert "Rooms" not in scheme.stream_keys

    def test_cross_join_of_streams_bails(self, engine):
        assert scheme_of(
            engine, "SELECT O.id, A.level FROM Obs O [Range 2], "
                    "Alerts A [Range 2]") is None

    def test_aggregate_above_join_keys_through_it(self, engine):
        scheme = scheme_of(
            engine, "SELECT O.room, COUNT(*) AS n FROM Obs O [Range 5], "
                    "Alerts A [Range 5] WHERE O.room = A.room "
                    "GROUP BY O.room")
        assert scheme is not None
        assert scheme.keys == ("O.room",)
        assert scheme.stream_keys == {"Obs": (1,), "Alerts": (0,)}

    def test_group_key_outside_join_key_bails(self, engine):
        # Grouping by O.id while joining on room: matching rows of the
        # two streams would land on different partitions.
        assert scheme_of(
            engine, "SELECT O.id, COUNT(*) AS n FROM Obs O [Range 5], "
                    "Alerts A [Range 5] WHERE O.room = A.room "
                    "GROUP BY O.id") is None


class TestSchemeUse:
    def test_key_for_extracts_positionally(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
                    "GROUP BY room")
        assert scheme.key_for("Obs", (7, "kitchen", 31.5)) == "kitchen"

    def test_multi_column_key_is_a_tuple(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, id, COUNT(*) AS n FROM Obs [Range 5] "
                    "GROUP BY room, id")
        assert scheme.key_for("Obs", (7, "kitchen", 31.5)) == ("kitchen", 7)

    def test_describe_names_streams_and_keys(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
                    "GROUP BY room")
        assert "room" in scheme.describe()
        assert "Obs[1]" in scheme.describe()


def positions_of(scheme):
    """The key positions the scheme records at and below its boundary,
    as (node kind, positions) in pre-order."""
    return [(type(node).__name__, scheme.positions[id(node)])
            for node in walk(scheme.boundary)]


class TestKeyPositions:
    """Per-node key positions for each shape the frontends fission: what
    live rescale re-keys every operator's state by."""

    def test_aggregate_over_window_with_pushed_filter(self, engine):
        scheme = scheme_of(
            engine, "SELECT room, MAX(temp) AS m FROM Obs [Range 5] "
                    "WHERE temp > 30 GROUP BY room")
        # The group key is column 0 of the aggregate's output (and of its
        # group key); room is column 1 of every row below it.
        assert positions_of(scheme) == [
            ("Aggregate", (0,)), ("WindowOp", (1,)), ("Filter", (1,)),
            ("StreamScan", (1,))]

    def test_aggregate_over_stream_stream_join(self, engine):
        scheme = scheme_of(
            engine, "SELECT O.room, COUNT(*) AS n FROM Obs O [Range 5], "
                    "Alerts A [Range 5] WHERE O.room = A.room "
                    "GROUP BY O.room")
        # The key maps through the join condition onto Alerts.room.
        assert positions_of(scheme) == [
            ("Aggregate", (0,)), ("Join", (1,)),
            ("WindowOp", (1,)), ("StreamScan", (1,)),
            ("WindowOp", (0,)), ("StreamScan", (0,))]

    def test_relation_side_of_a_join_is_broadcast(self, engine):
        scheme = scheme_of(
            engine, "SELECT O.id, R.floor FROM Obs O [Range 5], Rooms R "
                    "WHERE O.room = R.room AND R.floor > 1")
        assert positions_of(scheme) == [
            ("Join", (1,)), ("WindowOp", (1,)), ("StreamScan", (1,)),
            ("Filter", BROADCAST), ("RelationScan", BROADCAST)]
        # Keyed by the relation's column, the side is still broadcast:
        # the key maps through the join onto Obs.
        scheme = scheme_of(
            engine, "SELECT R.room, COUNT(*) AS n FROM Obs O [Range 5], "
                    "Rooms R WHERE O.room = R.room AND R.floor > 1 "
                    "GROUP BY R.room")
        assert scheme.stream_keys == {"Obs": (1,)}
        assert positions_of(scheme) == [
            ("Aggregate", (0,)), ("Join", (3,)), ("WindowOp", (1,)),
            ("StreamScan", (1,)), ("Filter", BROADCAST),
            ("RelationScan", BROADCAST)]

    def test_self_join_on_two_columns_is_refused(self, engine):
        # Each arrival is routed once: one scan would need Obs by room,
        # the other by id.
        assert scheme_of(
            engine, "SELECT O1.id, O2.temp FROM Obs O1 [Range 5], "
                    "Obs O2 [Range 5] WHERE O1.room = O2.id") is None
        scheme = scheme_of(
            engine, "SELECT O1.id, O2.temp FROM Obs O1 [Range 5], "
                    "Obs O2 [Range 5] WHERE O1.room = O2.room")
        assert scheme.stream_keys == {"Obs": (1,)}
        assert positions_of(scheme) == [
            ("Join", (1,)), ("WindowOp", (1,)), ("StreamScan", (1,)),
            ("WindowOp", (1,)), ("StreamScan", (1,))]

    @pytest.mark.parametrize("below", ["distinct", "union"])
    def test_set_op_or_distinct_below_the_boundary_runs_serially(
            self, engine, below):
        # The frontends build these only above the keyed boundary; a
        # hand-built plan with one below it is opaque to the push-down.
        window = engine.plan("SELECT * FROM Obs [Range 5]")
        child = (Distinct(window) if below == "distinct"
                 else SetOp("union", window, window))
        plan = Aggregate(child, ("Obs.room",), ("room",),
                         (AggregateExpr(AggregateKind.COUNT, None, "n"),))
        assert partition_scheme(Aggregate(
            window, ("Obs.room",), ("room",),
            (AggregateExpr(AggregateKind.COUNT, None, "n"),))) is not None
        assert partition_scheme(plan) is None
        assert decide_parallelism(plan, requested=4) == 1


class TestDecideParallelism:
    def test_unpartitionable_plans_get_one(self, engine):
        plan = engine.plan("SELECT COUNT(*) AS n FROM Obs [Range 5]")
        assert decide_parallelism(plan, requested=4) == 1

    def test_request_is_honoured_when_safe(self, engine):
        plan = engine.plan("SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
                           "GROUP BY room")
        assert decide_parallelism(plan, requested=3) == 3

    def test_stateless_plans_stay_serial(self, engine):
        # No keyed boundary at all: nothing to partition by.
        plan = engine.plan("SELECT id FROM Obs [Range 5] WHERE temp > 30")
        assert decide_parallelism(plan, requested=4) == 1
