"""Tests for live rescale (repro.runtime.rescale): checkpoint-driven
state migration of a running query across widths, zero output
divergence."""

from collections import deque

import pytest

from repro.core import PlanError, Schema, StateError
from repro.cql import ContinuousQuery, CQLEngine
from repro.runtime.rescale import RescaleError, RescaleReport, rescale
from tests.cql.test_keyed_state import operator_state

GROUPED = ("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 5] "
           "GROUP BY room")
RSTREAM_GROUPED = ("SELECT RSTREAM room, MAX(temp) AS m FROM Obs [Range 4] "
                   "GROUP BY room")
KEY_PROJECTED_AWAY = ("SELECT COUNT(*) AS n FROM Obs [Range 5] "
                      "GROUP BY room")
DISTINCT_COUNTS = ("SELECT DISTINCT COUNT(*) AS n FROM Obs [Range 5] "
                   "GROUP BY room")
STREAM_JOIN = ("SELECT ISTREAM O.room, O.id, A.level FROM Obs O [Range 5], "
               "Alerts A [Range 5] WHERE O.room = A.room")
RELATION_JOIN = ("SELECT ISTREAM O.room, O.id, R.floor "
                 "FROM Obs O [Range 5], Rooms R WHERE O.room = R.room")

ROOMS = ["kitchen", "lab", "hall", "attic", "cellar"]

#: Per-instant Obs batches spreading keys across the hash space, with
#: gaps so window expirations fire between arrivals.
OBS_BATCHES = [
    (t, {"Obs": [{"id": t * 10 + i, "room": ROOMS[(t + i) % len(ROOMS)],
                  "temp": 15 + (t * 7 + i * 3) % 25}
                 for i in range(1 + t % 3)]})
    for t in [0, 1, 2, 4, 7, 8, 11, 14, 15, 18]
]


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.catalog.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.catalog.register_stream("Alerts", Schema(["room", "level"]))
    engine.catalog.register_relation("Rooms", Schema(["room", "floor"]), [])
    return engine


def outputs(query):
    stream = query.emitted_stream()
    return (stream.timestamps(), stream.values(),
            sorted(query.current().items(), key=repr))


def run_with_rescales(plan, catalog, batches, schedule,
                      start_width=1):
    """Drive a query, rescaling at the scheduled positions."""
    query = ContinuousQuery(plan, catalog, parallelism=start_width)
    reports = []
    query.start()
    for position, (t, arrivals) in enumerate(batches):
        if position in schedule:
            reports.append(rescale(query, schedule[position]))
        query.push_batch(t, arrivals)
    query.finish()
    return query, reports


def serial_control(plan, catalog, batches):
    query = ContinuousQuery(plan, catalog)
    query.start()
    for t, arrivals in batches:
        query.push_batch(t, arrivals)
    query.finish()
    return query


class TestStateMigration:
    def test_grouped_aggregate_1_4_2_matches_serial(self, engine):
        plan = engine.plan(GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, reports = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {3: 4, 7: 2})
        assert outputs(query) == outputs(control)
        assert query.parallelism == 2
        assert [r.parallelism_to for r in reports] == [4, 2]

    def test_downscale_4_to_2(self, engine):
        plan = engine.plan(GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, [report] = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {5: 2}, start_width=4)
        assert outputs(query) == outputs(control)
        assert report.parallelism_from == 4
        assert report.parallelism_to == 2

    def test_stream_stream_join_rescale(self, engine):
        plan = engine.plan(STREAM_JOIN)
        batches = [
            (t, {"Obs": [{"id": t, "room": ROOMS[t % 4], "temp": 20}],
                 "Alerts": [{"room": ROOMS[(t + 1) % 4], "level": t}]})
            for t in range(8)
        ]
        control = serial_control(plan, engine.catalog, batches)
        query, reports = run_with_rescales(
            plan, engine.catalog, batches, {2: 3, 5: 2})
        assert outputs(query) == outputs(control)
        assert sum(r.migrated_entries for r in reports) > 0

    def test_rescaled_state_has_the_shape_of_a_query_compiled_wide(
            self, engine):
        """A rescale builds the containers a query compiled at the target
        width holds, entry types included, so its first barrier copies
        the same bytes when no window has expired yet."""
        plan = engine.plan(STREAM_JOIN)
        batches = [
            (t, {"Obs": [{"id": t, "room": ROOMS[t % 4], "temp": 20}],
                 "Alerts": [{"room": ROOMS[(t + 1) % 4], "level": t}]})
            for t in range(4)
        ]
        rescaled = ContinuousQuery(plan, engine.catalog)
        wide = ContinuousQuery(plan, engine.catalog, parallelism=2)
        for query in (rescaled, wide):
            query.start()
            for t, arrivals in batches:
                query.push_batch(t, arrivals)
        rescale(rescaled, 2)

        def shape(value):
            if isinstance(value, dict):
                return type(value), frozenset(
                    (shape(k), shape(v)) for k, v in value.items())
            if isinstance(value, (list, tuple, set, deque)):
                return type(value), frozenset(shape(v) for v in value)
            return type(value)

        def shapes(query):
            return [(name, shape(operator_state(op)))
                    for name, op in query.operators()]

        assert shapes(rescaled) == shapes(wide)
        rescaled.snapshot()
        wide.snapshot()
        assert rescaled.barrier_bytes == wide.barrier_bytes

    def test_key_projected_away_rescales(self, engine):
        # The spine above the aggregate projects the routing key away;
        # it runs once above the partitions, so nothing keyed is lost.
        # Relation-mode only (see the delta-merge soundness test below
        # for why a streamed output without its key is refused).
        plan = engine.plan(KEY_PROJECTED_AWAY)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, _ = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {4: 3})
        assert sorted(query.current().items(), key=repr) \
            == sorted(control.current().items(), key=repr)
        assert query.as_relation() == control.as_relation()

    def test_delta_stream_without_output_key_is_not_partitionable(
            self, engine):
        """Soundness fix: an ISTREAM/DSTREAM query whose projection drops
        the partition key must not fission — output rows from different
        partitions can collide in value, and cross-key cancellation the
        serial bag performs never happens in the concatenated merge."""
        from repro.plan.parallel import partition_scheme
        for text in (
            "SELECT ISTREAM COUNT(*) AS n FROM Obs [Range 5] "
            "GROUP BY room",
            "SELECT ISTREAM O.id, A.level FROM Obs O [Range 5], "
            "Alerts A [Range 5] WHERE O.room = A.room",
        ):
            assert partition_scheme(engine.plan(text)) is None, text
        # The relation-mode twin stays partitionable: state merges as a
        # disjoint-by-key bag union regardless of what the output names.
        assert partition_scheme(engine.plan(KEY_PROJECTED_AWAY)) is not None

    def test_state_above_the_boundary_carries_over(self, engine):
        # DISTINCT above a key-dropping projection holds the one copy of
        # its state whatever the width; a rescale must carry it across.
        plan = engine.plan(DISTINCT_COUNTS)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, _ = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {3: 4, 7: 2})
        assert query.as_relation() == control.as_relation()
        assert query.current() == control.current()

    def test_relation_updates_after_rescale(self, engine):
        plan = engine.plan(RELATION_JOIN)
        obs = [(t, {"Obs": [{"id": t, "room": ROOMS[t % 3], "temp": 20}]})
               for t in range(6)]

        def drive(query, rescale_at=None):
            query.start()
            query.update_relation("Rooms", {"room": "kitchen", "floor": 1},
                                  1, 0)
            for position, (t, arrivals) in enumerate(obs):
                if position == rescale_at:
                    rescale(query, 3)
                query.push_batch(t, arrivals)
                if position == 2:
                    query.update_relation(
                        "Rooms", {"room": "lab", "floor": 2}, 1, t)
            query.finish()
            return query

        control = drive(ContinuousQuery(plan, engine.catalog))
        rescaled = drive(ContinuousQuery(plan, engine.catalog), rescale_at=4)
        assert outputs(rescaled) == outputs(control)

    def test_as_relation_history_survives_rescale(self, engine):
        plan = engine.plan(GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, _ = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {3: 4, 7: 2})
        assert query.as_relation() == control.as_relation()

    def test_rstream_replicas_match_serial(self, engine):
        """Regression for the RSTREAM merge bug: a partition that stays
        quiet at an instant another partition changed must still re-emit
        its rows, or the output loses rows when keys split across
        partitions."""
        plan = engine.plan(RSTREAM_GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        for width in (2, 4):
            query = ContinuousQuery(plan, engine.catalog, parallelism=width)
            query.start()
            for t, arrivals in OBS_BATCHES:
                query.push_batch(t, arrivals)
            query.finish()
            assert outputs(query) == outputs(control), f"width {width}"

    def test_event_time_frontier_survives_rescale(self, engine):
        """Window expirations fire at the same instants after migration:
        the agenda is the query's own and carries across untouched."""
        plan = engine.plan(GROUPED)

        def drive(query, rescale_to=None):
            query.start()
            for t, arrivals in OBS_BATCHES[:5]:
                query.push_batch(t, arrivals)
            if rescale_to is not None:
                rescale(query, rescale_to)
            # No further arrivals: only agenda work (expirations) fires.
            query.advance_to(40)
            query.finish()
            return query

        control = drive(ContinuousQuery(plan, engine.catalog))
        rescaled = drive(ContinuousQuery(plan, engine.catalog), rescale_to=4)
        assert outputs(rescaled) == outputs(control)

    def test_rstream_rescale_matches_serial(self, engine):
        plan = engine.plan(RSTREAM_GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query, _ = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {3: 4, 7: 2})
        assert outputs(query) == outputs(control)


class TestAdoption:
    """A running serial query is rescaled in place: no wrapper adopts it."""

    def test_adopt_keeps_running_state_then_rescales(self, engine):
        plan = engine.plan(GROUPED)
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        query = ContinuousQuery(plan, engine.catalog)
        query.start()
        for t, arrivals in OBS_BATCHES[:4]:
            query.push_batch(t, arrivals)
        log, emissions = query._log, query._emissions
        rescale(query, 3)
        assert query.parallelism == 3
        # The change-log and the emissions are carried, not rebuilt.
        assert query._log is log and query._emissions is emissions
        for t, arrivals in OBS_BATCHES[4:]:
            query.push_batch(t, arrivals)
        query.finish()
        assert outputs(query) == outputs(control)

    def test_adopt_rejects_unpartitionable_plan(self, engine):
        plan = engine.plan("SELECT COUNT(*) AS n FROM Obs [Range 5]")
        with pytest.raises(PlanError, match="not key-partitionable"):
            rescale(ContinuousQuery(plan, engine.catalog), 2)


class TestRescaleEdges:
    def test_same_width_is_a_noop(self, engine):
        plan = engine.plan(GROUPED)
        query = ContinuousQuery(plan, engine.catalog, parallelism=2)
        operators = query.operators()
        report = rescale(query, 2)
        assert isinstance(report, RescaleReport)
        assert report.migrated_entries == 0
        assert query.operators() == operators  # untouched, not rebuilt

    def test_rescale_before_any_input(self, engine):
        plan = engine.plan(GROUPED)
        query = ContinuousQuery(plan, engine.catalog)
        report = rescale(query, 4)
        assert report.instant is None
        query.start()
        for t, arrivals in OBS_BATCHES:
            query.push_batch(t, arrivals)
        query.finish()
        control = serial_control(plan, engine.catalog, OBS_BATCHES)
        assert outputs(query) == outputs(control)

    def test_nonpositive_width_rejected(self, engine):
        plan = engine.plan(GROUPED)
        query = ContinuousQuery(plan, engine.catalog)
        with pytest.raises(RescaleError):
            rescale(query, 0)

    def test_rescale_error_is_a_state_error(self):
        assert issubclass(RescaleError, StateError)

    def test_shared_group_member_rejected(self, engine):
        query = engine.register_query(GROUPED, shared=engine.shared_group())
        with pytest.raises(RescaleError, match="shared"):
            rescale(query, 2)

    def test_failed_rescale_leaves_query_at_old_width(self, engine):
        # [Rows n] partitioned windows pass the scheme check but carry a
        # global-order FIFO; rescale must refuse without touching the
        # query.  Force the condition through the snapshot payload shape.
        plan = engine.plan(GROUPED)
        query = ContinuousQuery(plan, engine.catalog, parallelism=2)
        query.start()
        for t, arrivals in OBS_BATCHES[:3]:
            query.push_batch(t, arrivals)
        before = outputs(query)
        # Stage an arrival mid-instant by hand: quiescence must reject it.
        source = next(op for _, op in query.operators()
                      if hasattr(op, "_staged"))
        source._staged.append(object())
        with pytest.raises(RescaleError, match="staged"):
            rescale(query, 4)
        source._staged.pop()
        assert query.parallelism == 2
        assert outputs(query) == before

    def test_report_shape(self, engine):
        plan = engine.plan(GROUPED)
        query, [report] = run_with_rescales(
            plan, engine.catalog, OBS_BATCHES, {5: 3})
        assert report.parallelism_from == 1
        assert report.parallelism_to == 3
        assert report.instant is not None
        assert report.migrated_entries > 0
        assert report.seconds >= 0.0
