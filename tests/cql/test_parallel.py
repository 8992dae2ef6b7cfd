"""Tests for fissioned CQL execution: a ContinuousQuery compiled with
``parallelism > 1`` runs key partitions of its plan."""

import pytest

from repro.core import PlanError, Schema, StateError
from repro.cql import ContinuousQuery, CQLEngine
from repro.cql.executor import AggregateOp, PartitionUnionOp


GROUPED = ("SELECT room, COUNT(*) AS n FROM Obs [Range 5] "
           "GROUP BY room")
GROUPED_ISTREAM = ("SELECT ISTREAM room, MAX(temp) AS m FROM Obs [Range 5] "
                   "GROUP BY room")
JOINED = ("SELECT O.room, R.floor FROM Obs O [Range 5], Rooms R "
          "WHERE O.room = R.room")


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.register_stream("Metered", Schema(["meter", "watts"]))
    engine.register_relation(
        "Rooms", Schema(["room", "floor"]),
        [{"room": "kitchen", "floor": 1}, {"room": "lab", "floor": 2}])
    return engine


def pair(engine, text, parallelism=3):
    """The same query compiled serial and fissioned."""
    plan = engine.plan(text)
    serial = ContinuousQuery(plan, engine.catalog)
    parallel = ContinuousQuery(plan, engine.catalog,
                               parallelism=parallelism)
    return serial, parallel


def feed_both(serial, parallel, batches):
    for t, arrivals in batches:
        serial.push_batch(t, arrivals)
        parallel.push_batch(t, arrivals)


OBS_BATCHES = [
    (0, {"Obs": [{"id": 1, "room": "kitchen", "temp": 20},
                 {"id": 2, "room": "lab", "temp": 31}]}),
    (1, {"Obs": [{"id": 3, "room": "kitchen", "temp": 22}]}),
    (3, {"Obs": [{"id": 4, "room": "hall", "temp": 19},
                 {"id": 5, "room": "lab", "temp": 33}]}),
    (7, {"Obs": [{"id": 6, "room": "kitchen", "temp": 25}]}),
]


class TestParity:
    def test_grouped_aggregate_state_matches(self, engine):
        serial, parallel = pair(engine, GROUPED)
        feed_both(serial, parallel, OBS_BATCHES)
        assert parallel.current() == serial.current()
        assert parallel.as_relation() == serial.as_relation()

    def test_istream_emissions_match(self, engine):
        serial, parallel = pair(engine, GROUPED_ISTREAM)
        feed_both(serial, parallel, OBS_BATCHES)
        serial.finish()
        parallel.finish()
        assert [(e.value, e.timestamp) for e in parallel.emitted_stream()] \
            == [(e.value, e.timestamp) for e in serial.emitted_stream()]

    def test_rstream_re_emits_partitions_where_others_changed(self, engine):
        """RSTREAM re-emits the whole state at every instant it changes,
        so a partition silent at an instant another partition changed
        still emits its rows there (kitchen routes apart from lab and
        hall at width 2)."""
        serial, parallel = pair(engine, "SELECT RSTREAM room, COUNT(*) AS n "
                                "FROM Obs [Range 5] GROUP BY room",
                                parallelism=2)
        serial.start()
        parallel.start()
        feed_both(serial, parallel, OBS_BATCHES)
        serial.finish()
        parallel.finish()
        assert len(parallel.emissions()) == len(serial.emissions()) == 16
        assert sorted(parallel.emissions(), key=repr) \
            == sorted(serial.emissions(), key=repr)
        assert parallel.current() == serial.current()

    def test_window_expirations_fire_instant_by_instant(self, engine):
        # Advancing far past the window must retract expired rows in
        # every partition at the same instants the serial query does.
        serial, parallel = pair(engine, GROUPED)
        feed_both(serial, parallel, OBS_BATCHES)
        serial.advance_to(30)
        parallel.advance_to(30)
        assert parallel.as_relation() == serial.as_relation()
        assert len(parallel.current()) == 0

    def test_strided_int_keys_spread_and_match(self, engine):
        # Keys 0, 4, 8, … with parallelism 4: the pre-fix hash would send
        # every key to partition 0.
        text = ("SELECT meter, COUNT(*) AS n FROM Metered [Range 100] "
                "GROUP BY meter")
        serial, parallel = pair(engine, text, parallelism=4)
        batches = [(t, {"Metered": [{"meter": 4 * i, "watts": 10}
                                    for i in range(12)]})
                   for t in range(3)]
        feed_both(serial, parallel, batches)
        assert parallel.current() == serial.current()
        loads = parallel.partition_loads()
        assert len(loads) == 4
        assert all(load > 0 for load in loads), f"starved partition: {loads}"

    def test_relation_updates_broadcast(self, engine):
        serial, parallel = pair(engine, JOINED)
        serial.start()
        parallel.start()
        feed_both(serial, parallel, OBS_BATCHES[:2])
        serial.update_relation("Rooms", {"room": "hall", "floor": 3}, 1, 2)
        parallel.update_relation("Rooms", {"room": "hall", "floor": 3}, 1, 2)
        feed_both(serial, parallel, OBS_BATCHES[2:])
        assert parallel.current() == serial.current()
        assert parallel.as_relation() == serial.as_relation()

    def test_one_agenda_log_and_emission_list(self, engine):
        # The partitions share the query's clock and output: expirations
        # are scheduled once, and every instant is logged once.
        serial, parallel = pair(engine, GROUPED_ISTREAM)
        feed_both(serial, parallel, OBS_BATCHES)
        assert len(parallel._agenda) == len(serial._agenda)
        assert [t for t, _ in parallel._log] == [t for t, _ in serial._log]
        assert sorted(parallel.emissions(), key=repr) \
            == sorted(serial.emissions(), key=repr)


class TestRouting:
    def test_unread_stream_rejected(self, engine):
        _, parallel = pair(engine, GROUPED)
        with pytest.raises(PlanError):
            parallel.push_batch(0, {"Metered": [{"meter": 1, "watts": 2}]})

    def test_unpartitionable_plan_rejected(self, engine):
        plan = engine.plan("SELECT COUNT(*) AS n FROM Obs [Range 5]")
        with pytest.raises(PlanError):
            ContinuousQuery(plan, engine.catalog, parallelism=2)

    def test_replicas_hold_disjoint_groups(self, engine):
        _, parallel = pair(engine, GROUPED)
        for t, arrivals in OBS_BATCHES:
            parallel.push_batch(t, arrivals)
        union, *partitions = [op for _, op in parallel.operators()
                              if isinstance(op, (PartitionUnionOp,
                                                 AggregateOp))]
        assert isinstance(union, PartitionUnionOp)
        assert union.children == partitions and len(partitions) == 3
        seen = {}
        for index, aggregate in enumerate(partitions):
            for (room,) in aggregate._current_rows.data:
                assert seen.setdefault(room, index) == index
        assert sorted(seen) == ["hall", "kitchen", "lab"]


class TestCheckpointing:
    def test_snapshot_restore_resumes_identically(self, engine):
        serial, parallel = pair(engine, GROUPED)
        feed_both(serial, parallel, OBS_BATCHES[:2])
        checkpoint = parallel.snapshot()
        for t, arrivals in OBS_BATCHES[2:]:
            parallel.push_batch(t, arrivals)
        parallel.restore(checkpoint)
        feed_both(serial, parallel, OBS_BATCHES[2:])
        assert parallel.current() == serial.current()
        assert list(parallel.as_relation().snapshots()) \
            == list(serial.as_relation().snapshots())

    def test_restore_rejects_different_parallelism(self, engine):
        _, parallel = pair(engine, GROUPED, parallelism=2)
        _, wider = pair(engine, GROUPED, parallelism=3)
        with pytest.raises(StateError):
            wider.restore(parallel.snapshot())


class TestEngineIntegration:
    def test_register_query_with_parallelism(self, engine):
        query = engine.register_query(GROUPED, parallelism=3)
        assert isinstance(query, ContinuousQuery)
        assert query.parallelism == 3

    def test_unpartitionable_request_clamps_to_serial(self, engine):
        query = engine.register_query(
            "SELECT COUNT(*) AS n FROM Obs [Range 5]", parallelism=4)
        assert query.parallelism == 1

    def test_shared_group_rejects_parallelism(self, engine):
        group = engine.shared_group()
        with pytest.raises(PlanError):
            engine.register_query(GROUPED, shared=group, parallelism=2)

    def test_engine_fan_out_reaches_partitioned_queries(self, engine):
        query = engine.register_query(GROUPED_ISTREAM, parallelism=2)
        emissions = engine.push(
            "Obs", {"id": 1, "room": "kitchen", "temp": 20}, 0)
        assert list(emissions) == [0]
        assert len(query.emissions()) == 1
