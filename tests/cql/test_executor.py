"""Tests for the incremental executor's operator behaviour."""

import pytest

from repro.core import PlanError, Schema, StateError, TimeError
from repro.cql import CQLEngine


OBS = Schema(["id", "room", "temp"])


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    engine.register_relation(
        "Person", Schema(["id", "name"]),
        rows=[{"id": 1, "name": "ada"}, {"id": 2, "name": "bob"}])
    return engine


def rows(bag):
    return sorted(tuple(r.values) for r in bag)


class TestWindows:
    def test_now_window_expires_next_instant(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Now]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 20}, 10)
        assert rows(q.current()) == [(1,)]
        q.advance_to(11)
        assert rows(q.current()) == []

    def test_range_window_expiry_without_arrivals(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Range 5]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 20}, 10)
        q.advance_to(14)
        assert rows(q.current()) == [(1,)]
        q.advance_to(15)
        assert rows(q.current()) == []

    def test_rows_window_evicts_oldest(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Rows 2]")
        for i, t in [(1, 0), (2, 1), (3, 2)]:
            q.push("Obs", {"id": i, "room": "a", "temp": 0}, t)
        assert rows(q.current()) == [(2,), (3,)]

    def test_partitioned_window_per_key(self, engine):
        q = engine.register_query(
            "SELECT id, room FROM Obs [Partition By room Rows 1]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        q.push("Obs", {"id": 2, "room": "b", "temp": 0}, 1)
        q.push("Obs", {"id": 3, "room": "a", "temp": 0}, 2)
        assert rows(q.current()) == [(2, "b"), (3, "a")]

    def test_stepped_range_freezes_between_boundaries(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Range 10 Slide 5]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 3)
        # Not yet visible: next boundary is 5.
        assert rows(q.current()) == []
        q.advance_to(5)
        assert rows(q.current()) == [(1,)]
        # Expires at the first boundary >= 3 + 10 = 15.
        q.advance_to(14)
        assert rows(q.current()) == [(1,)]
        q.advance_to(15)
        assert rows(q.current()) == []

    def test_unbounded_never_expires(self, engine):
        q = engine.register_query("SELECT id FROM Obs")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        q.advance_to(10_000)
        assert rows(q.current()) == [(1,)]


class TestAggregates:
    def test_grouped_avg_updates_incrementally(self, engine):
        q = engine.register_query(
            "SELECT room, AVG(temp) AS a FROM Obs [Range 100] GROUP BY room")
        q.push("Obs", {"id": 1, "room": "a", "temp": 10}, 0)
        q.push("Obs", {"id": 2, "room": "a", "temp": 20}, 1)
        assert rows(q.current()) == [("a", 15)]

    def test_group_disappears_when_empty(self, engine):
        q = engine.register_query(
            "SELECT room, COUNT(*) AS n FROM Obs [Range 5] GROUP BY room")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        assert rows(q.current()) == [("a", 1)]
        q.advance_to(5)
        assert rows(q.current()) == []

    def test_global_count_reports_zero_after_expiry(self, engine):
        q = engine.register_query("SELECT COUNT(*) AS n FROM Obs [Range 5]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        q.advance_to(100)
        assert rows(q.current()) == [(0,)]

    def test_min_max_with_retraction(self, engine):
        q = engine.register_query(
            "SELECT MIN(temp) lo, MAX(temp) hi FROM Obs [Range 10]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 30}, 0)
        q.push("Obs", {"id": 2, "room": "a", "temp": 10}, 5)
        assert rows(q.current()) == [(10, 30)]
        q.advance_to(10)  # temp=30 expires
        assert rows(q.current()) == [(10, 10)]

    def test_sum_of_nulls_is_null(self, engine):
        q = engine.register_query("SELECT SUM(temp) s FROM Obs [Range 10]")
        q.push("Obs", {"id": 1, "room": "a", "temp": None}, 0)
        assert rows(q.current()) == [(None,)]

    def test_having_filters_groups(self, engine):
        q = engine.register_query(
            "SELECT room FROM Obs [Range 100] GROUP BY room "
            "HAVING COUNT(*) >= 2")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        assert rows(q.current()) == []
        q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 1)
        assert rows(q.current()) == [("a",)]


class TestRetractionsOfRowsNotHeld:
    """A delete of a relation row a stateful operator does not hold is
    refused by the call that makes it, before that operator's state
    changes — so the operator keeps working afterwards."""

    def test_an_absent_relation_delete_does_not_poison_the_join(self):
        engine = CQLEngine()
        engine.register_stream("S", Schema(["k", "v"]))
        engine.register_relation("R", Schema(["k", "name"]))
        q = engine.register_query(
            "SELECT ISTREAM S.v, R.name FROM S [Range 10], R "
            "WHERE S.k = R.k")
        with pytest.raises(StateError, match="right side does not hold"):
            q.update_relation("R", {"k": 1, "name": "a"}, -1, 1)
        assert q.push("S", {"k": 1, "v": 5}, 2) == []
        emitted = q.update_relation("R", {"k": 1, "name": "a"}, +1, 3)
        assert [tuple(e.record.values) for e in emitted] == [(5, "a")]

    def test_min_max_never_report_a_value_not_held(self):
        engine = CQLEngine()
        engine.register_relation("R", Schema(["k", "name"]), rows=[
            {"k": 1, "name": "a"}, {"k": 2, "name": "b"}])
        q = engine.register_query(
            "SELECT MIN(name) AS lo, MAX(name) AS hi FROM R")
        q.start()
        assert rows(q.current()) == [("a", "b")]
        with pytest.raises(StateError, match="does not hold"):
            q.update_relation("R", {"k": 3, "name": "z"}, -1, 1)
        assert rows(q.current()) == [("a", "b")]

    def test_a_set_op_side_refuses_a_row_it_does_not_hold(self):
        engine = CQLEngine()
        engine.register_relation("A", Schema(["k"]), rows=[{"k": 1}])
        engine.register_relation("B", Schema(["k"]))
        q = engine.register_query("SELECT k FROM A EXCEPT ALL SELECT k FROM B")
        q.start()
        assert rows(q.current()) == [(1,)]
        with pytest.raises(StateError, match="right side does not hold"):
            q.update_relation("B", {"k": 1}, -1, 1)
        q.update_relation("B", {"k": 1}, +1, 2)
        assert rows(q.current()) == []


class TestJoinsAndRelations:
    def test_stream_relation_join(self, engine):
        q = engine.register_query(
            "SELECT P.name FROM Obs O [Range 100], Person P "
            "WHERE O.id = P.id")
        q.start()
        q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 1)
        assert rows(q.current()) == [("bob",)]

    def test_relation_update_propagates(self, engine):
        q = engine.register_query(
            "SELECT P.name FROM Obs O [Range 100], Person P "
            "WHERE O.id = P.id")
        q.start()
        q.push("Obs", {"id": 9, "room": "a", "temp": 0}, 1)
        assert rows(q.current()) == []
        q.update_relation("Person", {"id": 9, "name": "eve"}, +1, 2)
        assert rows(q.current()) == [("eve",)]
        q.update_relation("Person", {"id": 9, "name": "eve"}, -1, 3)
        assert rows(q.current()) == []

    def test_stream_stream_join(self, engine):
        engine.register_stream("Alerts", Schema(["id", "level"]))
        q = engine.register_query(
            "SELECT O.room, A.level FROM Obs O [Range 10], "
            "Alerts A [Range 10] WHERE O.id = A.id")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        q.push("Alerts", {"id": 1, "level": 3}, 2)
        assert rows(q.current()) == [("a", 3)]
        q.advance_to(10)  # the Obs tuple expires; join result retracts
        assert rows(q.current()) == []

    @staticmethod
    def join_of(query):
        (join,) = [op for label, op in query.operators() if label == "JoinOp"]
        return join

    def test_probes_leave_no_empty_index_buckets(self, engine):
        engine.register_stream("Alerts", Schema(["id", "level"]))
        q = engine.register_query(
            "SELECT O.room, A.level FROM Obs O [Range 10], "
            "Alerts A [Range 10] WHERE O.id = A.id")
        # No arrival ever matches: every probe, on either side, misses.
        for t in range(20):
            q.push("Obs", {"id": t, "room": "a", "temp": 0}, t)
            q.push("Alerts", {"id": 100 + t, "level": 1}, t)
        join = self.join_of(q)
        live = range(10, 20)   # [Range 10] at t=19 holds t in (9, 19]
        assert set(join._left_state.data) == {(i,) for i in live}
        assert set(join._right_state.data) == {(100 + i,) for i in live}
        assert all(join._left_state.data.values())
        assert all(join._right_state.data.values())

    def test_snapshot_isolates_containers_and_shares_records(self, engine):
        engine.register_stream("Alerts", Schema(["id", "level"]))
        q = engine.register_query(
            "SELECT O.room, A.level FROM Obs O [Range 10], "
            "Alerts A [Range 10] WHERE O.id = A.id")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        join = self.join_of(q)
        payload = join.barrier()
        live = join._left_state.data[(1,)]
        saved = payload["_left_state"][(1,)]
        assert saved is not live and saved == live
        assert next(iter(saved)) is next(iter(live))   # the same Record

        q.push("Obs", {"id": 1, "room": "b", "temp": 0}, 1)
        assert len(live) == 2 and len(saved) == 1
        join.rollback()
        assert join._left_state.data[(1,)] is not saved
        q.push("Obs", {"id": 1, "room": "c", "temp": 0}, 2)
        assert len(saved) == 1
        join.rollback()   # the image survives any number of rollbacks
        assert join._left_state.data[(1,)] == saved

    def test_join_instants_build_no_schema(self, engine, monkeypatch):
        """Joined rows share the one output schema built at compile time."""
        engine.register_stream("Alerts", Schema(["id", "level"]))
        q = engine.register_query(
            "SELECT O.room, A.level FROM Obs O [Range 10], "
            "Alerts A [Range 10] WHERE O.id = A.id")
        q.push("Obs", {"id": 0, "room": "a", "temp": 0}, 0)
        built = []
        init = Schema.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Schema, "__init__", counted)
        for t in range(1, 6):
            q.push("Obs", {"id": 1, "room": "a", "temp": 0}, t)
            q.push("Alerts", {"id": 1, "level": t}, t)
        assert len(q.current()) == 25  # every match joined ...
        assert built == []             # ... under no new schema

    def test_theta_join_residual(self, engine):
        engine.register_stream("Alerts", Schema(["id", "level"]))
        q = engine.register_query(
            "SELECT O.id FROM Obs O [Range 100], Alerts A [Range 100] "
            "WHERE O.temp > A.level")
        q.push("Obs", {"id": 1, "room": "a", "temp": 5}, 0)
        q.push("Alerts", {"id": 9, "level": 3}, 1)
        q.push("Alerts", {"id": 9, "level": 7}, 2)
        assert rows(q.current()) == [(1,)]


class TestR2SOutputs:
    def test_istream_emissions(self, engine):
        q = engine.register_query("SELECT ISTREAM id FROM Obs [Range 5]")
        emitted = q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        assert [(e.record["id"], e.timestamp) for e in emitted] == [(1, 0)]
        # Expiry produces no ISTREAM output.
        assert q.advance_to(100) == []

    def test_dstream_emissions(self, engine):
        q = engine.register_query("SELECT DSTREAM id FROM Obs [Range 5]")
        assert q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0) == []
        emitted = q.advance_to(5)
        assert [(e.record["id"], e.timestamp) for e in emitted] == [(1, 5)]

    def test_rstream_emits_full_state(self, engine):
        q = engine.register_query("SELECT RSTREAM id FROM Obs [Range 100]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        emitted = q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 1)
        assert sorted(e.record["id"] for e in emitted) == [1, 2]

    def test_distinct_transitions(self, engine):
        q = engine.register_query(
            "SELECT ISTREAM DISTINCT room FROM Obs [Range 100]")
        first = q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        second = q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 1)
        assert len(first) == 1
        assert second == []  # duplicate room produces no new distinct row


class TestDriverContract:
    def test_out_of_order_push_rejected(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Now]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 10)
        with pytest.raises(StateError, match="order"):
            q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 5)

    def test_push_unknown_stream_rejected(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Now]")
        with pytest.raises(PlanError):
            q.push("Nope", {"id": 1}, 0)

    def test_same_timestamp_batches_allowed(self, engine):
        q = engine.register_query("SELECT COUNT(*) n FROM Obs [Range 10]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 5)
        q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 5)
        assert rows(q.current()) == [(2,)]

    def test_emitted_stream_is_ordered(self, engine):
        q = engine.register_query("SELECT ISTREAM id FROM Obs [Range 3]")
        q.push("Obs", {"id": 2, "room": "a", "temp": 0}, 0)
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 4)
        stream = q.emitted_stream()
        assert stream.timestamps() == [0, 4]

    def test_finish_drains_agenda(self, engine):
        q = engine.register_query("SELECT DSTREAM id FROM Obs [Range 50]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        emitted = q.finish()
        assert [e.timestamp for e in emitted] == [50]

    def test_deltas_processed_counter(self, engine):
        q = engine.register_query("SELECT id FROM Obs [Range 5]")
        q.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        before = q.deltas_processed
        q.finish()
        assert q.deltas_processed > before


JOIN = "SELECT P.name FROM Obs O [Range 10], Person P WHERE O.id = P.id"


def join_query(engine, kind):
    """The Obs ⋈ Person query as a private, shared or partitioned query."""
    if kind == "shared":
        return engine.register_query(JOIN, shared=engine.shared_group())
    query = engine.register_query(
        JOIN, parallelism=2 if kind == "partitioned" else None)
    assert query.parallelism == (2 if kind == "partitioned" else 1)
    return query


@pytest.mark.parametrize("kind", ["private", "shared", "partitioned"])
class TestRelationUpdateClock:
    """``update_relation`` is refused wherever ``push`` would be."""

    def fed(self, engine, kind):
        query = join_query(engine, kind)
        query.start()
        query.push("Obs", {"id": 1, "room": "a", "temp": 0}, 10)
        query.push("Obs", {"id": 9, "room": "a", "temp": 0}, 12)
        return query

    def test_update_behind_the_clock_rejected(self, engine, kind):
        query = self.fed(engine, kind)
        with pytest.raises(StateError, match="order"):
            query.update_relation("Person", {"id": 9, "name": "eve"}, +1, 5)
        assert [t for t, _ in query.as_relation().snapshots()] == [10]
        assert rows(query.current()) == [("ada",)]

    def test_feed_after_an_unchanged_instant_rejected(self, engine, kind):
        # Instant 12 changed nothing (no Person has id 9), but it was
        # evaluated: the clock is 12, not the last change at 10.
        query = self.fed(engine, kind)
        with pytest.raises(StateError, match="order"):
            query.push("Obs", {"id": 1, "room": "a", "temp": 0}, 11)
        with pytest.raises(StateError, match="order"):
            query.update_relation("Person", {"id": 9, "name": "eve"}, +1, 11)
        assert [t for t, _ in query.as_relation().snapshots()] == [10]
        assert rows(query.current()) == [("ada",)]

    def test_start_behind_the_clock_rejected(self, engine, kind):
        query = self.fed(engine, kind)
        with pytest.raises(StateError, match="order"):
            query.start(11)
        assert [t for t, _ in query.as_relation().snapshots()] == [10]

    def test_update_before_the_epoch_rejected(self, engine, kind):
        query = self.fed(engine, kind)
        with pytest.raises(TimeError, match="epoch"):
            query.update_relation("Person", {"id": 9, "name": "eve"}, +1, -4)
        assert rows(query.current()) == [("ada",)]

    def test_update_lands_at_its_own_instant(self, engine, kind):
        query = join_query(engine, kind)
        query.start()
        query.push("Obs", {"id": 1, "room": "a", "temp": 0}, 0)
        query.push("Obs", {"id": 3, "room": "a", "temp": 0}, 4)
        # The window expiry due at 10 runs first; the new Person row
        # joins the live id 3 at 12, not at that earlier instant.
        query.update_relation("Person", {"id": 3, "name": "cy"}, +1, 12)
        assert [(t, rows(bag)) for t, bag in
                query.as_relation().snapshots()] == [
            (0, [("ada",)]), (10, []), (12, [("cy",)])]


class TestPinnedOutput:
    """Exact emissions and change-log of one query per R2S shape."""

    ROWS = [
        ({"id": 1, "room": "a", "temp": 35}, 0),
        ({"id": 2, "room": "b", "temp": 10}, 1),
        ({"id": 3, "room": "a", "temp": 31}, 3),
        ({"id": 4, "room": "b", "temp": 40}, 5),
        ({"id": 5, "room": "a", "temp": 28}, 6),
        ({"id": 6, "room": "b", "temp": 33}, 9),
    ]

    def run(self, engine, text):
        query = engine.register_query(text)
        query.start()
        emitted = []
        for row, t in self.ROWS:
            emitted.extend(query.push("Obs", row, t))
        emitted.extend(query.advance_to(12))
        return ([(tuple(e.record.values), e.timestamp) for e in emitted],
                [(t, rows(bag)) for t, bag in
                 query.as_relation().snapshots()])

    def test_every_query_shape_instant_by_instant(self, engine):
        assert self.run(
            engine, "SELECT ISTREAM id FROM Obs [Rows 2] WHERE temp > 30") == (
            [((1,), 0), ((3,), 3), ((4,), 5), ((6,), 9)],
            [(0, [(1,)]), (3, [(3,)]), (5, [(3,), (4,)]), (6, [(4,)]),
             (9, [(6,)])])
        assert self.run(
            engine, "SELECT room, MAX(temp) FROM Obs [Range 4] "
                    "GROUP BY room") == (
            [],
            [(0, [("a", 35)]), (1, [("a", 35), ("b", 10)]),
             (4, [("a", 31), ("b", 10)]), (5, [("a", 31), ("b", 40)]),
             (7, [("a", 28), ("b", 40)]), (9, [("a", 28), ("b", 33)]),
             (10, [("b", 33)])])
        assert self.run(engine, "SELECT RSTREAM id, temp FROM Obs [Now]") == (
            [((1, 35), 0), ((2, 10), 1), ((3, 31), 3), ((4, 40), 5),
             ((5, 28), 6), ((6, 33), 9)],
            [(0, [(1, 35)]), (1, [(2, 10)]), (2, []), (3, [(3, 31)]),
             (4, []), (5, [(4, 40)]), (6, [(5, 28)]), (7, []),
             (9, [(6, 33)]), (10, [])])
