"""Tests for the micro-batch emission-safety pass (repro.plan.batching).

The fallback matrix: relation-output plans are always batch-safe (state
per instant nets identically), R2S plans are safe only when no operator
exposes intra-instant intermediates — aggregates, evicting windows,
joins, non-monotone set ops, RSTREAM and opaque nodes all force the
per-element fallback.
"""

import pytest

from repro.core import Schema
from repro.cql import CQLEngine
from repro.plan import BatchReport, batch_safety, decide_batch_size


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.catalog.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.catalog.register_stream("Alerts", Schema(["room", "level"]))
    engine.catalog.register_relation("Rooms", Schema(["room", "floor"]), [])
    return engine


def report(engine, text):
    return batch_safety(engine.plan(text, optimize=True))


class TestRelationOutputs:
    def test_relation_query_is_always_safe(self, engine):
        rep = report(engine, "SELECT id FROM Obs [Range 5] WHERE temp > 3")
        assert rep.safe and rep.blockers == ()

    def test_even_aggregates_are_safe_without_r2s_root(self, engine):
        rep = report(engine, "SELECT room, COUNT(*) AS n "
                             "FROM Obs [Range 5] GROUP BY room")
        assert rep.safe

    def test_joins_are_safe_without_r2s_root(self, engine):
        rep = report(
            engine, "SELECT Obs.id, Rooms.floor FROM Obs [Range 3], Rooms "
                    "WHERE Obs.room = Rooms.room")
        assert rep.safe


class TestStreamOutputs:
    def test_unbounded_window_stream_is_safe(self, engine):
        rep = report(engine, "SELECT ISTREAM id FROM Obs "
                             "[Range Unbounded] WHERE temp > 3")
        assert rep.safe
        assert "exact" in rep.describe()

    def test_range_window_blocks_on_expiry_netting(self, engine):
        rep = report(engine, "SELECT ISTREAM id FROM Obs [Range 5]")
        assert not rep.safe
        assert any("window" in where for where, _ in rep.blockers)

    def test_now_window_blocks(self, engine):
        rep = report(engine, "SELECT ISTREAM id FROM Obs [Now]")
        assert not rep.safe

    def test_rows_window_blocks_on_capacity_eviction(self, engine):
        rep = report(engine, "SELECT ISTREAM id FROM Obs [Rows 2]")
        assert not rep.safe
        assert any("rows" in where for where, _ in rep.blockers)

    def test_aggregate_blocks_on_intermediate_rows(self, engine):
        rep = report(engine, "SELECT ISTREAM COUNT(*) AS n "
                             "FROM Obs [Range Unbounded]")
        assert not rep.safe
        assert any("aggregate" in why for _, why in rep.blockers)

    def test_join_blocks_on_match_order(self, engine):
        rep = report(
            engine, "SELECT ISTREAM Obs.id FROM Obs [Range Unbounded], "
                    "Rooms WHERE Obs.room = Rooms.room")
        assert not rep.safe
        assert any(where == "join" for where, _ in rep.blockers)

    def test_rstream_blocks_on_snapshot_multiplicity(self, engine):
        rep = report(engine, "SELECT RSTREAM id FROM Obs "
                             "[Range Unbounded]")
        assert not rep.safe
        assert any(where == "RSTREAM" for where, _ in rep.blockers)

    def test_describe_names_every_blocker(self, engine):
        rep = report(engine, "SELECT ISTREAM COUNT(*) AS n "
                             "FROM Obs [Range 5]")
        text = rep.describe()
        assert text.startswith("per-element fallback")
        assert "aggregate" in text


class TestDecideBatchSize:
    def test_safe_plan_keeps_request(self, engine):
        plan = engine.plan("SELECT id FROM Obs [Range 5]")
        assert decide_batch_size(plan, 64) == 64

    def test_unsafe_plan_clamps_to_one(self, engine):
        plan = engine.plan("SELECT ISTREAM COUNT(*) AS n "
                           "FROM Obs [Range 5]")
        assert decide_batch_size(plan, 64) == 1

    def test_requests_at_or_below_one_pass_through(self, engine):
        plan = engine.plan("SELECT id FROM Obs [Range 5]")
        assert decide_batch_size(plan, 1) == 1
        assert decide_batch_size(plan, 0) == 1

    def test_no_request_is_the_head_instant_for_relation_outputs(self, engine):
        relation = engine.plan("SELECT room, COUNT(*) AS n "
                               "FROM Obs [Range 5] GROUP BY room")
        assert decide_batch_size(relation, None) is None
        safe_stream = engine.plan("SELECT ISTREAM id FROM Obs "
                                  "[Range Unbounded]")
        assert decide_batch_size(safe_stream, None) == 1

    def test_report_is_frozen(self):
        rep = BatchReport(safe=True, blockers=())
        with pytest.raises(Exception):
            rep.safe = False
