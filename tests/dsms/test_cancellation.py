"""Tests for explicit query termination (the Figure 1 contract's end)."""

import pytest

from repro.core import PlanError, Schema
from repro.dsms import DSMSEngine


@pytest.fixture
def dsms():
    engine = DSMSEngine()
    engine.register_stream("Obs", Schema(["id", "temp"]))
    return engine


class TestCancellation:
    def test_cancelled_query_stops_receiving(self, dsms):
        handle = dsms.register_query(
            "q", "SELECT COUNT(*) n FROM Obs [Range Unbounded]")
        dsms.ingest("Obs", {"id": 1, "temp": 20}, 0)
        dsms.run_until_idle()
        dsms.cancel_query("q")
        admitted = dsms.ingest("Obs", {"id": 2, "temp": 21}, 1)
        assert admitted == 0
        # The Store retains the final answer (history is durable).
        assert [r["n"] for r in handle.store_state()] == [1]

    def test_cancel_unknown_query(self, dsms):
        with pytest.raises(PlanError, match="unknown"):
            dsms.cancel_query("ghost")

    def test_other_queries_unaffected(self, dsms):
        dsms.register_query("a", "SELECT id FROM Obs [Now]")
        keep = dsms.register_query("b", "SELECT temp FROM Obs [Now]")
        dsms.cancel_query("a")
        dsms.ingest("Obs", {"id": 1, "temp": 20}, 0)
        dsms.run_until_idle()
        assert keep.metrics.processed == 1
        assert len(dsms.queries) == 1

    def test_name_reusable_after_cancel(self, dsms):
        dsms.register_query("q", "SELECT id FROM Obs [Now]")
        dsms.cancel_query("q")
        dsms.register_query("q", "SELECT temp FROM Obs [Now]")
        assert len(dsms.queries) == 1

    def test_cancel_drops_the_querys_scratch_state_immediately(self, dsms):
        dsms.register_query(
            "gone", "SELECT COUNT(*) n FROM Obs [Range Unbounded] "
                    "GROUP BY id")
        dsms.register_query("stays", "SELECT DISTINCT id FROM Obs [Range 50]")
        for t in range(3):
            dsms.ingest("Obs", {"id": t, "temp": 20}, t)
        dsms.run_until_idle()
        stays = {label: size
                 for label, size in dsms.scratch.breakdown().items()
                 if label.startswith("stays/")}
        assert dsms.scratch.occupancy() > sum(stays.values()) > 0
        peak = dsms.scratch.peak
        dsms.cancel_query("gone")
        # No service quantum, no audit in between: the ledger, the audit
        # and the per-label view all forget the cancelled query at once.
        assert dsms.scratch.total == sum(stays.values())
        assert dsms.scratch.occupancy() == dsms.total_state_size() \
            == sum(stays.values())
        assert dsms.scratch.breakdown() == stays
        assert dsms.scratch.peak == peak  # a high-water mark stays put
        # And the engine no longer keeps the cancelled operators alive.
        assert len(dsms._cql.queries) == 1
