"""Engine-level live rescale (DSMSEngine.rescale_query)."""

import pytest

import repro.obs as obs
from repro.core import PlanError, Schema, StateError
from repro.dsms import DSMSEngine
from repro.obs import explain_analyze

OBS = Schema(["id", "room", "temp"])
GROUPED = ("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 20] "
           "GROUP BY room")
ROOMS = ["kitchen", "lab", "hall", "attic", "cellar"]

ROWS = [({"id": i, "room": ROOMS[i % len(ROOMS)], "temp": 10 + i % 30}, i)
        for i in range(24)]


def make_engine(**kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    return engine


def ingest(engine, rows):
    for row, t in rows:
        engine.ingest("Obs", row, t)


def store_outputs(handle):
    history = handle.store_history()
    return (history, sorted(map(repr, handle.store_state())))


class TestRescaleQuery:
    def test_live_rescale_matches_never_rescaled_control(self):
        control = make_engine()
        control_handle = control.register_query("q", GROUPED)
        ingest(control, ROWS)
        control.run_until_idle()

        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:10])
        engine.run_until_idle()
        report = engine.rescale_query("q", 3)
        ingest(engine, ROWS[10:])
        engine.run_until_idle()

        assert store_outputs(handle) == store_outputs(control_handle)
        assert handle.query.parallelism == 3
        assert handle.rescales == [report]
        assert report.parallelism_from == 1

    def test_unknown_query_rejected(self):
        engine = make_engine()
        with pytest.raises(PlanError, match="unknown query"):
            engine.rescale_query("nope", 2)

    def test_pending_queue_blocks_rescale(self):
        engine = make_engine()
        engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:3])  # enqueued, not yet drained
        with pytest.raises(StateError, match="drain"):
            engine.rescale_query("q", 2)

    def test_unpartitionable_query_rejected(self):
        engine = make_engine()
        engine.register_query("g", "SELECT COUNT(*) AS n FROM Obs [Range 5]")
        with pytest.raises(PlanError, match="not key-partitionable"):
            engine.rescale_query("g", 2)

    def test_scratch_registrations_follow_the_new_replicas(self):
        engine = make_engine()
        engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:10])
        engine.run_until_idle()
        occupancy_before = engine.scratch.occupancy()
        engine.rescale_query("q", 3)
        # One registration per stateful operator per partition: a window
        # source and an aggregate in each of three.
        assert sorted(engine.scratch.breakdown()) \
            == ["q/AggregateOp", "q/StreamSourceOp"]
        assert len(engine.scratch) == 6
        # The migrated state is the same state: accounting is unchanged.
        assert engine.scratch.occupancy() == occupancy_before

    def test_recovery_takes_a_fresh_baseline(self):
        engine = make_engine(recovery_interval=4)
        handle = engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:12])
        engine.run_until_idle()
        before = engine.recovery.latest()
        assert before.checkpoint_id > 1
        engine.rescale_query("q", 2)
        # The rescaled query keeps no recovery image: a fresh baseline is
        # taken at the migration point.
        after = engine.recovery.latest()
        assert after.checkpoint_id == before.checkpoint_id + 1
        assert after.offset == len(engine._arrival_log)
        ingest(engine, ROWS[12:])
        engine.run_until_idle()
        control = make_engine()
        control_handle = control.register_query("q", GROUPED)
        ingest(control, ROWS)
        control.run_until_idle()
        assert store_outputs(handle) == store_outputs(control_handle)

    def test_explain_analyze_reports_fission_and_rescales(self):
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:10])
        engine.run_until_idle()
        engine.rescale_query("q", 3)
        rendered = explain_analyze(handle)
        assert "fissioned x3" in rendered
        assert "rescales: 1→3" in rendered


def published_totals(field):
    """Per-operator-type sums of the published ``exec.operator.*``
    counters, across every label (old widths' operators included)."""
    totals = {}
    for counter in obs.get_registry().children(f"exec.operator.{field}"):
        name = counter.labels["operator"]
        totals[name] = totals.get(name, 0) + counter.value
    return totals


def live_totals(query, attr):
    """The same sums over the running tree.  The union's count restarts
    with each new width (it carries no state), so it is left out."""
    totals = {}
    for name, op in query.operators():
        if name != "PartitionUnionOp":
            totals[name] = totals.get(name, 0) + getattr(op, attr)
    return totals


class TestRescaleUnderObservability:
    """Published operator counters across a width change: no counter
    moves backwards, and every delta is published exactly once."""

    def assert_published_once(self, query):
        for field, attr in (("records_in", "received"),
                            ("records_out", "emitted")):
            published = published_totals(field)
            published.pop("PartitionUnionOp", None)
            assert published == live_totals(query, attr)

    def test_explicit_rescales_between_drains(self):
        obs.enable()
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:8])
        engine.run_until_idle()
        engine.rescale_query("q", 3)
        ingest(engine, ROWS[8:16])
        engine.run_until_idle()
        engine.rescale_query("q", 2)
        ingest(engine, ROWS[16:])
        engine.run_until_idle()
        assert handle.query.parallelism == 2
        self.assert_published_once(handle.query)

    def test_a_rescale_lands_on_unpublished_growth(self):
        # ``step`` does not publish, so the retired operators still hold
        # growth past the marks of the last publish when the width
        # changes.
        obs.enable()
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        ingest(engine, ROWS[:8])
        engine.run_until_idle()
        ingest(engine, ROWS[8:16])
        while engine.step():
            pass
        engine.rescale_query("q", 3)
        ingest(engine, ROWS[16:])
        engine.run_until_idle()
        assert handle.query.parallelism == 3
        self.assert_published_once(handle.query)
