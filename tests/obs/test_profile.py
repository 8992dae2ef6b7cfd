"""Tests for the profiling layer (repro.obs.profile).

Covers per-operator statistics, backpressure telemetry, the flight
recorder, and the introspection surface (explain_analyze / render_top /
JSONL snapshots), plus the tier-1 guard that the disabled hot path does
zero profiling work.
"""

import json
import sys

import pytest

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.records import Schema
from repro.dataflow import FixedWindows, Pipeline
from repro.dsms.engine import DSMSEngine
from repro.dsms.queues import InputQueue


def run_pipeline():
    """A small windowed count on the dataflow runner."""
    p = Pipeline()
    (p.create([("a", 1), ("a", 5), ("b", 12)])
     .map(lambda v: (v, 1))
     .window_into(FixedWindows(10))
     .combine_per_key(sum)
     .collect("out"))
    return p.run().values("out")


def shared_group_engine():
    """The acceptance workload: a shared-group standing query under load."""
    engine = DSMSEngine(sharing=True, queue_capacity=64)
    engine.register_stream("Obs", Schema(["room", "temp"]))
    handle = engine.register_query(
        "hot_rooms",
        "SELECT room, COUNT(*) FROM Obs [Range 40 Slide 40] "
        "WHERE temp > 25 GROUP BY room")
    engine.register_query(
        "warm_stream", "SELECT ISTREAM room FROM Obs [Now] WHERE temp > 20")
    rooms = ("kitchen", "lab", "office")
    for t in range(120):
        engine.ingest("Obs", {"room": rooms[t % 3],
                              "temp": 15.0 + (t * 7) % 20}, t=t)
        if t % 16 == 0:
            engine.run_until_idle()
    engine.run_until_idle()
    engine.advance_time(160)
    return engine, handle


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_but_counts_everything(self):
        recorder = _profile.FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("tick", i=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [e["i"] for e in recorder.events()] == [6, 7, 8, 9]

    def test_sequence_numbers_are_monotone_across_wrap(self):
        recorder = _profile.FlightRecorder(capacity=3)
        for i in range(7):
            recorder.record("tick", i=i)
        seqs = [e["seq"] for e in recorder.events()]
        assert seqs == [5, 6, 7]

    def test_tail_returns_newest(self):
        recorder = _profile.FlightRecorder(capacity=8)
        for i in range(6):
            recorder.record("tick", i=i)
        assert [e["i"] for e in recorder.tail(2)] == [4, 5]
        assert recorder.tail(0) == []

    def test_events_carry_kind_and_wall_clock(self):
        recorder = _profile.FlightRecorder()
        recorder.record("watermark.advance", source="s", watermark=7)
        (event,) = recorder.events()
        assert event["kind"] == "watermark.advance"
        assert event["source"] == "s"
        assert event["wall"] > 0

    def test_clear_resets_ring_and_sequence(self):
        recorder = _profile.FlightRecorder()
        recorder.record("tick")
        recorder.clear()
        assert len(recorder) == 0 and recorder.recorded == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _profile.FlightRecorder(capacity=0)

    def test_dump_jsonl_round_trips(self, tmp_path):
        recorder = _profile.FlightRecorder()
        recorder.record("element.push", source="s", tick=1)
        recorder.record("checkpoint.barrier", checkpoint=2)
        path = recorder.dump_jsonl(tmp_path / "flight.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "element.push", "checkpoint.barrier"]

    def test_dump_on_crash_writes_only_on_exception(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        with _profile.dump_on_crash(path) as recorder:
            recorder.record("tick", i=1)
        assert not path.exists()
        with pytest.raises(RuntimeError):
            with _profile.dump_on_crash(path) as recorder:
                recorder.record("tick", i=2)
                raise RuntimeError("boom")
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds and all(k == "tick" for k in kinds)


# ---------------------------------------------------------------------------
# State-size estimation
# ---------------------------------------------------------------------------


class TestStateBytes:
    def test_state_bytes_reads_backends(self):
        from repro.dsl.operators import KeyedStateOperator

        op = KeyedStateOperator()
        op.open(0, 1)
        empty = _profile.state_bytes(op)
        op.state.put("a", 1)
        op.state.put("b", 2)
        assert _profile.state_bytes(op) > empty
        assert _profile.state_bytes(object()) is None


# ---------------------------------------------------------------------------
# Tier-1 guard: disabled hot path does zero profiling work (satellite)
# ---------------------------------------------------------------------------


class TestDisabledPathDoesNoProfilingWork:
    def test_disabled_paths_record_no_flight_events(self, monkeypatch):
        """With obs never enabled: no flight-recorder appends — enforced
        by making them raise and running a dataflow pipeline and the
        DSMS."""
        def forbidden(*args, **kwargs):
            raise AssertionError("profiling work on the disabled hot path")

        monkeypatch.setattr(_profile.FlightRecorder, "record", forbidden)
        assert run_pipeline() == [("a", 2), ("b", 1)]
        engine, handle = shared_group_engine()
        assert handle.metrics.processed > 0

    def test_dsms_ingest_and_drain_create_no_metric(self, monkeypatch):
        """With obs never enabled the DSMS door keeps its watermarks and
        refuses late arrivals without touching the registry: no metric
        is created by an ingest, a drain, an advance or a refusal."""
        from repro.core import StateError
        from repro.obs.registry import MetricsRegistry

        def forbidden(*args, **kwargs):
            raise AssertionError("a metric created on the disabled path")

        monkeypatch.setattr(MetricsRegistry, "_get_or_create", forbidden)
        engine, handle = shared_group_engine()
        with pytest.raises(StateError):
            engine.ingest("Obs", {"room": "lab", "temp": 30.0}, t=100)
        engine.ingest("Obs", {"room": "lab", "temp": 30.0}, t=200)
        engine.run_until_idle()
        assert handle.metrics.processed > 0
        assert engine.watermark("Obs") == 200
        assert len(obs.get_registry()) == 0

    def test_no_profile_metrics_exist_when_disabled(self):
        run_pipeline()
        assert len(obs.get_registry()) == 0


# ---------------------------------------------------------------------------
# Stall detection
# ---------------------------------------------------------------------------


class TestStallDetector:
    def test_active_streams_are_not_stalled(self):
        detector = _profile.StallDetector(threshold=4)
        for _ in range(10):
            detector.note_arrival("a")
            detector.note_arrival("b")
        assert detector.stalled() == {}

    def test_silent_stream_stalls_while_others_advance(self):
        detector = _profile.StallDetector(threshold=4)
        detector.note_arrival("quiet")
        for _ in range(8):
            detector.note_arrival("busy")
        assert "quiet" in detector.stalled()
        assert "busy" not in detector.stalled()

    def test_registered_but_never_producing_counts_full_tick(self):
        # the crash-recovered-source case: a source that registered but
        # never produced shows the whole engine's progress as its gap
        detector = _profile.StallDetector(threshold=2)
        detector.register("dead")
        for _ in range(5):
            detector.note_arrival("busy")
        assert detector.gaps()["dead"] == 5
        assert detector.stalled() == {"dead": 5}

    def test_snapshot_shape(self):
        detector = _profile.StallDetector(threshold=1)
        detector.register("s")
        snap = detector.snapshot()
        assert snap == {"tick": 0, "threshold": 1, "gaps": {"s": 0},
                        "stalled": []}

    def test_engine_publishes_stall_gauges(self):
        obs.enable()
        engine = DSMSEngine()
        engine.register_stream("Live", Schema(["x"]))
        engine.register_stream("Dead", Schema(["x"]))
        engine.stall_detector.threshold = 4
        engine.register_query("q", "SELECT ISTREAM x FROM Live [Now]")
        for t in range(8):
            engine.ingest("Live", {"x": t}, t=t)
        engine.run_until_idle()
        engine.publish_observability()
        registry = obs.get_registry()
        assert registry.get("dsms.source.stalled", stream="Dead").value == 1
        assert registry.get("dsms.source.stalled", stream="Live").value == 0


# ---------------------------------------------------------------------------
# Backpressure telemetry
# ---------------------------------------------------------------------------


class TestQueuePressure:
    def test_peak_tracks_high_water_mark(self):
        queue = InputQueue(capacity=10)
        for i in range(6):
            queue.offer(i, i, "S")
        queue.poll_instant()
        queue.poll_instant()
        queue.offer(7, 7, "S")
        assert queue.peak == 6

    def test_pressure_is_edge_triggered(self):
        queue = InputQueue(capacity=10)  # pressure mark at 8
        for i in range(10):
            queue.offer(i, i, "S")
        assert queue.pressured
        assert queue.pressure_events == 1  # one sustained episode

    def test_pressure_rearms_after_draining(self):
        queue = InputQueue(capacity=10)
        for i in range(8):
            queue.offer(i, i, "S")
        assert queue.pressure_events == 1
        while queue.poll_instant() is not None:
            pass
        assert not queue.pressured
        for i in range(8):
            queue.offer(i, i, "S")
        assert queue.pressure_events == 2

    def test_pressure_crossing_lands_in_flight_recorder(self):
        obs.enable(profile=True)
        queue = InputQueue(capacity=5)
        for i in range(5):
            queue.offer(i, i, "S")
        events = [e for e in _profile.get_flight_recorder().events()
                  if e["kind"] == "queue.pressure"]
        assert events and events[0]["capacity"] == 5

    def test_engine_publishes_queue_gauges(self):
        obs.enable()
        engine, _handle = shared_group_engine()
        engine.publish_observability()
        registry = obs.get_registry()
        peaks = registry.children("dsms.queue.peak_depth")
        assert peaks and all(m.value >= 0 for m in peaks)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE (the acceptance case)
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_shared_group_query_full_report(self):
        """The ISSUE acceptance criterion: a shared-group standing query
        reports per-operator tuple counts, selectivity, and busy-time
        shares that sum to ~100%."""
        obs.enable(profile=True)
        _engine, handle = shared_group_engine()
        report = _profile.analyze(handle)
        assert report["query"] == "hot_rooms"
        assert report["queue"]["capacity"] == 64
        operators = report["operators"]
        assert len(operators) >= 2
        for entry in operators:
            assert entry["records_in"] > 0
            if entry["selectivity"] is not None:
                assert 0.0 <= entry["selectivity"] <= 1.0
        assert report["total_busy_seconds"] > 0
        shares = [e["busy_share"] for e in operators
                  if e["busy_share"] is not None]
        assert sum(shares) == pytest.approx(1.0, abs=0.02)

    def test_rendered_handle_report_mentions_everything(self):
        obs.enable(profile=True)
        _engine, handle = shared_group_engine()
        text = _profile.explain_analyze(handle)
        assert "query 'hot_rooms'" in text
        assert "queue: depth=" in text
        assert "rows=" in text and "sel=" in text and "busy=" in text
        assert "shares sum" in text

    def test_continuous_query_without_timing_says_so(self):
        engine, handle = shared_group_engine()
        text = _profile.explain_analyze(handle.query)
        assert "enable timing with obs.enable()" in text

    def test_unexplainable_target_raises_type_error(self):
        with pytest.raises(TypeError):
            _profile.explain_analyze(42)


def recovering_join_engine(recovery_interval):
    """A three-way stream-stream-relation join (the cqbench join_recover
    shape), checkpointing every ``recovery_interval`` arrivals."""
    engine = DSMSEngine(recovery_interval=recovery_interval)
    engine.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.register_stream("Badge", Schema(["id", "door"]))
    engine.register_relation("Person", Schema(["id", "name"]),
                             [{"id": i, "name": f"p{i}"} for i in range(20)])
    handle = engine.register_query(
        "join", "SELECT O.room, B.door, P.name "
                "FROM Obs O [Range 10], Badge B [Range 10], Person P "
                "WHERE O.id = B.id AND B.id = P.id")
    for t in range(1, 41):
        engine.ingest("Obs", {"id": t % 7, "room": t % 3, "temp": t}, t)
        engine.ingest("Badge", {"id": t % 5, "door": t % 2}, t)
        engine.run_until_idle()
    return engine, handle


class TestCheckpointBytesByOperator:
    def test_per_operator_figures_sum_to_the_query_tally(self):
        engine, handle = recovering_join_engine(recovery_interval=16)
        operators = _profile.analyze(handle)["operators"]
        figures = [entry["checkpoint_bytes"] for entry in operators]
        query = engine.recovery.latest().state["queries"]["join"]
        agenda = (sys.getsizeof(query["agenda"]["heap"])
                  + sys.getsizeof(query["agenda"]["scheduled"]))
        assert sum(figures) == handle.query.barrier_bytes - agenda
        # The windows and the joins changed since the last checkpoint.
        assert sum(1 for figure in figures if figure) >= 4

    def test_explain_analyze_renders_them(self):
        _engine, handle = recovering_join_engine(recovery_interval=16)
        assert "ckpt=" in _profile.explain_analyze(handle)

    @staticmethod
    def min_max_checkpoint_bytes(values):
        """What a barrier copies for a MIN/MAX aggregate whose two groups
        hold ``values`` distinct temperatures between them, when one
        arrival since the previous barrier dirtied each group."""
        engine = DSMSEngine()
        engine.register_stream("Obs", Schema(["id", "room", "temp"]))
        handle = engine.register_query(
            "extremes", "SELECT room, MIN(temp) AS lo, MAX(temp) AS hi "
                        "FROM Obs [Range 1000] GROUP BY room")
        for t in range(1, values + 1):
            engine.ingest("Obs", {"id": t, "room": t % 2, "temp": t}, t)
        engine.run_until_idle()
        engine.snapshot()
        for room in (0, 1):
            engine.ingest("Obs", {"id": 0, "room": room, "temp": 0},
                          values + 1)
        engine.run_until_idle()
        engine.snapshot()
        (entry,) = [entry for entry in _profile.analyze(handle)["operators"]
                    if entry["operator"] == "AggregateOp"]
        return entry["checkpoint_bytes"]

    def test_an_aggregate_counts_the_accumulators_it_copies(self):
        # Each dirty group's copy carries a MIN and a MAX accumulator of
        # all its values: 200 per group take ~20x the bytes of 2 (38 064
        # against 1 744 on CPython 3.11).
        few, many = (self.min_max_checkpoint_bytes(4),
                     self.min_max_checkpoint_bytes(400))
        assert many > 10 * few

    def test_absent_when_the_engine_never_checkpoints(self):
        _engine, handle = recovering_join_engine(recovery_interval=None)
        operators = _profile.analyze(handle)["operators"]
        assert all("checkpoint_bytes" not in entry for entry in operators)
        assert "ckpt=" not in _profile.explain_analyze(handle)


# ---------------------------------------------------------------------------
# Snapshot endpoint + top view
# ---------------------------------------------------------------------------


class TestIntrospectionSurface:
    def test_write_snapshot_appends_jsonl(self, tmp_path):
        obs.enable(profile=True)
        engine, _handle = shared_group_engine()
        engine.publish_observability()
        _profile.get_flight_recorder().record("tick")
        path = tmp_path / "snap.jsonl"
        _profile.write_snapshot(path)
        _profile.write_snapshot(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[-1])
        assert payload["type"] == "profile"
        assert payload["profiling"] is True
        assert payload["flight_recorder"]["recorded"] >= 1
        assert any(m["name"] == "dsms.query.processed"
                   for m in payload["metrics"])

    def test_render_top_shows_queries_and_operators(self):
        obs.enable(profile=True)
        engine, _handle = shared_group_engine()
        engine.publish_observability()
        text = _profile.render_top()
        assert "== top queries ==" in text
        assert "== hot operators ==" in text
        assert "hot_rooms" in text

    def test_render_top_flags_stalled_sources(self):
        obs.enable()
        engine = DSMSEngine()
        engine.register_stream("Live", Schema(["x"]))
        engine.register_stream("Dead", Schema(["x"]))
        engine.stall_detector.threshold = 4
        engine.register_query("q", "SELECT ISTREAM x FROM Live [Now]")
        for t in range(8):
            engine.ingest("Live", {"x": t}, t=t)
        engine.run_until_idle()
        engine.publish_observability()
        text = _profile.render_top()
        assert "== backpressure ==" in text
        assert "source[Dead]" in text and "STALLED" in text

    def test_obs_reset_drops_the_recorder(self):
        obs.enable(profile=True)
        _profile.get_flight_recorder().record("tick")
        obs.reset()
        assert not _profile.is_enabled()
        assert _profile.get_flight_recorder().recorded == 0
