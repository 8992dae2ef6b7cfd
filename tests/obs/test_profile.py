"""Tests for the profiling layer (repro.obs.profile).

Covers the four tentpole pieces — per-operator collectors on the kernel,
backpressure telemetry, the flight recorder, and the introspection
surface (explain_analyze / render_top / JSONL snapshots) — plus the
tier-1 guard that the disabled hot path does zero profiling work.
"""

import json
import sys

import pytest

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.records import Schema
from repro.dsms.engine import DSMSEngine
from repro.dsms.queues import InputQueue
from repro.exec import Operator, Plan


# ---------------------------------------------------------------------------
# Kernel plumbing for plan-level tests
# ---------------------------------------------------------------------------


class AddOne(Operator):
    fusible = True

    def process_element(self, value, input_index=0):
        self.emit(value + 1)


class KeepOdd(Operator):
    fusible = True

    def process_element(self, value, input_index=0):
        if value % 2:
            self.emit(value)


class Sink(Operator):
    def __init__(self):
        self.out = []

    def process_element(self, value, input_index=0):
        self.out.append(value)


def linear_plan():
    plan = Plan()
    plan.add_source("s")
    plan.add_operator("inc", AddOne(), ["s"])
    plan.add_operator("odd", KeepOdd(), ["inc"])
    sink = Sink()
    plan.add_operator("sink", sink, ["odd"])
    return plan, sink


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

    def test_kernel_records_flight_events_when_enabled(self):
        obs.enable(profile=True)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(130):  # > FLIGHT_EVERY pushes
            plan.push("s", value)
        plan.advance_watermark("s", 130)
        kinds = {e["kind"] for e in _profile.get_flight_recorder().events()}
        assert "element.push" in kinds
        assert "watermark.advance" in kinds


# ---------------------------------------------------------------------------
# Per-operator collectors on the kernel
# ---------------------------------------------------------------------------


class TestKernelProfiling:
    def test_collectors_count_exact_in_out(self):
        obs.enable(profile=True, sample_every=1)
        plan, sink = linear_plan()
        plan.open(layer="test")
        for value in range(6):
            plan.push("s", value)
        assert sink.out == [1, 3, 5]
        profiles = plan._profiler.profiles
        assert profiles["inc"].records_in == 6
        assert profiles["inc"].records_out == 6
        assert profiles["odd"].records_in == 6
        assert profiles["odd"].records_out == 3
        assert profiles["odd"].selectivity == 0.5
        assert profiles["sink"].records_in == 3

    def test_sampled_busy_time_and_shares_sum_to_one(self):
        obs.enable(profile=True, sample_every=1)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(50):
            plan.push("s", value)
        snapshot = plan._profiler.snapshot()
        assert snapshot["total_busy_seconds"] > 0
        shares = [entry["busy_share"] for entry in snapshot["operators"]]
        assert all(share is not None for share in shares)
        assert sum(shares) == pytest.approx(1.0)
        # self-time attribution: no single operator swallows the whole
        # plan's wall time (the upstream ops' nested work is subtracted)
        assert all(share < 1.0 for share in shares)

    def test_sampling_rate_times_a_subset(self):
        obs.enable(profile=True, sample_every=4)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(16):
            plan.push("s", value)
        profile = plan._profiler.profiles["inc"]
        assert profile.records_in == 16
        assert profile.timed_in == 4  # 1 in 4 flows timed

    def test_selectivity_none_before_any_input(self):
        profile = _profile.OperatorProfile("op", "Test")
        assert profile.selectivity is None
        assert profile.as_dict()["selectivity"] is None

    def test_watermark_lag_per_node(self):
        obs.enable(profile=True, sample_every=1)
        plan = Plan()
        plan.add_source("a")
        plan.add_source("b")
        plan.add_operator("sink", Sink(), ["a", "b"])
        plan.open(layer="test")
        plan.advance_watermark("a", 100)
        plan.advance_watermark("b", 40)
        (entry,) = plan._profiler.snapshot()["operators"]
        # sink's combined watermark is min(100, 40); the plan's high
        # watermark is max(100, 40) — the node lags by the difference
        assert entry["watermark"] == 40
        assert entry["watermark_lag"] == 60

    def test_profiler_publishes_into_registry(self):
        obs.enable(profile=True, sample_every=1)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(4):
            plan.push("s", value)
        registry = obs.get_registry()
        plan._profiler.publish(registry)
        gauge = registry.get("exec.profile.records_in",
                             operator="inc", layer="test")
        assert gauge.value == 4

    def test_state_entries_reads_backends(self):
        from repro.exec.state import DictStateBackend

        class Stateful(Operator):
            def __init__(self):
                self.state = DictStateBackend()

            def process_element(self, value, input_index=0):
                self.state.put(value, value)

        op = Stateful()
        op.state.put("a", 1)
        op.state.put("b", 2)
        assert _profile.state_entries(op) == 2
        assert _profile.state_bytes(op) > 0
        assert _profile.state_entries(object()) is None


# ---------------------------------------------------------------------------
# Tier-1 guard: disabled hot path does zero profiling work (satellite)
# ---------------------------------------------------------------------------


class TestDisabledPathDoesNoProfilingWork:
    def test_plan_opened_without_enable_has_no_profiler(self):
        plan, _sink = linear_plan()
        plan.open()
        assert plan._profiler is None
        assert all(node.profile is None for node in plan._order)

    def test_kernel_hot_path_allocates_nothing_and_never_times(
            self, monkeypatch):
        """With obs never enabled: no collector allocation, no timing
        calls, no flight-recorder appends — enforced by making each of
        them raise and running the full kernel + DSMS paths."""
        import repro.exec.plan as exec_plan

        def forbidden(*args, **kwargs):
            raise AssertionError("profiling work on the disabled hot path")

        monkeypatch.setattr(_profile, "PlanProfiler", forbidden)
        monkeypatch.setattr(_profile.FlightRecorder, "record", forbidden)
        monkeypatch.setattr(exec_plan, "_perf", forbidden)

        plan, sink = linear_plan()
        plan.open()
        for value in range(20):
            plan.push("s", value)
        plan.advance_watermark("s", 20)
        assert sink.out == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]

        engine, handle = shared_group_engine()
        assert handle.metrics.processed > 0

    def test_no_profile_metrics_exist_when_disabled(self):
        plan, _sink = linear_plan()
        plan.open()
        for value in range(8):
            plan.push("s", value)
        names = {entry["name"]
                 for entry in obs.get_registry().snapshot()}
        assert not any(name.startswith("exec.profile") for name in names)

    def test_enable_does_not_retrofit_open_plans(self):
        plan, _sink = linear_plan()
        plan.open()
        obs.enable(profile=True)
        plan.push("s", 1)
        assert plan._profiler is None


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
            queue.offer(i, i)
        queue.poll()
        queue.poll()
        queue.offer(7, 7)
        assert queue.peak == 6

    def test_pressure_is_edge_triggered(self):
        queue = InputQueue(capacity=10)  # pressure mark at 8
        for i in range(10):
            queue.offer(i, i)
        assert queue.pressured
        assert queue.pressure_events == 1  # one sustained episode

    def test_pressure_rearms_after_draining(self):
        queue = InputQueue(capacity=10)
        for i in range(8):
            queue.offer(i, i)
        assert queue.pressure_events == 1
        while queue.poll() is not None:
            pass
        assert not queue.pressured
        for i in range(8):
            queue.offer(i, i)
        assert queue.pressure_events == 2

    def test_pressure_crossing_lands_in_flight_recorder(self):
        obs.enable(profile=True)
        queue = InputQueue(capacity=5)
        for i in range(5):
            queue.offer(i, i)
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
        obs.enable(profile=True, sample_every=1)
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
        obs.enable(profile=True, sample_every=1)
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

    def test_kernel_plan_renders_profiler_table(self):
        obs.enable(profile=True, sample_every=1)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(12):
            plan.push("s", value)
        text = _profile.explain_analyze(plan)
        assert "kernel plan [test]" in text
        assert "odd" in text and "0.500" in text  # KeepOdd selectivity

    def test_kernel_plan_without_profiler_degrades_gracefully(self):
        plan, _sink = linear_plan()
        plan.open()
        text = _profile.explain_analyze(plan)
        assert "profiling disabled" in text

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
        query = engine.recovery.latest().state["handles"]["join"]["query"]
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
        obs.enable(profile=True, sample_every=1)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        for value in range(130):  # > FLIGHT_EVERY, so the recorder has events
            plan.push("s", value)
        path = tmp_path / "snap.jsonl"
        _profile.write_snapshot(path)
        _profile.write_snapshot(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[-1])
        assert payload["type"] == "profile"
        assert payload["profiling"] is True
        (plan_snapshot,) = payload["plans"]
        assert plan_snapshot["label"] == "test"
        assert payload["flight_recorder"]["recorded"] >= 1
        # the snapshot also published the collectors as metrics
        assert any(m["name"] == "exec.profile.records_in"
                   for m in payload["metrics"])

    def test_render_top_shows_queries_and_operators(self):
        obs.enable(profile=True, sample_every=1)
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

    def test_obs_reset_drops_profilers_and_recorder(self):
        obs.enable(profile=True)
        plan, _sink = linear_plan()
        plan.open(layer="test")
        plan.push("s", 1)
        assert len(_profile._PROFILERS) == 1
        obs.reset()
        assert not _profile.is_enabled()
        assert len(_profile._PROFILERS) == 0
        assert _profile.get_flight_recorder().recorded == 0
