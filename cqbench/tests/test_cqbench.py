"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root: ``python -m pytest cqbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cqbench import harness
from cqbench.trace import END, NAME, PARENT, START, TICK, NullTracer, Tracer
from cqbench.workloads import WORKLOADS, JoinRecover, PeriodicFuse

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    cls = WORKLOADS[name]
    assert cls.generate(7, 12) == cls.generate(7, 12)
    assert cls.generate(7, 12) != cls.generate(8, 12)


def test_benchmark_json_names_match_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] \
        == [(cls.name, cls.why) for cls in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == harness.PER_LAYER


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer()
    # A 10 s tick with two children (3 s and 4 s), the second of which
    # has a 1 s child of its own; a set-up root beside it.
    tracer.spans = [
        ["tick", 0, -1, 0.0, 10.0],
        ["dsms.ingest", 0, 0, 1.0, 4.0],
        ["dsms.drain", 0, 0, 5.0, 9.0],
        ["dsms.store_read", 0, 2, 6.0, 7.0],
        ["setup", -1, -1, 20.0, 22.0],
    ]
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert tracer.busy_by_name() == {
        "tick": 3.0, "dsms.ingest": 3.0, "dsms.drain": 3.0,
        "dsms.store_read": 1.0, "setup": 2.0}


def test_spans_nest_under_their_tick():
    tracer = Tracer()
    with tracer.tick(-1):
        with tracer.span("dsms.register"):
            pass
    with tracer.tick(4):
        with tracer.span("dsms.ingest") as ingest:
            pass
        with tracer.span("dsms.drain"):
            pass
    tracer.count("dsms.ingest.count", 50)
    names = [span[NAME] for span in tracer.spans]
    assert names == ["setup", "dsms.register", "tick", "dsms.ingest",
                     "dsms.drain"]
    assert [span[TICK] for span in tracer.spans] == [-1, -1, 4, 4, 4]
    assert [span[PARENT] for span in tracer.spans] == [-1, 0, -1, 2, 2]
    assert all(span[END] >= span[START] for span in tracer.spans)
    assert ingest.seconds == tracer.spans[3][END] - tracer.spans[3][START]
    assert sum(tracer.self_times()) == pytest.approx(
        sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0))
    assert tracer.counts["dsms.ingest.count"] == 50


def test_null_tracer_accepts_the_same_calls():
    tracer = NullTracer()
    with tracer.tick(0):
        with tracer.span("dsms.drain") as drain:
            pass
    tracer.count("x")
    assert drain.seconds == 0.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 201)]
    assert harness.percentile(values, 50) == 100.0
    assert harness.percentile(values, 95) == 190.0  # 10 samples beyond
    assert harness.percentile(values, 100) == 200.0
    assert harness.percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quartiles():
    assert harness.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, q2, q3 = harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)


def test_fold_takes_each_ticks_median_of_the_scaled_times():
    class Driver:
        events = 40
        failed = 0

    reference = harness.CANARY_REFERENCE
    passes = [
        harness.PassResult(Driver(), reference, 0.5, [4.0, 1.0], [5.0, 2.0], 1),
        harness.PassResult(Driver(), reference, 0.3, [2.0, 3.0], [3.0, 5.0], 1),
        # A box at half speed took twice as long over the same work.
        harness.PassResult(Driver(), reference / 2, 0.8, [6.0, 4.0],
                           [8.0, 8.0], 1),
    ]
    assert passes[2].scale == 0.5
    assert passes[2].latencies == [3.0, 2.0]
    assert passes[2].throughput_eps == 5.0  # 40 events in 4 + 4 scaled s
    assert [p.setup_s for p in passes] == [5.5, 3.3, 4.4]
    folded = harness.fold(passes)
    assert folded["wall_s"] == 8.0  # medians 4 and 4
    assert folded["throughput_eps"] == 5.0
    assert folded["latency_p50_ms"] == 2000.0  # tick medians 3 and 2
    assert folded["latency_p95_ms"] == 3000.0


def test_a_tick_is_scaled_by_the_chunks_run_nearest_to_it():
    loops = harness.CANARY_LOOPS
    # Chunks before ticks 0, 2, 4, ... 18; the box halves its speed at
    # tick 10 (a chunk takes 2 s instead of 1 s).
    chunks = [(tick, 1.0 if tick < 10 else 2.0) for tick in range(0, 20, 2)]
    speeds = harness.local_speeds(chunks, 20)
    assert speeds[:6] == [loops] * 6 and speeds[-6:] == [loops / 2] * 6
    assert harness.local_speeds(chunks[:2], 3) == [loops] * 3

    class Driver:
        events = 2
        failed = 0

    reference = harness.CANARY_REFERENCE
    result = harness.PassResult(Driver(), reference, 0.0, [1.0, 2.0],
                                [1.0, 2.0], 1, [reference, reference / 2])
    assert result.durations == [1.0, 1.0] and result.clock_s == 3.0


def test_a_pass_reads_the_canary_between_ticks():
    cls = WORKLOADS["agg_firehose"]
    result = harness.run_pass(cls, cls.generate(2, 40), 40, warm_ticks=8)
    assert len(result.durations) == len(result.latencies) == 40
    assert result.speed > 0
    assert result.scale == result.speed / harness.CANARY_REFERENCE
    assert result.setup_s == pytest.approx(
        result.build_s + sum(result.durations[:8]))


def test_periodic_fuse_fires_every_period():
    fuse = PeriodicFuse(10)
    fired = [fuse.record(3) for _ in range(20)]  # counts 3, 6, ... 60
    # Blows at 12, then re-arms ten units past each blow: 24, 36, 48, 60.
    assert [i for i, hit in enumerate(fired) if hit] == [3, 7, 11, 15, 19]
    assert fuse.fired == 5


def test_join_recover_crashes_recovers_and_matches_the_clean_run():
    ticks = 40
    inputs = JoinRecover.generate(3, ticks)
    result = harness.run_pass(JoinRecover, inputs, ticks)
    driver = result.driver
    assert driver.failed == 0
    # The warm-up's 40 ticks hold exactly the first crash.
    assert driver.fuse.fired == 1
    # Each blow of the fuse is exactly one recovery attempt.
    assert driver.engine.recovery.attempts == driver.fuse.fired
    # One checkpoint tick in eight (plus the baseline taken at set-up).
    assert driver.layer_counts()["chaos.checkpoint.count"] >= ticks // 8
    assert JoinRecover.verify(inputs, ticks, driver.observe()) == []


def test_verify_reports_a_wrong_answer():
    cls = WORKLOADS["agg_firehose"]
    inputs = cls.generate(5, 30)
    driver = harness.run_pass(cls, inputs, 30).driver
    assert cls.verify(inputs, 30, driver.observe()) == []
    # The Store answer after 30 ticks is not the answer after 29.
    assert cls.verify(inputs, 29, driver.observe()) != []


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_result_object(trace):
    done = subprocess.run(
        [sys.executable, "-m", "cqbench", "run", "--workload", "query_fleet",
         "--smoke", "--seed", "11", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
