"""Profiling overhead: enabled-vs-disabled throughput + attribution.

The observability tentpole's cost ledger.  The Figure 4 standing query
(per-room hot-reading counts over tumbling windows) runs through the
DSMS three times — obs fully off, metrics-only (``obs.enable()``), and
full profiling (``obs.enable(profile=True)``) — and a raw kernel push
loop runs off-vs-profiled.  Budgets:

* fully-enabled profiling stays within ``ENABLED_SLACK`` (15%) of the
  metrics-only path on the layer workloads — sampled timing (1 in 16
  flows) keeps it cheap.  A raw kernel push loop over near-trivial
  operators is also measured but *not* gated: with per-element work in
  the ~1µs range, the exact in/out counting is a visible fraction by
  construction — it is recorded as the honest worst case;
* the *disabled* path budget (<= 3%) is structural: profiling is an
  open-time decision, so a never-enabled plan runs the exact
  pre-profiling shape.  That is pinned by the zero-work guard in
  ``tests/obs/test_profile.py``.
* per-operator attribution stays sane: busy shares sum to ~100%.

Timings, ratios and the attribution readout land in
``BENCH_profiling.json``.
"""

import gc

import pytest

import repro.obs as obs
from repro.obs import profile as _profile
from repro.bench import (
    ExperimentTable,
    OBSERVATION_SCHEMA,
    bench_result,
    room_observations,
    timed,
    write_bench_json,
)
from repro.cql import CQLEngine
from repro.dsms import DSMSEngine
from repro.exec import Operator, Plan

ROWS = room_observations(600)
WINDOW = 100
HOT = 25
HORIZON = max(t for _, t in ROWS) + WINDOW

CQL_QUERY = (f"SELECT room, COUNT(*) FROM Obs "
             f"[Range {WINDOW} Slide {WINDOW}] "
             f"WHERE temp > {HOT} GROUP BY room")

#: full profiling (sampled timing + flight recorder) budget vs cold.
ENABLED_SLACK = 0.15
#: the disabled-path budget from the issue — recorded in the JSON; the
#: structural guarantee is pinned by the zero-work guard test.
DISABLED_BUDGET = 0.03
#: raw kernel push-loop length for the micro leg.
KERNEL_EVENTS = 5000
REPEATS = 7

MODES = [
    ("off", lambda: obs.reset()),
    ("metrics", lambda: obs.enable()),
    ("profile", lambda: obs.enable(profile=True)),
]


def run_dsms():
    engine = DSMSEngine(sharing=True)
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    handle = engine.register_query("hot", CQL_QUERY)
    for row, t in ROWS:
        engine.ingest("Obs", row, t)
    engine.run_until_idle()
    engine.advance_time(HORIZON)
    return handle


def run_cql_kernel():
    """The CQL leg: the standing query on a bare ``ContinuousQuery``,
    no DSMS around it."""
    engine = CQLEngine()
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    query = engine.register_query(CQL_QUERY)
    query.start()
    for row, t in ROWS:
        query.push("Obs", row, t)
    query.advance_to(HORIZON)
    return sorted(tuple(r.values) for r in query.current())


class _HotFilter(Operator):
    """The Figure 4 per-element work: keep hot readings."""

    fusible = True

    def process_element(self, value, input_index=0):
        if value["temp"] > HOT:
            self.emit((value["room"], 1))


class _KeyedCount(Operator):
    def __init__(self):
        self.counts = {}

    def process_element(self, value, input_index=0):
        room, n = value
        self.counts[room] = self.counts.get(room, 0) + n
        self.emit((room, self.counts[room]))


class _Sink(Operator):
    def __init__(self):
        self.seen = 0

    def process_element(self, value, input_index=0):
        self.seen += 1


KERNEL_ROWS = [row for row, _t in room_observations(KERNEL_EVENTS)]


def run_kernel():
    plan = Plan()
    plan.add_source("s")
    plan.add_operator("hot", _HotFilter(), ["s"])
    plan.add_operator("count", _KeyedCount(), ["hot"])
    sink = _Sink()
    plan.add_operator("sink", sink, ["count"])
    plan.open(layer="bench")
    for row in KERNEL_ROWS:
        plan.push("s", row)
    plan.close()
    return sink.seen


def best_times(runner):
    """Best-of-REPEATS per mode, interleaved so GC pressure and
    allocator drift hit every mode alike."""
    best = {name: float("inf") for name, _ in MODES}
    for _ in range(REPEATS):
        for name, arm in MODES:
            gc.collect()
            obs.reset()
            arm()
            best[name] = min(best[name], timed(runner)[1])
    obs.reset()
    return best


def measure():
    table = ExperimentTable(
        "Profiling overhead: off vs metrics vs full profiling "
        f"({len(ROWS)} DSMS events, {KERNEL_EVENTS} kernel events)",
        ["workload", "off_s", "metrics_s", "profile_s",
         "metrics_ratio", "profile_ratio", "profile_marginal", "gated"])
    for workload, runner, gated in [("dsms", run_dsms, True),
                                    ("cql_kernel", run_cql_kernel, True),
                                    ("kernel_raw", run_kernel, False)]:
        best = best_times(runner)
        table.add_row(workload, best["off"], best["metrics"],
                      best["profile"], best["metrics"] / best["off"],
                      best["profile"] / best["off"],
                      best["profile"] / best["metrics"], gated)
    return table


def attribution_readout():
    """Per-operator attribution sanity on the standing query."""
    obs.reset()
    obs.enable(profile=True, sample_every=1)
    handle = run_dsms()
    report = _profile.analyze(handle)
    obs.reset()
    shares = [entry["busy_share"] for entry in report["operators"]
              if entry["busy_share"] is not None]
    return {"operators": report["operators"],
            "total_busy_seconds": report["total_busy_seconds"],
            "shares_sum": sum(shares)}


def test_profiling_modes_agree_on_results():
    answers = []
    for _name, arm in MODES:
        obs.reset()
        arm()
        handle = run_dsms()
        answers.append(sorted(tuple(r.values)
                              for r in handle.query.current()))
        obs.reset()
    assert answers[0], "workload produced no rows"
    assert answers[0] == answers[1] == answers[2]


def test_bench_profiling_writes_json():
    table = measure()
    table.show()
    attribution = attribution_readout()
    payload = bench_result(
        "profiling", table,
        events=len(ROWS), kernel_events=KERNEL_EVENTS,
        enabled_slack=ENABLED_SLACK, disabled_budget=DISABLED_BUDGET,
        disabled_path_note=(
            "profiling is an open-time decision; the never-enabled path "
            "is pinned by tests/obs/test_profile.py zero-work guard"),
        attribution=attribution,
        within_slack=all(r <= 1 + ENABLED_SLACK
                         for r, gated in zip(
                             table.column("profile_marginal"),
                             table.column("gated")) if gated))
    write_bench_json(payload)
    # The budget gates the *profiling layer's* cost on the layer
    # workloads: what turning profile=True adds on top of whatever obs
    # level was already on (the metrics layer predates this profiling
    # work and carries its own budgets elsewhere).  The raw push-loop
    # worst case and the full off->profile ratios land in the JSON for
    # the record, ungated.
    for workload, ratio, gated in zip(table.column("workload"),
                                      table.column("profile_marginal"),
                                      table.column("gated")):
        if not gated:
            continue
        assert ratio <= 1 + ENABLED_SLACK, (
            f"{workload}: full profiling {ratio:.2f}x the metrics-only "
            f"path exceeds {1 + ENABLED_SLACK:.2f}x budget")
    # attribution sanity: busy shares cover the plan (~100%)
    assert 0.98 <= attribution["shares_sum"] <= 1.02
    assert attribution["total_busy_seconds"] > 0


@pytest.mark.benchmark(group="profiling")
@pytest.mark.parametrize("mode", [name for name, _ in MODES])
def test_bench_profiling_mode(benchmark, mode):
    arm = dict(MODES)[mode]
    obs.reset()
    arm()
    assert benchmark(run_dsms)
    obs.reset()
