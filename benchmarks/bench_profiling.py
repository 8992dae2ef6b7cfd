"""Profiling overhead: enabled-vs-disabled throughput + attribution.

The observability tentpole's cost ledger.  The Figure 4 standing query
(per-room hot-reading counts over tumbling windows) runs through the
DSMS and on a bare CQL ``ContinuousQuery``, three times each — obs fully
off, metrics-only (``obs.enable()``), and full profiling
(``obs.enable(profile=True)``).  Budgets:

* fully-enabled profiling stays within ``ENABLED_SLACK`` (15%) of the
  metrics-only path on both workloads;
* the *disabled* path budget (<= 3%) is structural: with obs off the
  hot paths record nothing.  That is pinned by the zero-work guard in
  ``tests/obs/test_profile.py``.
* per-operator attribution stays sane: busy shares sum to ~100%.

Timings, ratios and the attribution readout land in
``BENCH_profiling.json``.
"""

import gc
import math

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

ROWS = room_observations(600)
WINDOW = 100
HOT = 25
HORIZON = max(t for _, t in ROWS) + WINDOW

CQL_QUERY = (f"SELECT room, COUNT(*) FROM Obs "
             f"[Range {WINDOW} Slide {WINDOW}] "
             f"WHERE temp > {HOT} GROUP BY room")

#: full profiling (flight recorder on) budget vs metrics-only.
ENABLED_SLACK = 0.15
#: the disabled-path budget — recorded in the JSON; the structural
#: guarantee is pinned by the zero-work guard test.
DISABLED_BUDGET = 0.03
#: Interleaved legs per mode.  On a shared 2-core box the speed of a
#: leg steps between fast and slow phases (legs of one mode differ by
#: up to 60%), and the best leg decides only when every mode has one in
#: a fast phase: at 7 or 15 legs about one run in ten read 1.17-1.51x.
#: More legs, not longer ones, give each mode that chance.
REPEATS = 25
#: The shortest timed leg, in seconds (see :func:`back_to_back`).
LEG_SECONDS = 0.1

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


def back_to_back(runner):
    """A timed leg: ``runner`` run back to back, as many times as make
    one obs-off leg last at least ``LEG_SECONDS``, so that no single
    slow run decides a leg.  The run count is sized from the best of
    three warm runs, so one slow sizing run does not shorten the legs.
    Returns the leg and its run count."""
    obs.reset()
    runner()
    run = min(timed(runner)[1] for _ in range(3))
    loops = max(1, math.ceil(LEG_SECONDS / run))

    def leg():
        for _ in range(loops):
            runner()
    return leg, loops


def best_mode_times(runner):
    """Best-of-REPEATS legs per mode, in seconds per run, interleaved so
    GC pressure and allocator drift hit every mode alike."""
    leg, loops = back_to_back(runner)
    best = {name: float("inf") for name, _ in MODES}
    for _ in range(REPEATS):
        for name, arm in MODES:
            gc.collect()
            obs.reset()
            arm()
            best[name] = min(best[name], timed(leg)[1] / loops)
    obs.reset()
    return best


def measure():
    table = ExperimentTable(
        "Profiling overhead: off vs metrics vs full profiling "
        f"({len(ROWS)} events)",
        ["workload", "off_s", "metrics_s", "profile_s",
         "metrics_ratio", "profile_ratio", "profile_marginal"])
    for workload, runner in [("dsms", run_dsms),
                             ("cql_kernel", run_cql_kernel)]:
        best = best_mode_times(runner)
        table.add_row(workload, best["off"], best["metrics"],
                      best["profile"], best["metrics"] / best["off"],
                      best["profile"] / best["off"],
                      best["profile"] / best["metrics"])
    return table


def attribution_readout():
    """Per-operator attribution sanity on the standing query."""
    obs.reset()
    obs.enable(profile=True)
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
        events=len(ROWS),
        enabled_slack=ENABLED_SLACK, disabled_budget=DISABLED_BUDGET,
        disabled_path_note=(
            "with obs off the hot paths record nothing; pinned by the "
            "tests/obs/test_profile.py zero-work guard"),
        attribution=attribution,
        within_slack=all(r <= 1 + ENABLED_SLACK
                         for r in table.column("profile_marginal")))
    write_bench_json(payload)
    # The budget gates the *profiling layer's* cost: what turning
    # profile=True adds on top of whatever obs level was already on (the
    # metrics layer predates this profiling work and carries its own
    # budgets elsewhere).  The full off->profile ratios land in the JSON
    # for the record, ungated.
    for workload, ratio in zip(table.column("workload"),
                               table.column("profile_marginal")):
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
