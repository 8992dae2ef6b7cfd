"""P1 — multi-query plan sharing: 8 overlapping queries, one kernel plan.

The DSMS tradition's shared-plan argument, measured: eight standing
queries over the same stream, all built on the same windowed + filtered
prefix, run once with per-query private plans (each its own group of one
and scheduling unit) and once compiled into a communal sharing
:class:`repro.cql.executor.SharedGroup` (``DSMSEngine(sharing=True)``),
serviced as one unit that drains each head instant in one quantum, as a
private relation-output query does.  Sharing must deliver at least 1.5x the
aggregate throughput (tuple-deliveries per second across all queries) and
strictly less operator state, because the window buffer — the expensive
stateful prefix — is paid once instead of eight times.  Results and
per-query state sizes land in ``BENCH_plan_sharing.json``.
"""

import gc

import pytest

from repro.bench import (
    ExperimentTable,
    OBSERVATION_SCHEMA,
    bench_result,
    room_observations,
    timed,
    write_bench_json,
)
from repro.dsms import DSMSEngine

ROWS = room_observations(200)
WINDOW = 100
HOT = 15
HORIZON = max(t for _, t in ROWS) + WINDOW

#: Eight standing queries sharing the window(filter(scan)) prefix; the
#: tails (projections, grouping, distinct) differ per query.
PREFIX = f"FROM Obs [Range {WINDOW}] WHERE temp > {HOT}"
QUERIES = [
    f"SELECT COUNT(*) AS n {PREFIX}",
    f"SELECT DISTINCT room {PREFIX}",
    f"SELECT room, COUNT(*) AS n {PREFIX} GROUP BY room",
    f"SELECT DISTINCT id {PREFIX}",
    f"SELECT id, room {PREFIX}",
    f"SELECT MAX(temp) AS hottest {PREFIX}",
    f"SELECT id, COUNT(*) AS n {PREFIX} GROUP BY id",
    f"SELECT AVG(temp) AS mean {PREFIX}",
]

#: The acceptance bar: shared aggregate throughput vs unshared.
SPEEDUP_FLOOR = 1.5
REPEATS = 5


def build(sharing):
    engine = DSMSEngine(sharing=sharing, queue_capacity=1_000_000)
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    for index, text in enumerate(QUERIES):
        engine.register_query(f"q{index}", text)
    return engine


def drive(engine):
    for row, t in ROWS:
        engine.ingest("Obs", row, t)
        engine.run_until_idle()
    return engine


def final_states(engine):
    return [sorted(tuple(r.values) for r in handle.query.current())
            for handle in engine.queries]


def throughput(sharing):
    """Best-of-REPEATS aggregate throughput: tuple deliveries/second
    (every arrival is delivered to all 8 queries)."""
    best = 0.0
    for _ in range(REPEATS):
        gc.collect()
        engine = build(sharing)
        _, elapsed = timed(lambda: drive(engine))
        best = max(best, len(ROWS) * len(QUERIES) / elapsed)
    return best


def test_shared_answers_match_unshared():
    shared = final_states(drive(build(sharing=True)))
    unshared = final_states(drive(build(sharing=False)))
    assert shared == unshared
    assert any(state for state in shared), "workload produced no results"


def test_shared_group_actually_shares():
    engine = drive(build(sharing=True))
    assert engine.shared_subplan_hits >= len(QUERIES) - 1
    assert engine.total_state_size() < \
        drive(build(sharing=False)).total_state_size()


def test_bench_plan_sharing_writes_json():
    shared_engine = drive(build(sharing=True))
    unshared_engine = drive(build(sharing=False))

    shared_tput = throughput(sharing=True)
    unshared_tput = throughput(sharing=False)
    speedup = shared_tput / unshared_tput

    table = ExperimentTable(
        "Plan sharing: 8 overlapping standing queries, shared vs private "
        f"plans ({len(ROWS)} events)",
        ["mode", "throughput_tuples_s", "total_state", "state_per_query"])
    for mode, tput, engine in (
            ("unshared", unshared_tput, unshared_engine),
            ("shared", shared_tput, shared_engine)):
        total = engine.total_state_size()
        table.add_row(mode, tput, total, total / len(QUERIES))
    table.show()

    payload = bench_result(
        "plan_sharing", table,
        window=WINDOW, events=len(ROWS), queries=len(QUERIES),
        shared_subplan_hits=shared_engine.shared_subplan_hits,
        speedup=speedup, speedup_floor=SPEEDUP_FLOOR,
        meets_floor=speedup >= SPEEDUP_FLOOR)
    write_bench_json(payload)

    assert speedup >= SPEEDUP_FLOOR, (
        f"shared plans {speedup:.2f}x unshared, below the "
        f"{SPEEDUP_FLOOR}x floor")


@pytest.mark.benchmark(group="plan-sharing")
@pytest.mark.parametrize("sharing", [False, True],
                         ids=["unshared", "shared"])
def test_bench_plan_sharing(benchmark, sharing):
    benchmark(lambda: drive(build(sharing)))
