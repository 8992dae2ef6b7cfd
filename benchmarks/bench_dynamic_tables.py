"""Dynamic tables — incremental refresh vs recompute-from-base.

A two-level view DAG (grouped SUM/COUNT -> HAVING-style filter) is kept
fresh over a 10k-row base table while skewed updates hammer a small hot
key set.  At every refresh instant the incremental path (CDC deltas
through the kernel delta operators) is pinned for exact parity against
:func:`repro.views.recompute` (the one reference, re-exported from
:mod:`repro.cql.reference`), then the two are timed: the
claim is that delta maintenance beats full recompute by >=5x on skewed
updates, while the measured staleness never exceeds the configured
``target_lag`` — with the upper view's lag derived via ``DOWNSTREAM``
propagation from its consumer.  Results land in
``BENCH_dynamic_tables.json``.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    assert_dominates,
    bench_result,
    timed,
    write_bench_json,
)
from repro.core import Schema
from repro.views import DynamicTableService, recompute

N_BASE = 10_000
NUM_KEYS = 500
#: 90% of updates land on this many keys (5% of the key space).
HOT_KEYS = 25
ROUNDS = 60
UPDATES_PER_ROUND = 50
TARGET_LAG = 2
SPEEDUP_FLOOR = 5.0

TOTALS_SQL = ("CREATE DYNAMIC TABLE totals TARGET_LAG = DOWNSTREAM AS "
              "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM orders "
              "GROUP BY k EMIT CHANGES")
HOT_SQL = (f"CREATE DYNAMIC TABLE hot TARGET_LAG = {TARGET_LAG} AS "
           "SELECT k FROM totals WHERE total > 100000 EMIT CHANGES")

pytestmark = pytest.mark.views


def build_service():
    service = DynamicTableService()
    service.create_table("orders", Schema(["k", "v"]))
    # Filler rows plus one designated mutable slot per key; slot values
    # are unique so update deletes always match exactly one row.
    filler = [{"k": i % NUM_KEYS, "v": i % 97} for i in range(N_BASE)]
    slots = {key: 100_000 + key for key in range(NUM_KEYS)}
    service.apply("orders", inserts=filler + [
        {"k": key, "v": value} for key, value in slots.items()], at=1)
    service.execute(TOTALS_SQL)
    service.execute(HOT_SQL)
    return service, slots


def update_rounds(slots):
    """A deterministic skewed update script: (deletes, inserts) pairs."""
    state = 1234567
    fresh = 1_000_000
    rounds = []
    for _ in range(ROUNDS):
        deletes, inserts = [], []
        for _ in range(UPDATES_PER_ROUND):
            state = (state * 1103515245 + 12345) % (1 << 31)
            if state % 10 < 9:
                key = state % HOT_KEYS
            else:
                key = state % NUM_KEYS
            deletes.append({"k": key, "v": slots[key]})
            fresh += 1
            slots[key] = fresh
            inserts.append({"k": key, "v": slots[key]})
        rounds.append((deletes, inserts))
    return rounds


def full_recompute(service):
    """Both views from scratch off the current base contents."""
    base = service.read("orders")
    totals = recompute(service.view("totals").plan, {"orders": base})
    hot = recompute(service.view("hot").plan,
                    {"orders": base, "totals": totals})
    return totals, hot


def bag_key(bag):
    return sorted(bag.items(), key=repr)


def drive():
    service, slots = build_service()
    assert service.effective_lags() == {"totals": TARGET_LAG,
                                        "hot": TARGET_LAG}
    incremental_s = 0.0
    full_s = 0.0
    refresh_instants = 0
    max_lag = 0
    parity = True
    for deletes, inserts in update_rounds(slots):
        service.apply("orders", inserts=inserts, deletes=deletes,
                      at=service.clock + 1)
        refreshed, seconds = timed(service.tick)
        incremental_s += seconds
        for name in ("totals", "hot"):
            lag = service.clock - service.view(name).version
            max_lag = max(max_lag, lag)
        if refreshed:
            refresh_instants += 1
            (totals, hot), seconds = timed(lambda: full_recompute(service))
            full_s += seconds
            parity = parity \
                and bag_key(service.read("totals")) == bag_key(totals) \
                and bag_key(service.read("hot")) == bag_key(hot)
    return {
        "incremental_s": incremental_s,
        "full_s": full_s,
        "speedup": full_s / incremental_s,
        "refresh_instants": refresh_instants,
        "max_lag": max_lag,
        "parity": parity,
    }


def test_bench_dynamic_tables_writes_json():
    stats = drive()
    table = ExperimentTable(
        f"Dynamic tables: incremental vs recompute ({N_BASE} base rows, "
        f"{ROUNDS}x{UPDATES_PER_ROUND} skewed updates)",
        ["maintenance", "total_s", "per_refresh_ms", "parity"])
    table.add_row("incremental", stats["incremental_s"],
                  1e3 * stats["incremental_s"] / stats["refresh_instants"],
                  stats["parity"])
    table.add_row("full-recompute", stats["full_s"],
                  1e3 * stats["full_s"] / stats["refresh_instants"],
                  stats["parity"])
    table.show()

    assert stats["parity"], "incremental refresh diverged from recompute"
    assert stats["refresh_instants"] > 0
    assert stats["max_lag"] <= TARGET_LAG, (
        f"measured lag {stats['max_lag']} exceeds target {TARGET_LAG}")
    payload = bench_result(
        "dynamic_tables", table,
        base_rows=N_BASE, keys=NUM_KEYS, hot_keys=HOT_KEYS,
        rounds=ROUNDS, updates_per_round=UPDATES_PER_ROUND,
        target_lag=TARGET_LAG, downstream_lag_resolved=TARGET_LAG,
        floor=SPEEDUP_FLOOR, **stats)
    write_bench_json(payload)
    assert_dominates([stats["incremental_s"]], [stats["full_s"]],
                     SPEEDUP_FLOOR)


def test_measured_lag_tracks_downstream_target():
    """The DOWNSTREAM view inherits its consumer's freshness obligation."""
    service, slots = build_service()
    lags = service.effective_lags()
    assert lags["totals"] == lags["hot"] == TARGET_LAG
    for deletes, inserts in update_rounds(slots)[:6]:
        service.apply("orders", inserts=inserts, deletes=deletes,
                      at=service.clock + 1)
        service.tick()
        assert service.clock - service.view("totals").version <= TARGET_LAG
