"""Ablations over the design knobs DESIGN.md calls out.

Three tunables whose trade-offs the literature describes, swept on our
substrate: the split view's merge threshold, which is its target lag on
C6's dynamic-table driver (insert cost vs query cost), the LSM store's
memtable budget (write vs read amplification), and the checkpoint
interval (steady-state overhead vs work lost at recovery).
"""

import random

import pytest

from bench_c6_view_maintenance import SpectrumPoint

from repro.bench import ExperimentTable, assert_monotone, zipfian_keys
from repro.runtime import (
    CollectSinkOperator,
    FailOnceOperator,
    ForwardPartitioner,
    HashPartitioner,
    JobGraph,
    JobRunner,
    KeyByOperator,
    LSMStore,
)


def test_ablation_split_view_merge_threshold():
    """A split view's merge threshold is its target lag: low lags behave
    eagerly (query cheap, inserts pay); high lags behave lazily (inserts
    free, queries pay)."""
    table = ExperimentTable(
        "Ablation: split view target lag (3000 inserts, 30 queries)",
        ["target_lag", "refreshes", "update_work", "query_work"])
    rng_rows = [{"g": f"g{k}", "v": k}
                for k in zipfian_keys(3000, keys=6)]
    update_series, query_series = [], []
    for target_lag in (8, 64, 512, 4096):
        point = SpectrumPoint(target_lag)
        for i, row in enumerate(rng_rows):
            point.write([row])
            if i % 100 == 99:
                point.query()
        table.add_row(target_lag, point.view.refreshes, point.update_work,
                      point.query_work)
        update_series.append(point.update_work)
        query_series.append(point.query_work)
    table.show()
    # Shape: raising the target lag moves work from updates to queries.
    assert_monotone(update_series, increasing=False)
    assert_monotone(query_series, increasing=True)


def test_ablation_lsm_memtable_budget():
    """Small memtables flush often (write amplification) but a larger
    run count raises read probes (read amplification)."""
    operations = [(k, v) for k, v in
                  zip(zipfian_keys(4000, keys=300, seed=5),
                      range(4000))]
    table = ExperimentTable(
        "Ablation: LSM memtable budget (4000 writes + 4000 reads)",
        ["memtable_limit", "flushes", "compactions", "run_probes"])
    flush_series = []
    for limit in (16, 64, 256, 1024):
        store = LSMStore(memtable_limit=limit, max_runs=4)
        for key, value in operations:
            store.put(key, value)
        rng = random.Random(1)
        for _ in range(4000):
            store.get(rng.randrange(300))
        table.add_row(limit, store.flushes, store.compactions,
                      store.run_probes)
        flush_series.append(store.flushes)
    table.show()
    assert_monotone(flush_series, increasing=False)
    assert flush_series[0] > 4 * flush_series[-1]


def wordcount_graph(fuse, interval_rows=2000):
    graph = JobGraph("ablate")
    words = [f"w{k}" for k in zipfian_keys(600, keys=12, seed=9)]
    feeds = [[(w, None, i) for i, w in enumerate(words[0::2])],
             [(w, None, i) for i, w in enumerate(words[1::2])]]
    graph.add_source("src", feeds)
    graph.add_operator("key", lambda: KeyByOperator(lambda v: v), 2)
    graph.add_operator("chaos", lambda: FailOnceOperator(250, fuse), 2)
    graph.add_operator("sink", CollectSinkOperator, 1)
    graph.connect("src", "key", ForwardPartitioner)
    graph.connect("key", "chaos", ForwardPartitioner)
    graph.connect("chaos", "sink", HashPartitioner)
    graph.mark_sink("sink")
    return graph


def test_ablation_checkpoint_interval():
    """Frequent barriers cost messages in steady state but bound the
    replay work after a crash."""
    table = ExperimentTable(
        "Ablation: checkpoint interval (600 records, crash at 250)",
        ["interval", "steady_messages", "recovery_messages",
         "checkpoints"])
    steady_series, recovery_series = [], []
    for interval in (10, 50, 250):
        steady = JobRunner(wordcount_graph([True]),
                           checkpoint_interval=interval).run()
        crashed = JobRunner(wordcount_graph([False]),
                            checkpoint_interval=interval).run()
        assert crashed.recoveries == 1
        assert sorted(map(repr, crashed.values("sink"))) == \
            sorted(map(repr, steady.values("sink")))
        table.add_row(interval, steady.messages_processed,
                      crashed.messages_processed,
                      len(steady.completed_checkpoints))
        steady_series.append(steady.messages_processed)
        recovery_series.append(crashed.messages_processed)
    table.show()
    # Shape: longer intervals are cheaper in steady state (fewer barrier
    # broadcasts)…
    assert_monotone(steady_series, increasing=False)
    # …and every crash costs real extra work (the wasted attempt plus
    # replay from the last complete checkpoint).
    overheads = [r - s for r, s in zip(recovery_series, steady_series)]
    assert all(overhead > 0 for overhead in overheads)
    # Exactly-once held at every interval (asserted above per run).


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("limit", [16, 256])
def test_bench_ablation_lsm(benchmark, limit):
    keys = zipfian_keys(2000, keys=200, seed=5)

    def run():
        store = LSMStore(memtable_limit=limit, max_runs=4)
        for i, key in enumerate(keys):
            store.put(key, i)
        return store.flushes

    assert benchmark(run) >= 0
