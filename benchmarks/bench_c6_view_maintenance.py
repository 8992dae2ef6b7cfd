"""C6 — Section 5.1: view-maintenance strategies across workload mixes.

Winter et al.'s "meet me halfway" spectrum, every point run on the one
view engine, :class:`~repro.views.DynamicTableService`, over a grouped
aggregate of a base table ``base(g, v)``:

* **recompute** — no view: a query reads ``base`` and evaluates the
  aggregate with :func:`repro.views.recompute`;
* **eager** (PipelineDB) — ``TARGET_LAG = 0``, a tick after every write;
* **lazy** — ``TARGET_LAG = DOWNSTREAM`` with no consumer, so refreshed
  on demand only: a query refreshes, then reads;
* **split** — ``TARGET_LAG = k``: a tick folds the pending rows once
  ``k`` versions have piled up (the merge), and a query refreshes the
  fewer than ``k`` left, then reads.

Each write commits one version of ``base`` and ticks to it.

Work is counted in touched rows.  Update work is the rows the ticks'
refreshes pulled from ``base`` (:attr:`DynamicTable.pulled`); query work
is the rows a query's own refresh pulled plus the rows its read returned
(for recompute, the base rows it scanned).  Asserted: recompute does
more than 10x eager's work on the read-heavy mix, and split stays within
5x of the per-mix best on every mix.  On these mixes eager, lazy and
split tie, since each pulls every inserted row once and reads the
groups; they differ in how many refreshes pull them.

A second experiment reproduces the DBToaster-style result: higher-order
delta views maintain a join aggregate in O(1) per update versus
O(|other side|) for first-order deltas and O(|A|+|B|) for recomputation.
"""

import random

import pytest

from repro.bench import ExperimentTable
from repro.core.records import Schema
from repro.sql import optimize, parse_sql
from repro.sql.lower import lower_statement
from repro.viewmaint import JoinAggregateView
from repro.views import DynamicTableService, recompute

AGGREGATE = ("SELECT g, COUNT(*) AS n, SUM(v) AS total, MIN(v) AS lo, "
             "MAX(v) AS hi FROM base GROUP BY g EMIT CHANGES")

#: Each point of the spectrum as the target lag of the view ``agg``;
#: recompute keeps no view.
STRATEGIES = {
    "recompute": None,
    "eager": 0,
    "lazy": "DOWNSTREAM",
    "split": 64,
}

MIXES = [("read-heavy (1:1)", 1), ("balanced (20:1)", 20),
         ("write-heavy (500:1)", 500)]


class SpectrumPoint:
    """``base`` and, unless ``target_lag`` is None, the view ``agg`` over
    it, with the work its writes and queries touched.  Each write is one
    version of ``base``, followed by a tick to that version."""

    def __init__(self, target_lag):
        self.service = DynamicTableService()
        self.service.create_table("base", Schema(["g", "v"]))
        self.view = None
        if target_lag is None:
            self.plan = optimize(lower_statement(parse_sql(AGGREGATE),
                                                 self.service.catalog))
        else:
            self.view = self.service.execute(
                f"CREATE DYNAMIC TABLE agg TARGET_LAG = {target_lag} "
                f"AS {AGGREGATE}")
        self.update_work = 0
        self.query_work = 0

    def write(self, inserts=(), deletes=()):
        version = self.service.clock + 1
        self.service.apply("base", inserts, deletes, at=version)
        if self.view is not None:
            pulled = self.view.pulled
            self.service.tick(version)
            self.update_work += self.view.pulled - pulled

    def query(self):
        if self.view is None:
            base = self.service.read("base")
            self.query_work += len(base)
            return recompute(self.plan, {"base": base})
        pulled = self.view.pulled
        self.service.refresh("agg")
        answer = self.service.read("agg")
        self.query_work += self.view.pulled - pulled + len(answer)
        return answer

    @property
    def total_work(self):
        return self.update_work + self.query_work


def run_mix(target_lag, inserts_per_query, total_ops=2000, seed=3):
    rng = random.Random(seed)
    point = SpectrumPoint(target_lag)
    since_query = 0
    for _ in range(total_ops):
        point.write([{"g": f"g{rng.randrange(8)}", "v": rng.randrange(100)}])
        since_query += 1
        if since_query >= inserts_per_query:
            point.query()
            since_query = 0
    point.query()
    return point.total_work


def crossover(total_ops):
    """Total work per mix and strategy."""
    return {mix: {name: run_mix(lag, inserts_per_query, total_ops)
                  for name, lag in STRATEGIES.items()}
            for mix, inserts_per_query in MIXES}


def assert_crossover(work):
    # Read-heavy: recompute is the worst by far; eager is near-best.
    read_heavy = work["read-heavy (1:1)"]
    assert read_heavy["recompute"] > 10 * read_heavy["eager"]
    # Split maintenance stays within a small factor of the per-mix winner
    # on every mix — the "meet me halfway" property.
    for mix_name, row in work.items():
        best = min(row.values())
        assert row["split"] <= 5 * best, (mix_name, row)


def test_c6_strategy_crossover():
    table = ExperimentTable(
        "C6: total work (touched rows) per strategy and mix",
        ["mix"] + list(STRATEGIES))
    work = crossover(2000)
    for mix_name, row in work.items():
        table.add_row(mix_name, *[row[name] for name in STRATEGIES])
    table.show()
    assert_crossover(work)


def test_c6_higher_order_deltas_constant_work():
    sizes = (100, 400, 1600)
    table = ExperimentTable(
        "C6: per-update rows touched, join-aggregate view",
        ["|other side|", "higher-order", "first-order delta",
         "recompute"])
    first_order = []
    for n in sizes:
        rng = random.Random(n)
        lefts = [{"k": rng.randrange(50), "x": 1} for _ in range(n)]
        rights = [{"k": rng.randrange(50), "y": 1} for _ in range(n)]
        view = JoinAggregateView(
            left_key=lambda r: r["k"], right_key=lambda r: r["k"],
            left_value=lambda r: r["x"], right_value=lambda r: r["y"])
        for left in lefts:
            view.insert_left(left)
        for right in rights:
            view.insert_right(right)
        before = view.update_work
        view.insert_left({"k": 7, "x": 1})
        higher_order_touch = view.update_work - before
        _, first_order_touch = JoinAggregateView.naive_delta_insert_left(
            {"k": 7, "x": 1}, lefts, rights,
            lambda r: r["k"], lambda r: r["k"],
            lambda r: r["x"], lambda r: r["y"])
        _, recompute_touch = JoinAggregateView.recompute(
            lefts, rights, lambda r: r["k"], lambda r: r["k"],
            lambda r: r["x"], lambda r: r["y"])
        table.add_row(n, higher_order_touch, first_order_touch,
                      recompute_touch)
        first_order.append(first_order_touch)
        # Shape: higher-order cost is constant; the others scale with n.
        assert higher_order_touch == 2
        assert first_order_touch == n
        assert recompute_touch == 2 * n
    table.show()


@pytest.mark.benchmark(group="c6")
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_bench_c6_balanced_mix(benchmark, strategy):
    work = benchmark(lambda: run_mix(STRATEGIES[strategy], 20,
                                     total_ops=500))
    assert work >= 0
