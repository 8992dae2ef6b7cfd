"""F4 — Figure 4: the streaming-system abstraction stack.

The figure layers SQL-like dialects and functional DSLs above the dataflow
model, which sits above the actor model.  This experiment expresses the
*same* continuous query — per-room count of hot readings over tumbling
windows — at all four levels, proves the answers identical, and reports
each level's cost: declarativeness is paid for in overhead, which is
exactly the trade-off the figure depicts.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    room_observations,
    timed,
    OBSERVATION_SCHEMA,
)
from repro.core import TumblingWindow
from repro.dataflow import FixedWindows, Pipeline
from repro.dsl import CountAggregate, StreamEnvironment
from repro.runtime import Actor, ActorSystem
from repro.sql import run_sql

ROWS = room_observations(200)
WINDOW = 100
HOT = 25


def expected_key(room, window_start, count):
    return (room, window_start, count)


# -- level 1: SQL-like dialect -------------------------------------------------


def run_sql_level():
    records = run_sql(
        f"SELECT room, window_start, COUNT(*) AS n FROM Obs "
        f"WHERE temp > {HOT} GROUP BY room, TUMBLE({WINDOW})",
        OBSERVATION_SCHEMA, "Obs", ROWS)
    return {expected_key(r["room"], r["window_start"], r["n"])
            for r in records}


# -- level 2: functional DSL ---------------------------------------------------


def run_dsl_level():
    env = StreamEnvironment()
    (env.from_collection(ROWS)
     .filter(lambda row: row["temp"] > HOT)
     .key_by(lambda row: row["room"])
     .window(TumblingWindow(WINDOW))
     .aggregate(CountAggregate())
     .sink("out"))
    result = env.execute()
    return {expected_key(key, window.start, count)
            for key, count, window in result.values("out")}


# -- level 3: dataflow model -----------------------------------------------------


def run_dataflow_level():
    p = Pipeline()
    (p.create([(row, t) for row, t in ROWS])
     .filter(lambda row: row["temp"] > HOT)
     .map(lambda row: (row["room"], 1))
     .window_into(FixedWindows(WINDOW))
     .combine_per_key(sum)
     .collect("out"))
    result = p.run()
    return {expected_key(wv.value[0], wv.windows[0].start, wv.value[1])
            for wv in result["out"]}


# -- level 4: raw actor model ------------------------------------------------------


class WindowCountActor(Actor):
    """Hand-rolled windowed counting — what Figure 4's bottom layer
    programs look like without any abstraction above messages."""

    def __init__(self):
        super().__init__()
        self.buckets = {}

    def receive(self, message, sender):
        row, t = message
        if row["temp"] > HOT:
            start = (t // WINDOW) * WINDOW
            key = (row["room"], start)
            self.buckets[key] = self.buckets.get(key, 0) + 1


def run_actor_level():
    system = ActorSystem()
    counter = WindowCountActor()
    ref = system.spawn("counter", counter)
    for row, t in ROWS:
        ref.tell((row, t))
    system.run_until_idle()
    return {expected_key(room, start, n)
            for (room, start), n in counter.buckets.items()}


LEVELS = [
    ("SQL dialect", run_sql_level),
    ("functional DSL", run_dsl_level),
    ("dataflow model", run_dataflow_level),
    ("actor model", run_actor_level),
]


def test_fig4_all_levels_compute_the_same_answer():
    results = {}
    table = ExperimentTable(
        "Figure 4: one query at each abstraction level (200 events)",
        ["level", "seconds", "result_rows"])
    for name, runner in LEVELS:
        result, seconds = timed(runner)
        results[name] = result
        table.add_row(name, seconds, len(result))
    table.show()
    baseline = results["actor model"]
    assert baseline, "workload produced no windows"
    for name, result in results.items():
        assert result == baseline, f"{name} diverges from the actor level"


def test_fig4_declarative_levels_cost_more_than_raw_actors():
    # Warm up, then compare: the raw actor program must be the cheapest —
    # abstraction has a price (the figure's vertical axis).
    run_actor_level()
    _, actor_time = timed(run_actor_level)
    _, sql_time = timed(run_sql_level)
    assert sql_time > actor_time


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("level", [name for name, _ in LEVELS])
def test_bench_fig4_level(benchmark, level):
    runner = dict(LEVELS)[level]
    result = benchmark(runner)
    assert result
