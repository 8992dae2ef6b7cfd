"""Tests for the worker pool and fissioned multi-process execution."""

import os

import pytest

from repro.core import PlanError, Schema
from repro.cql import ContinuousQuery, CQLEngine
from repro.runtime import (
    CollectSinkOperator,
    ForwardPartitioner,
    HashPartitioner,
    JobGraph,
    JobRunner,
    KeyByOperator,
    WorkerPool,
    fission_job,
    run_job_partitioned,
    run_partitioned_recorded,
)
from repro.runtime.pool import _fork_available
from tests.runtime.test_job import CountOperator, word_source

needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="platform cannot fork()")


# Worker payloads must be importable by name, not closures.
def _square(x):
    return x * x


def _worker_pid(_task):
    return os.getpid()


def _identity_key(value):
    return value


def _make_keyby():
    return KeyByOperator(_identity_key)


class TestWorkerPool:
    def test_inline_backend_maps_in_order(self):
        with WorkerPool(3, backend="inline") as pool:
            assert pool.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_single_worker_auto_resolves_inline(self):
        assert WorkerPool(1).backend == "inline"

    @needs_fork
    def test_auto_resolves_process_for_many_workers(self):
        assert WorkerPool(4).backend == "process"

    def test_bad_arguments_rejected(self):
        with pytest.raises(PlanError):
            WorkerPool(0)
        with pytest.raises(PlanError):
            WorkerPool(2, backend="threads")

    @pytest.mark.multiproc
    @needs_fork
    def test_process_backend_runs_outside_parent(self):
        with WorkerPool(2, backend="process") as pool:
            pids = pool.map(_worker_pid, [0, 1])
        assert all(pid != os.getpid() for pid in pids)

    @pytest.mark.multiproc
    @needs_fork
    def test_pool_sizes_by_workers_not_first_task_count(self):
        """Regression: the cached fork pool used to be sized
        min(workers, len(tasks)) at first use, silently capping every
        later, larger map() at the first call's task count."""
        with WorkerPool(4, backend="process") as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]  # small first map
            assert pool._pool._processes == 4
            tasks = list(range(8))
            assert pool.map(_square, tasks) == [x * x for x in tasks]
            assert pool._pool._processes == 4

    @pytest.mark.multiproc
    @needs_fork
    def test_process_backend_matches_inline(self):
        tasks = list(range(8))
        with WorkerPool(2, backend="process") as pool:
            forked = pool.map(_square, tasks)
        with WorkerPool(2, backend="inline") as pool:
            assert pool.map(_square, tasks) == forked


# ---------------------------------------------------------------------------
# Fissioned CQL runs
# ---------------------------------------------------------------------------


GROUPED = ("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 5] "
           "GROUP BY room")

BATCHES = [
    (0, {"Obs": [{"id": 1, "room": "kitchen", "temp": 20},
                 {"id": 2, "room": "lab", "temp": 31}]}),
    (1, {"Obs": [{"id": 3, "room": "kitchen", "temp": 22}]}),
    (3, {"Obs": [{"id": 4, "room": "hall", "temp": 19},
                 {"id": 5, "room": "lab", "temp": 33}]}),
    (7, {"Obs": [{"id": 6, "room": "kitchen", "temp": 25}]}),
]


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.register_stream("Metered", Schema(["meter", "watts"]))
    return engine


def serial_reference(plan, catalog, batches):
    query = ContinuousQuery(plan, catalog)
    emissions = list(query.start())
    for t, arrivals in batches:
        emissions.extend(query.push_batch(t, arrivals))
    emissions.extend(query.finish())
    return emissions, query.current()


def emission_key(emission):
    return (emission.timestamp, repr(emission.record))


class TestPartitionedRecorded:
    def test_inline_run_matches_serial(self, engine):
        plan = engine.plan(GROUPED)
        expected, state = serial_reference(plan, engine.catalog, BATCHES)
        result = run_partitioned_recorded(plan, engine.catalog, BATCHES,
                                          parallelism=3, backend="inline")
        assert sorted(result.emissions, key=emission_key) \
            == sorted(expected, key=emission_key)
        assert result.state == state
        assert sum(result.partition_loads) == 6
        assert result.backend == "inline"

    @pytest.mark.multiproc
    @needs_fork
    def test_process_run_matches_serial(self, engine):
        plan = engine.plan(GROUPED)
        expected, state = serial_reference(plan, engine.catalog, BATCHES)
        result = run_partitioned_recorded(plan, engine.catalog, BATCHES,
                                          parallelism=3, backend="process")
        assert sorted(result.emissions, key=emission_key) \
            == sorted(expected, key=emission_key)
        assert result.state == state
        assert result.backend == "process"

    def test_strided_int_keys_balance(self, engine):
        # 0, 4, 8, … used to collapse onto worker 0 pre-hash-fix.
        plan = engine.plan("SELECT meter, SUM(watts) AS w "
                           "FROM Metered [Range 100] GROUP BY meter")
        batches = [(0, {"Metered": [{"meter": 4 * i, "watts": 1}
                                    for i in range(16)]})]
        result = run_partitioned_recorded(plan, engine.catalog, batches,
                                          parallelism=4, backend="inline",
                                          finish=False)
        assert sum(result.partition_loads) == 16
        assert all(load > 0 for load in result.partition_loads), \
            f"starved partition: {result.partition_loads}"

    def test_rstream_partitions_re_emit_where_others_changed(self, engine):
        """Regression: a partition silent at an instant another partition
        logged must re-emit its rows there, as the serial RSTREAM does
        (kitchen routes apart from lab and hall at width 2)."""
        plan = engine.plan("SELECT RSTREAM room, COUNT(*) AS n "
                           "FROM Obs [Range 5] GROUP BY room")
        expected, state = serial_reference(plan, engine.catalog, BATCHES)
        result = run_partitioned_recorded(plan, engine.catalog, BATCHES,
                                          parallelism=2, backend="inline")
        assert len(result.emissions) == len(expected) == 16
        assert sorted(result.emissions, key=emission_key) \
            == sorted(expected, key=emission_key)
        assert result.state == state

    def test_unpartitionable_plan_rejected(self, engine):
        plan = engine.plan("SELECT COUNT(*) AS n FROM Obs [Range 5]")
        with pytest.raises(PlanError):
            run_partitioned_recorded(plan, engine.catalog, BATCHES,
                                     parallelism=2)


# ---------------------------------------------------------------------------
# Fissioned job runs
# ---------------------------------------------------------------------------


WORDS = ["a", "b", "a", "c", "b", "a", "d", "a", "c", "b"]


def wordcount_graph():
    graph = JobGraph("wordcount")
    graph.add_source("src", word_source(WORDS, 2))
    graph.add_operator("key", _make_keyby, 2)
    graph.add_operator("count", CountOperator, 2)
    graph.add_operator("sink", CollectSinkOperator, 1)
    graph.connect("src", "key", ForwardPartitioner)
    graph.connect("key", "count", HashPartitioner)
    graph.connect("count", "sink", HashPartitioner)
    graph.mark_sink("sink")
    return graph


class TestJobFission:
    def test_fission_splits_records_disjointly(self):
        jobs = fission_job(wordcount_graph(), 3)
        assert len(jobs) == 3
        total = []
        for job in jobs:
            for subtask_records in job.sources["src"].records:
                total.extend(subtask_records)
        # Every record lands in exactly one partition…
        assert sorted(total) == sorted(
            record for chunk in word_source(WORDS, 2) for record in chunk)
        # …and the same word never straddles two partitions.
        placements = {}
        for index, job in enumerate(jobs):
            for subtask_records in job.sources["src"].records:
                for value, _key, _ts in subtask_records:
                    assert placements.setdefault(value, index) == index

    def test_fission_copies_topology(self):
        jobs = fission_job(wordcount_graph(), 2)
        original = wordcount_graph()
        for job in jobs:
            assert set(job.vertices) == set(original.vertices)
            assert len(job.edges) == len(original.edges)
            assert job.sinks == original.sinks

    def test_inline_job_matches_serial(self):
        serial = JobRunner(wordcount_graph()).run()
        merged = run_job_partitioned(wordcount_graph(), 3, backend="inline")
        assert merged.values("sink") == serial.values("sink")
        assert merged.messages_processed > 0

    @pytest.mark.multiproc
    @needs_fork
    def test_process_job_matches_serial(self):
        serial = JobRunner(wordcount_graph()).run()
        merged = run_job_partitioned(wordcount_graph(), 2, backend="process")
        assert merged.values("sink") == serial.values("sink")
