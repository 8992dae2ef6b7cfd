"""WorkerPool: multi-process execution of key-partitioned work.

The in-plan fission machinery (:mod:`repro.exec.exchange`, a
:class:`~repro.cql.executor.ContinuousQuery` compiled with
``parallelism > 1``) splits a query into partitions but still runs them
on one interpreter — useful semantics, no extra cores.  This module is
the other half of the survey's §4.2 story: ship each partition to a
worker *process* so partitions execute on separate CPUs, then merge at
the sink.

Three layers:

* :class:`WorkerPool` — a thin ``map`` over N workers with three
  backends: ``"process"`` (``multiprocessing`` fork pool), ``"inline"``
  (same-process loop, the debuggability fallback: full tracebacks,
  coverage, pdb), and ``"auto"`` (process when the platform can fork and
  more than one worker is asked for, inline otherwise).
* :func:`run_partitioned_recorded` — fissioned *CQL* execution: route a
  recorded workload's arrivals by the plan's
  :class:`~repro.plan.parallel.PartitionScheme`, run one full
  :class:`~repro.cql.executor.ContinuousQuery` per partition in a
  worker, merge emissions and final state.  N independent queries make
  this the one place a multi-query merge remains (see
  :func:`_merge_emissions`).  Everything shipped across
  the process boundary is plain data (logical plan, catalog, record
  values) — operators compile *inside* the worker, so nothing
  unpicklable (closures, compiled predicates) ever crosses.
* :func:`fission_job` / :func:`run_job_partitioned` — fissioned *job*
  execution through :mod:`repro.runtime.job`'s existing JobVertex /
  subtask machinery: each partition gets a complete copy of the
  JobGraph whose sources keep only the records whose key hashes to that
  partition, runs under its own :class:`~repro.runtime.job.JobRunner`,
  and the per-partition :class:`~repro.runtime.job.JobResult` sink
  outputs merge in timestamp order.

Key placement uses :func:`~repro.runtime.partitioning.partition_of`, as
the broker, the Exchange operator and the partitioners do, so every
layer of the stack agrees on which worker owns which key.

Caveat the caller owns for jobs: JobGraph operators are opaque, so
job-level fission cannot *prove* key-locality the way the CQL planner
does — splitting a job whose operators mix state across keys changes
its output, exactly like keying Flink state wrongly would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from time import process_time
from typing import Any, Callable, Sequence

from repro.core.errors import PlanError
from repro.core.operators import R2SKind
from repro.core.records import Record
from repro.core.relation import Bag
from repro.runtime.partitioning import partition_of

__all__ = ["WorkerPool", "PartitionedRunResult",
           "run_partitioned_recorded", "fission_job", "run_job_partitioned"]


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """N workers executing independent partition tasks.

    ``backend="process"`` forks worker processes (operator state lives
    and dies in the worker; only pickled inputs/results cross).
    ``backend="inline"`` runs tasks sequentially in-process — bitwise
    the same results, one core, full debuggability.  ``"auto"`` picks
    ``process`` when the platform supports fork and ``workers > 1``.
    """

    def __init__(self, workers: int, backend: str = "auto") -> None:
        if workers < 1:
            raise PlanError(f"need at least one worker, got {workers}")
        if backend not in ("auto", "process", "inline"):
            raise PlanError(f"unknown pool backend {backend!r}")
        if backend == "auto":
            backend = "process" if workers > 1 and _fork_available() \
                else "inline"
        if backend == "process" and not _fork_available():
            raise PlanError("process backend needs fork(); use inline")
        self.workers = workers
        self.backend = backend
        self._pool = None

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) \
            -> list[Any]:
        """Run ``fn`` over ``tasks``, one task per partition, in order."""
        if self.backend == "inline" or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            # Size by self.workers, NOT min(workers, len(tasks)): the
            # pool is cached across map() calls, so sizing it to the
            # first call's task count silently capped a later, larger
            # task list's parallelism for the lifetime of the pool.
            self._pool = context.Pool(self.workers)
        return self._pool.map(fn, tasks)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Fissioned CQL execution
# ---------------------------------------------------------------------------


@dataclass
class PartitionedRunResult:
    """Merged output of a partitioned recorded run."""

    emissions: list          # merged Emission list, timestamp order
    state: Bag               # final maintained relation (union of workers)
    backend: str
    parallelism: int
    #: records routed to each partition (the load-balance evidence)
    partition_loads: list[int] = field(default_factory=list)
    #: CPU seconds spent inside each partition's worker (process time,
    #: so concurrent workers sharing cores don't inflate each other);
    #: the max is the run's critical path — what wall time converges to
    #: once every partition has its own core
    partition_seconds: list[float] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        return max(self.partition_seconds, default=0.0)


def _run_cql_partition(payload: tuple) -> tuple[list, list, int, Bag, float]:
    """Worker entry point: compile and run one partition's query.

    Module-level and fed only picklable data — the compiled operator
    tree (closures, predicates, evaluation order) is built and torn down
    entirely inside the worker.  Returns the emissions, the change-log
    (RSTREAM plans only, the one merge that reads it — see
    :func:`_merge_emissions`; else None), the records routed here, the
    final state and the CPU seconds spent.
    """
    plan, catalog, batches, finish = payload
    from repro.cql.executor import ContinuousQuery

    started = process_time()
    query = ContinuousQuery(plan, catalog)
    emissions = list(query.start())
    records = 0
    for timestamp, arrivals in batches:
        records += sum(len(rows) for rows in arrivals.values())
        emissions.extend(query.push_batch(timestamp, arrivals))
    if finish:
        emissions.extend(query.finish())
    log = query._log if query.r2s is R2SKind.RSTREAM else None
    return emissions, log, records, query.current(), process_time() - started


def _merge_emissions(outcomes: list[tuple]) -> list:
    """The partitions' emissions as the serial query's, timestamp order.

    ISTREAM/DSTREAM are delta-shaped: each partition emits exactly its
    own keys' deltas, so concatenation is the merge.  RSTREAM is not —
    the serial query re-emits its *entire* state at every instant the
    state changes, a partition only where its own share changed.  So
    across the whole run, a partition silent at an instant another one
    logged re-emits the state it held there.
    """
    from repro.cql.executor import Emission

    merged = [emission for emissions, *_ in outcomes
              for emission in emissions]
    logs = [log for _, log, *_ in outcomes]
    if logs[0] is not None:  # RSTREAM
        active = {t for log in logs for t, _ in log}
        for log in logs:
            times = [t for t, _ in log]
            for t in sorted(active.difference(times)):
                position = bisect_right(times, t)
                if position:
                    merged.extend(Emission(record, t) for record, mult
                                  in log[position - 1][1].items()
                                  for _ in range(mult))
    merged.sort(key=lambda emission: emission.timestamp)
    return merged


def run_partitioned_recorded(plan, catalog, batches, parallelism: int,
                             backend: str = "auto",
                             finish: bool = True) -> PartitionedRunResult:
    """Run a recorded workload fissioned across a worker pool.

    ``batches`` is a list of ``(timestamp, {stream: [row, ...]})`` in
    timestamp order — the same shape ``push_batch`` takes.  Requires a
    partitionable plan (:func:`repro.plan.parallel.partition_scheme`).
    Every partition sees every instant (empty where it received
    nothing), so each worker's agenda fires window work at the serial
    query's times.
    """
    from repro.plan.parallel import partition_scheme

    scheme = partition_scheme(plan)
    if scheme is None:
        raise PlanError("plan is not key-partitionable; cannot pool it")
    routers = {name: scheme.router(name, parallelism)
               for name in scheme.stream_keys}
    workloads: list[list] = [[] for _ in range(parallelism)]
    for timestamp, arrivals in batches:
        routed: list[dict[str, list[Record]]] = \
            [{} for _ in range(parallelism)]
        for name, rows in arrivals.items():
            base_schema = catalog.stream(name).schema
            route = routers[name]
            for row in rows:
                record = (row if isinstance(row, Record)
                          else Record.from_mapping(base_schema, row))
                routed[route(record.values)].setdefault(name, []) \
                    .append(record)
        for load, share in zip(workloads, routed):
            load.append((timestamp, share))
    with WorkerPool(parallelism, backend=backend) as pool:
        outcomes = pool.map(
            _run_cql_partition,
            [(plan, catalog, load, finish) for load in workloads])
        effective = pool.backend
    state = Bag()
    for _, _, _, partial, _ in outcomes:
        for record, mult in partial.items():
            state.add(record, mult)
    return PartitionedRunResult(
        emissions=_merge_emissions(outcomes), state=state,
        backend=effective, parallelism=parallelism,
        partition_loads=[records for _, _, records, _, _ in outcomes],
        partition_seconds=[seconds for *_, seconds in outcomes])


# ---------------------------------------------------------------------------
# Fissioned job execution (repro.runtime.job)
# ---------------------------------------------------------------------------


def fission_job(graph, parallelism: int) -> list:
    """Split a JobGraph into ``parallelism`` single-partition jobs.

    Partition p's copy shares every vertex, edge and sink of the
    original but keeps only the source records whose key (or value,
    for keyless records) hashes to p.  The caller asserts key-locality
    of the operators — the graph's user code is opaque to us.
    """
    from repro.runtime.dag import JobGraph

    jobs = []
    for index in range(parallelism):
        job = JobGraph(name=f"{graph.name}!{index}")
        for name, source in graph.sources.items():
            job.add_source(
                name,
                [[record for record in subtask_records
                  if partition_of(record[1] if record[1] is not None
                                  else record[0], parallelism) == index]
                 for subtask_records in source.records],
                watermark_lag=source.watermark_lag)
        for name, vertex in graph.vertices.items():
            job.add_operator(name, vertex.factory,
                             parallelism=vertex.parallelism)
        for edge in graph.edges:
            job.connect(edge.upstream, edge.downstream, edge.partitioner)
        for name in graph.sinks:
            job.mark_sink(name)
        jobs.append(job)
    return jobs


def _run_job_partition(payload: tuple):
    """Worker entry point: run one partition's sub-job to completion."""
    graph, runner_kwargs = payload
    from repro.runtime.job import JobRunner

    return JobRunner(graph, **runner_kwargs).run()


def run_job_partitioned(graph, parallelism: int, backend: str = "auto",
                        **runner_kwargs: Any):
    """Run a JobGraph fissioned by key across a worker pool.

    Returns a merged :class:`~repro.runtime.job.JobResult`: sink outputs
    re-sorted into (timestamp, repr) order — the same order a
    single-copy run produces — and counters summed.
    """
    from repro.runtime.job import JobResult

    jobs = fission_job(graph, parallelism)
    with WorkerPool(parallelism, backend=backend) as pool:
        results = pool.map(_run_job_partition,
                           [(job, dict(runner_kwargs)) for job in jobs])
    merged = JobResult()
    for result in results:
        for sink, elements in result.sink_outputs.items():
            merged.sink_outputs[sink].extend(elements)
        merged.messages_processed += result.messages_processed
        merged.recoveries += result.recoveries
    for sink in list(merged.sink_outputs):
        merged.sink_outputs[sink].sort(
            key=lambda e: (e.timestamp, repr(e.value)))
    return merged
