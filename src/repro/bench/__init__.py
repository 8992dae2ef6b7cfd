"""bench — deterministic workload generators and the experiment harness."""

from repro.bench.harness import (
    ExperimentTable,
    assert_dominates,
    assert_monotone,
    bench_result,
    best_times,
    obs_snapshot,
    timed,
    write_bench_json,
)
from repro.bench.workloads import (
    OBSERVATION_SCHEMA,
    PERSON_SCHEMA,
    TRANSACTION_SCHEMA,
    observation_stream,
    out_of_order_readings,
    person_rows,
    rdf_sensor_triples,
    room_observations,
    social_edges,
    transactions,
    zipfian_keys,
)

__all__ = [
    "ExperimentTable", "best_times", "timed", "assert_monotone",
    "assert_dominates", "bench_result", "obs_snapshot", "write_bench_json",
    "room_observations", "person_rows", "observation_stream",
    "transactions", "out_of_order_readings", "social_edges",
    "rdf_sensor_triples", "zipfian_keys",
    "OBSERVATION_SCHEMA", "PERSON_SCHEMA", "TRANSACTION_SCHEMA",
]
