"""R1 — crash recovery: latency and replay volume vs checkpoint interval.

The classic fault-tolerance trade-off (survey §4.2): frequent checkpoints
cost snapshot work up front but bound the replay after a crash; sparse
checkpoints are cheap until the failure, when everything since the last
barrier must be reprocessed.  A grouped-aggregate CQL query is driven
over the standard room-observation workload with one injected operator
crash mid-stream, once per checkpoint interval.  The sweep must show the
trend both ways — replay volume grows with the interval, checkpoints
taken shrink — and every recovered run must equal the fault-free one.
Results land in ``BENCH_recovery.json``.
"""

from repro.bench import (
    ExperimentTable,
    OBSERVATION_SCHEMA,
    bench_result,
    room_observations,
    timed,
    write_bench_json,
)
from repro.chaos import CrashFuse, RecoveryManager, install_crash, \
    run_query_with_recovery
from repro.core import Stream
from repro.cql import CQLEngine

ROWS = room_observations(400)
STREAM = Stream.of_records(OBSERVATION_SCHEMA, ROWS)
QUERY = ("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 50] "
         "WHERE temp > 12 GROUP BY room")
INTERVALS = (1, 4, 16)
CRASH_POSITION = 1
#: Fire deep into the stream so every interval has checkpoints behind it.
CRASH_AT = 600


def fresh_query():
    engine = CQLEngine()
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    return engine.register_query(QUERY)


def outputs(query):
    stream = query.emitted_stream()
    return (stream.timestamps(), stream.values())


def crashed_run(interval):
    query = fresh_query()
    fuse = CrashFuse(at=CRASH_AT)
    install_crash(query, CRASH_POSITION, fuse)
    manager = RecoveryManager(query, interval=interval,
                              sleep=lambda _d: None, backoff_base=0.0)
    _, elapsed = timed(
        lambda: run_query_with_recovery(query, {"Obs": STREAM}, manager))
    assert fuse.fired == 1, "the crash must actually fire"
    return query, manager, elapsed


def test_bench_recovery_writes_json():
    clean = fresh_query()
    clean.run_recorded({"Obs": STREAM})
    expected = outputs(clean)

    table = ExperimentTable(
        f"Recovery cost vs checkpoint interval ({len(ROWS)} events, one "
        f"injected crash)",
        ["interval_instants", "checkpoints_taken", "checkpoint_bytes",
         "replayed_records", "recovery_seconds", "run_seconds"])
    measured = {}
    for interval in INTERVALS:
        query, manager, elapsed = crashed_run(interval)
        assert outputs(query) == expected, \
            f"interval {interval}: recovered run diverged"
        taken = manager.checkpoints[-1].checkpoint_id
        table.add_row(interval, taken, manager.checkpoint_bytes,
                      manager.replayed_records, manager.recovery_seconds,
                      elapsed)
        measured[interval] = (taken, manager.replayed_records)
    table.show()

    # The trade-off must point both ways across the sweep.
    takens = [measured[i][0] for i in INTERVALS]
    replays = [measured[i][1] for i in INTERVALS]
    assert takens == sorted(takens, reverse=True), \
        f"checkpoints taken should shrink with the interval: {takens}"
    assert replays == sorted(replays), \
        f"replay volume should grow with the interval: {replays}"
    assert replays[0] < replays[-1], \
        f"sweep shows no replay trend: {replays}"

    payload = bench_result(
        "recovery", table,
        events=len(ROWS), query=QUERY, intervals=list(INTERVALS),
        crash_position=CRASH_POSITION, crash_at=CRASH_AT)
    write_bench_json(payload)
