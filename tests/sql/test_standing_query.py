"""A streaming SQL SELECT runs as a CQL standing query.

``SQLEngine.query`` compiles a query onto the CQL executor, and
``SQLEngine.run`` replays recorded rows through it in per-instant
batches.  What that buys is pinned here: rows pass the stream's coercer
and the feed clock, group windows fission by their group key, a SQL
window query recovers from a crash exactly, and ``explain_analyze``
profiles it.  The semantics of the shapes (sessions, running
aggregates, stateless queries) are pinned beside them.
"""

import pytest

from repro import obs
from repro.chaos import (
    CrashFuse,
    RecoveryManager,
    install_crash,
    run_query_with_recovery,
)
from repro.core import Schema, SchemaError, Stream, TimeError
from repro.cql import reference_evaluate
from repro.sql import SQLEngine, run_sql
from tests.cql.test_keyed_state import operator_state, plain

SCHEMA = Schema(["room", "temp"], [str, int])
ROWS = [({"room": "abc"[t % 3], "temp": t % 7}, t) for t in range(1, 40)]

TUMBLE = ("SELECT room, window_start, COUNT(*) AS n, SUM(temp) AS s "
          "FROM Obs GROUP BY room, TUMBLE(10)")
SESSION = ("SELECT room, window_start, window_end, MAX(temp) AS hi "
           "FROM Obs WHERE temp > 0 GROUP BY room, SESSION(5)")


def engine(parallelism=1):
    engine = SQLEngine(parallelism=parallelism)
    engine.register_stream("Obs", SCHEMA)
    return engine


def rows_of(records):
    return sorted(tuple(r.values) for r in records)


def test_rows_pass_the_stream_coercer_and_the_feed_clock():
    query = "SELECT room, temp FROM Obs EMIT CHANGES"
    with pytest.raises(SchemaError, match="expects int"):
        run_sql(query, SCHEMA, "Obs", [({"room": "a", "temp": "hot"}, 1)])
    with pytest.raises(SchemaError, match="missing"):
        run_sql(query, SCHEMA, "Obs", [({"room": "a"}, 1)])
    with pytest.raises(TimeError, match="before the epoch"):
        run_sql(query, SCHEMA, "Obs", [({"room": "a", "temp": 1}, -4)])


class TestFission:
    @pytest.mark.parametrize("text", [TUMBLE, SESSION])
    def test_a_keyed_group_window_runs_in_three_partitions(self, text):
        query = engine(parallelism=3).query(text)
        assert query.parallelism == 3
        assert rows_of(engine(parallelism=3).run(text, ROWS)) \
            == rows_of(engine().run(text, ROWS))

    def test_a_session_without_group_by_runs_serially(self):
        query = engine(parallelism=3).query(
            "SELECT COUNT(*) AS n FROM Obs GROUP BY SESSION(5)")
        assert query.parallelism == 1

    def test_a_stateless_query_runs_serially(self):
        assert engine(parallelism=3).query(
            "SELECT room FROM Obs").parallelism == 1


def crash_outputs(text, parallelism, position=None):
    query = engine(parallelism).query(text)
    streams = {"Obs": Stream.of_records(SCHEMA, ROWS)}
    if position is None:
        query.run_recorded(streams)
        return query, None
    fuse = CrashFuse(at=5)
    install_crash(query, position, fuse)
    manager = RecoveryManager(query, interval=3)
    run_query_with_recovery(query, streams, manager)
    return query, fuse


@pytest.mark.parametrize("parallelism", [1, 3])
@pytest.mark.parametrize("text", [TUMBLE, SESSION])
def test_a_crashed_window_query_recovers_to_its_fault_free_run(
        text, parallelism):
    clean, _ = crash_outputs(text, parallelism)
    expected = list(clean.emitted_stream())
    assert expected
    for position in range(len(clean.operators())):
        query, fuse = crash_outputs(text, parallelism, position)
        assert fuse.fired == 1, position
        assert list(query.emitted_stream()) == expected, position


@pytest.mark.parametrize("window", ["TUMBLE(4)", "HOP(4, 2)", "SESSION(2)"])
def test_the_window_operators_roll_back_to_their_barrier(window):
    """Barrier, mutate, rollback, as ``tests/cql/test_keyed_state.py``
    does for the CQL operators: the group-window source's and the
    aggregate's containers come back, which a key changed without a
    mark would break."""
    query = engine().query(f"SELECT room, COUNT(*) AS n, MAX(temp) AS hi "
                           f"FROM Obs GROUP BY room, {window}")

    def feed(instants):
        for t in instants:
            query.push_batch(t, {"Obs": [
                {"room": "abcd"[(t + i) % 4], "temp": (t * 7 + i) % 30}
                for i in range(2)]})

    def states():
        return [(name, plain(operator_state(op)), op.state_size)
                for name, op in query.operators() if op._STATE_ATTRS]

    feed(range(10))
    checkpoint = query.snapshot()
    at_barrier = states()
    for _ in range(2):
        feed(range(10, 12))
        assert [name for name, _, _ in at_barrier] == [
            "GroupWindowAggregateOp", "GroupWindowSourceOp"]
        assert all(now != then for now, then in zip(states(), at_barrier))
        query.restore(checkpoint)
        assert states() == at_barrier


def test_explain_analyze_profiles_the_window_source_and_aggregate():
    query = engine().query(TUMBLE)
    for row, t in ROWS:
        query.push_batch(t, {"Obs": [row]})
    query.finish()
    lines = obs.explain_analyze(query).splitlines()
    [scan] = [line for line in lines if "StreamScan(Obs" in line]
    [aggregate] = [line for line in lines if "WindowAggregate(" in line]
    assert f"rows={len(ROWS)}->{2 * len(ROWS)}" in scan
    assert "TUMBLE(10)" in aggregate and "rows=78->12" in aggregate
    labels = [entry["operator"] for entry in obs.analyze(query)["operators"]]
    assert {"GroupWindowSourceOp", "GroupWindowAggregateOp"} <= set(labels)


class TestSemantics:
    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_a_row_on_a_session_end_joins_it_whatever_its_place(
            self, order):
        """Every row of an instant is in before a session closes there,
        so a row landing exactly on the end always merges."""
        at_six = {"a": ({"room": "a", "temp": 2}, 6),
                  "b": ({"room": "b", "temp": 3}, 6)}
        rows = [({"room": "a", "temp": 1}, 1)] + [at_six[k] for k in order]
        out = run_sql("SELECT room, window_start, window_end, COUNT(*) AS n "
                      "FROM Obs GROUP BY room, SESSION(5)",
                      SCHEMA, "Obs", rows)
        assert rows_of(out) == [("a", 1, 11, 2), ("b", 6, 11, 1)]

    def test_a_running_aggregate_emits_one_row_per_changed_instant(self):
        rows = [({"room": "a", "temp": 5}, 1), ({"room": "a", "temp": 7}, 1),
                ({"room": "a", "temp": 5}, 2)]
        out = run_sql("SELECT room, COUNT(*) AS n, MAX(temp) AS hi FROM Obs "
                      "GROUP BY room EMIT CHANGES", SCHEMA, "Obs", rows)
        assert [r.values for r in out] == [("a", 2, 7), ("a", 3, 7)]

    def test_a_stateless_query_emits_every_row(self):
        rows = [({"room": "a", "temp": 1}, 2)] * 2 \
            + [({"room": "a", "temp": 1}, 3)]
        out = run_sql("SELECT room FROM Obs", SCHEMA, "Obs", rows)
        assert [r.values for r in out] == [("a",)] * 3

    def test_rows_replay_in_timestamp_order(self):
        assert rows_of(run_sql(TUMBLE, SCHEMA, "Obs", ROWS[::-1])) \
            == rows_of(run_sql(TUMBLE, SCHEMA, "Obs", ROWS))


@pytest.mark.parametrize("text", [
    "SELECT COUNT(*) AS n, SUM(temp) AS s FROM Obs EMIT CHANGES",
    "SELECT room, COUNT(*) AS n, MAX(temp) AS hi FROM Obs "
    "GROUP BY room EMIT CHANGES",
    "SELECT room, temp FROM Obs WHERE temp > 3 EMIT CHANGES",
])
def test_a_standing_query_agrees_with_the_reference(text):
    """The denotational reference evaluates a SQL standing query — a
    running aggregate included — and the executor's emissions equal its
    stream, instant by instant."""
    sql = engine()
    query = sql.query(text)
    streams = {"Obs": Stream.of_records(SCHEMA, ROWS)}
    query.run_recorded(streams)
    reference = reference_evaluate(query.plan, sql.catalog, streams)
    produced = query.emitted_stream()
    assert reference.values()
    assert produced.timestamps() == reference.timestamps()
    assert produced.values() == reference.values()
