"""Tests for the streaming SQL dialect (parser + execution)."""

import pytest

from repro.core import ParseError, PlanError, Schema
from repro.sql import (
    EmitMode,
    GroupWindowKind,
    SQLEngine,
    parse_sql,
    parse_statement,
    run_sql,
)

SCHEMA = Schema(["room", "temp"])
ROWS = [({"room": "a", "temp": 20}, 1), ({"room": "b", "temp": 30}, 2),
        ({"room": "a", "temp": 26}, 5), ({"room": "a", "temp": 10}, 12),
        ({"room": "b", "temp": 31}, 14)]


def rows_of(records):
    return sorted(tuple(r.values) for r in records)


class TestParser:
    def test_tumble_in_group_by(self):
        stmt = parse_sql(
            "SELECT room, COUNT(*) n FROM Obs GROUP BY room, TUMBLE(10)")
        assert stmt.window.kind is GroupWindowKind.TUMBLE
        assert stmt.window.size == 10
        assert [c.name for c in stmt.group_by] == ["room"]

    def test_hop_with_two_durations(self):
        stmt = parse_sql(
            "SELECT COUNT(*) n FROM Obs GROUP BY HOP(10 SEC, 5 SEC)")
        assert stmt.window.kind is GroupWindowKind.HOP
        assert stmt.window.size == 10_000
        assert stmt.window.slide == 5_000

    def test_session(self):
        stmt = parse_sql("SELECT COUNT(*) n FROM Obs GROUP BY SESSION(30)")
        assert stmt.window.kind is GroupWindowKind.SESSION

    def test_default_emit_modes(self):
        windowed = parse_sql(
            "SELECT COUNT(*) n FROM Obs GROUP BY TUMBLE(10)")
        assert windowed.emit is EmitMode.FINAL
        stateless = parse_sql("SELECT room FROM Obs")
        assert stateless.emit is EmitMode.CHANGES

    def test_explicit_emit_changes(self):
        stmt = parse_sql("SELECT room FROM Obs EMIT CHANGES")
        assert stmt.emit is EmitMode.CHANGES

    def test_emit_final_requires_window(self):
        with pytest.raises(ParseError, match="FINAL"):
            parse_sql("SELECT room FROM Obs EMIT FINAL")

    def test_two_windows_rejected(self):
        with pytest.raises(ParseError, match="one window"):
            parse_sql("SELECT COUNT(*) n FROM Obs "
                      "GROUP BY TUMBLE(5), TUMBLE(10)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT room FROM Obs EMIT CHANGES banana split")

    @pytest.mark.parametrize("parse", [parse_sql, parse_statement])
    def test_a_semicolon_closes_the_statement(self, parse):
        assert parse("SELECT room FROM Obs;") == parse("SELECT room FROM Obs")

    @pytest.mark.parametrize("text", [
        "SELECT room FROM Obs; DROP",
        "SELECT room FROM Obs; SELECT temp FROM Obs",
        "CREATE DYNAMIC TABLE t TARGET_LAG = 0 AS SELECT room FROM Obs; "
        "SELECT temp FROM Obs",
    ])
    def test_text_after_the_semicolon_is_refused_where_it_starts(self,
                                                                 text):
        parses = [parse_statement] if text.startswith("CREATE") \
            else [parse_sql, parse_statement]
        for parse in parses:
            with pytest.raises(ParseError,
                               match="unexpected trailing input") as refused:
                parse(text)
            assert refused.value.position == text.index(";") + 2


class TestStatelessQueries:
    def test_filter_and_project(self):
        out = run_sql("SELECT room, temp FROM Obs WHERE temp > 25 "
                      "EMIT CHANGES", SCHEMA, "Obs", ROWS)
        assert rows_of(out) == [("a", 26), ("b", 30), ("b", 31)]

    def test_select_star(self):
        out = run_sql("SELECT * FROM Obs WHERE room = 'b'",
                      SCHEMA, "Obs", ROWS)
        assert len(out) == 2

    def test_computed_column(self):
        out = run_sql("SELECT temp * 2 AS double FROM Obs WHERE room = 'b'",
                      SCHEMA, "Obs", ROWS)
        assert rows_of(out) == [(60,), (62,)]


class TestWindowedAggregation:
    def test_tumble_counts(self):
        out = run_sql(
            "SELECT room, COUNT(*) AS n FROM Obs GROUP BY room, TUMBLE(10)",
            SCHEMA, "Obs", ROWS)
        assert rows_of(out) == [("a", 1), ("a", 2), ("b", 1), ("b", 1)]

    def test_window_bounds_columns(self):
        out = run_sql(
            "SELECT room, window_start, window_end, COUNT(*) AS n "
            "FROM Obs GROUP BY room, TUMBLE(10)", SCHEMA, "Obs", ROWS)
        assert ("a", 0, 10, 2) in rows_of(out)

    def test_multiple_aggregates(self):
        out = run_sql(
            "SELECT room, MIN(temp) lo, MAX(temp) hi, SUM(temp) s, "
            "AVG(temp) a FROM Obs GROUP BY room, TUMBLE(100)",
            SCHEMA, "Obs", ROWS)
        by_room = {r["room"]: r for r in out}
        assert by_room["a"].values == ("a", 10, 26, 56, 56 / 3)
        assert by_room["b"].values == ("b", 30, 31, 61, 30.5)

    def test_having(self):
        out = run_sql(
            "SELECT room, COUNT(*) n FROM Obs GROUP BY room, TUMBLE(10) "
            "HAVING COUNT(*) >= 2", SCHEMA, "Obs", ROWS)
        assert rows_of(out) == [("a", 2)]

    def test_hop_windows(self):
        out = run_sql(
            "SELECT room, MAX(temp) hi FROM Obs GROUP BY room, HOP(10, 5)",
            SCHEMA, "Obs", ROWS)
        # a@5 (temp 26) appears in hops starting at 0 and 5.
        a_windows = [r for r in out if r["room"] == "a" and r["hi"] == 26]
        assert len(a_windows) == 2

    def test_session_windows(self):
        out = run_sql(
            "SELECT room, COUNT(*) n FROM Obs GROUP BY room, SESSION(5)",
            SCHEMA, "Obs", ROWS)
        # Room a: t=1 and t=5 merge (gap 5); t=12 is separate.
        a_counts = sorted(r["n"] for r in out if r["room"] == "a")
        assert a_counts == [1, 2]

    def test_aggregation_with_star_rejected(self):
        with pytest.raises(PlanError):
            run_sql("SELECT * FROM Obs GROUP BY room, TUMBLE(10)",
                    SCHEMA, "Obs", ROWS)

    def test_emit_changes_over_a_window_is_refused(self):
        with pytest.raises(PlanError, match="window refinements"):
            run_sql("SELECT room, COUNT(*) AS n FROM Obs "
                    "GROUP BY room, TUMBLE(10) EMIT CHANGES",
                    SCHEMA, "Obs", ROWS)

    def test_parallel_execution_matches_serial(self):
        query = ("SELECT room, COUNT(*) AS n, SUM(temp) AS s FROM Obs "
                 "GROUP BY room, TUMBLE(10)")
        serial = run_sql(query, SCHEMA, "Obs", ROWS, parallelism=1)
        parallel = run_sql(query, SCHEMA, "Obs", ROWS, parallelism=3)
        assert rows_of(serial) == rows_of(parallel)


class TestRunningAggregation:
    def test_emit_changes_streams_refinements(self):
        out = run_sql(
            "SELECT room, COUNT(*) AS n FROM Obs GROUP BY room "
            "EMIT CHANGES", SCHEMA, "Obs", ROWS)
        a_updates = [r["n"] for r in out if r["room"] == "a"]
        assert a_updates == [1, 2, 3]

    def test_running_sum(self):
        out = run_sql(
            "SELECT room, SUM(temp) AS s FROM Obs GROUP BY room "
            "EMIT CHANGES", SCHEMA, "Obs", ROWS)
        b_updates = [r["s"] for r in out if r["room"] == "b"]
        assert b_updates == [30, 61]


class TestEngine:
    def test_engine_reuse(self):
        engine = SQLEngine()
        engine.register_stream("Obs", SCHEMA)
        first = engine.run("SELECT room FROM Obs", ROWS)
        second = engine.run("SELECT temp FROM Obs", ROWS)
        assert len(first) == len(second) == len(ROWS)

    def test_unknown_stream(self):
        engine = SQLEngine()
        with pytest.raises(PlanError):
            engine.run("SELECT x FROM Nope", [])
