"""Tests for expression compilation and SQL three-valued logic."""

import pytest

from repro.core import PlanError, Record, Schema
from repro.cql import compile_expr, compile_predicate, equality_columns
from repro.cql.parser import parse_query


SCHEMA = Schema(["S.a", "S.b", "S.name"])


def compiled(expr_text, schema=SCHEMA):
    stmt = parse_query(f"SELECT {expr_text} AS v FROM X")
    return compile_expr(stmt.items[0].expr, schema)


def record(a, b, name="x"):
    return Record(SCHEMA, (a, b, name), validate=False)


class TestCompilation:
    def test_column_by_suffix(self):
        assert compiled("a")(record(1, 2)) == 1

    def test_column_qualified(self):
        assert compiled("S.b")(record(1, 2)) == 2

    def test_literal(self):
        assert compiled("42")(record(0, 0)) == 42

    def test_arithmetic(self):
        assert compiled("a * 2 + b")(record(3, 4)) == 10

    def test_division(self):
        assert compiled("a / b")(record(6, 3)) == 2

    def test_division_by_zero_is_null(self):
        assert compiled("a / b")(record(6, 0)) is None

    def test_modulo(self):
        assert compiled("a % b")(record(7, 3)) == 1

    def test_unary_minus(self):
        assert compiled("-a")(record(5, 0)) == -5

    def test_comparison(self):
        assert compiled("a < b")(record(1, 2)) is True
        assert compiled("a >= b")(record(1, 2)) is False

    def test_scalar_functions(self):
        assert compiled("ABS(a)")(record(-3, 0)) == 3
        assert compiled("UPPER(name)")(record(0, 0, "hi")) == "HI"
        assert compiled("LENGTH(name)")(record(0, 0, "hi")) == 2

    def test_coalesce(self):
        assert compiled("COALESCE(a, b)")(record(None, 7)) == 7

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError, match="unknown function"):
            compiled("FROB(a)")

    def test_aggregate_rejected_in_scalar_context(self):
        with pytest.raises(PlanError, match="[Aa]ggregate"):
            compiled("SUM(a)")

    def test_unknown_column_rejected(self):
        with pytest.raises(Exception):
            compiled("zzz")


class TestNullPropagation:
    def test_arithmetic_with_null(self):
        assert compiled("a + b")(record(None, 2)) is None

    def test_comparison_with_null(self):
        assert compiled("a = b")(record(None, 2)) is None

    def test_scalar_function_with_null(self):
        assert compiled("ABS(a)")(record(None, 0)) is None

    def test_not_null_is_null(self):
        assert compiled("NOT a = b")(record(None, 1)) is None


class TestThreeValuedLogic:
    def test_false_and_null_is_false(self):
        assert compiled("a = 1 AND b = 1")(record(2, None)) is False

    def test_true_and_null_is_null(self):
        assert compiled("a = 1 AND b = 1")(record(1, None)) is None

    def test_true_or_null_is_true(self):
        assert compiled("a = 1 OR b = 1")(record(1, None)) is True

    def test_false_or_null_is_null(self):
        assert compiled("a = 1 OR b = 1")(record(2, None)) is None


class TestPredicate:
    def test_null_counts_as_false(self):
        stmt = parse_query("SELECT * FROM X WHERE a = b")
        predicate = compile_predicate(stmt.where, SCHEMA)
        assert predicate(record(None, 2)) is False
        assert predicate(record(2, 2)) is True

    @pytest.mark.parametrize("text", ["a > 1", "1 < a", "a > NULL"])
    def test_column_against_literal(self, text):
        # ``a > 1`` compiles to one direct closure; the others take the
        # general path.  Both must keep SQL's NULL semantics.
        null_literal = "NULL" in text
        evaluator = compiled(text)
        assert evaluator(record(2, 0)) is (None if null_literal else True)
        assert evaluator(record(1, 0)) is (None if null_literal else False)
        assert evaluator(record(None, 0)) is None
        predicate = compile_predicate(
            parse_query(f"SELECT * FROM X WHERE {text}").where, SCHEMA)
        assert predicate(record(2, 0)) is not null_literal
        assert predicate(record(1, 0)) is False
        assert predicate(record(None, 0)) is False


class TestEqualityColumns:
    def test_recognised(self):
        stmt = parse_query("SELECT * FROM X WHERE P.id = O.id")
        assert equality_columns(stmt.where) == ("P.id", "O.id")

    def test_not_an_equality(self):
        stmt = parse_query("SELECT * FROM X WHERE P.id < O.id")
        assert equality_columns(stmt.where) is None

    def test_literal_comparand_not_extracted(self):
        stmt = parse_query("SELECT * FROM X WHERE P.id = 3")
        assert equality_columns(stmt.where) is None
