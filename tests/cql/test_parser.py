"""Tests for the CQL parser (paper Listing 1 grammar)."""

import pytest

from repro.core import ParseError, R2SKind, minutes, seconds
from repro.cql import (
    Binary,
    BinOp,
    Column,
    FuncCall,
    Literal,
    Star,
    Unary,
    WindowSpecKind,
    parse_query,
)


class TestListing1:
    """The paper's Listing 1 must parse exactly."""

    QUERY = ("Select count(P.ID) "
             "From Person P, RoomObservation O [Range 15 min] "
             "Where P.id = O.id")

    def test_parses(self):
        stmt = parse_query(self.QUERY)
        assert len(stmt.items) == 1
        call = stmt.items[0].expr
        assert isinstance(call, FuncCall)
        assert call.name == "COUNT"
        assert call.args == (Column("P.ID"),)

    def test_sources(self):
        stmt = parse_query(self.QUERY)
        person, obs = stmt.sources
        assert (person.name, person.alias, person.window) == \
            ("Person", "P", None)
        assert obs.name == "RoomObservation"
        assert obs.alias == "O"
        assert obs.window.kind is WindowSpecKind.RANGE
        assert obs.window.range_ == minutes(15)

    def test_where(self):
        stmt = parse_query(self.QUERY)
        assert stmt.where == Binary(BinOp.EQ, Column("P.id"), Column("O.id"))


class TestWindows:
    def test_now(self):
        stmt = parse_query("SELECT * FROM S [Now]")
        assert stmt.sources[0].window.kind is WindowSpecKind.NOW

    def test_unbounded(self):
        stmt = parse_query("SELECT * FROM S [Range Unbounded]")
        assert stmt.sources[0].window.kind is WindowSpecKind.UNBOUNDED

    def test_bare_unbounded(self):
        stmt = parse_query("SELECT * FROM S [Unbounded]")
        assert stmt.sources[0].window.kind is WindowSpecKind.UNBOUNDED

    def test_range_with_slide(self):
        stmt = parse_query("SELECT * FROM S [Range 30 SEC Slide 10 SEC]")
        window = stmt.sources[0].window
        assert window.range_ == seconds(30)
        assert window.slide == seconds(10)

    def test_range_default_unit_is_ticks(self):
        stmt = parse_query("SELECT * FROM S [Range 500]")
        assert stmt.sources[0].window.range_ == 500

    def test_rows(self):
        stmt = parse_query("SELECT * FROM S [Rows 10]")
        window = stmt.sources[0].window
        assert window.kind is WindowSpecKind.ROWS
        assert window.rows == 10

    def test_partitioned(self):
        stmt = parse_query("SELECT * FROM S [Partition By room, id Rows 5]")
        window = stmt.sources[0].window
        assert window.kind is WindowSpecKind.PARTITIONED
        assert window.partition_by == ("room", "id")
        assert window.rows == 5

    def test_no_window(self):
        stmt = parse_query("SELECT * FROM R")
        assert stmt.sources[0].window is None

    def test_zero_range_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM S [Range 0]")

    def test_fractional_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM S [Rows 1.5]")

    def test_bad_window_keyword(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM S [Frobnicate 3]")


class TestR2S:
    def test_prefix_form(self):
        stmt = parse_query("SELECT ISTREAM * FROM S [Now]")
        assert stmt.r2s is R2SKind.ISTREAM

    def test_wrapping_form(self):
        stmt = parse_query("RSTREAM (SELECT * FROM S [Now])")
        assert stmt.r2s is R2SKind.RSTREAM

    def test_wrapping_without_parens(self):
        stmt = parse_query("DSTREAM SELECT * FROM S [Range 10]")
        assert stmt.r2s is R2SKind.DSTREAM

    def test_duplicate_r2s_rejected(self):
        with pytest.raises(ParseError):
            parse_query("ISTREAM (SELECT RSTREAM * FROM S [Now])")

    def test_default_is_relation_output(self):
        assert parse_query("SELECT * FROM S [Now]").r2s is None


class TestSelectList:
    def test_star(self):
        assert parse_query("SELECT * FROM S").is_star

    def test_aliases(self):
        stmt = parse_query("SELECT a AS x, b y FROM S")
        assert [i.output_name() for i in stmt.items] == ["x", "y"]

    def test_expression_items(self):
        stmt = parse_query("SELECT temp * 2 + 1 AS scaled FROM S")
        expr = stmt.items[0].expr
        assert isinstance(expr, Binary)
        assert expr.op is BinOp.ADD

    def test_distinct(self):
        assert parse_query("SELECT DISTINCT a FROM S").distinct

    def test_count_star(self):
        stmt = parse_query("SELECT COUNT(*) AS n FROM S")
        assert stmt.items[0].expr == FuncCall("COUNT", (Star(),))

    def test_min_keyword_as_function(self):
        # MIN is also the minutes unit keyword; as a call it is an aggregate.
        stmt = parse_query("SELECT MIN(temp) AS lo FROM S")
        assert stmt.items[0].expr == FuncCall("MIN", (Column("temp"),))


class TestClauses:
    def test_group_by_and_having(self):
        stmt = parse_query(
            "SELECT room, AVG(temp) a FROM S [Range 10] "
            "GROUP BY room HAVING AVG(temp) > 20")
        assert stmt.group_by == (Column("room"),)
        assert isinstance(stmt.having, Binary)

    def test_group_by_qualified(self):
        stmt = parse_query("SELECT S.room FROM S GROUP BY S.room")
        assert stmt.group_by == (Column("S.room"),)

    def test_where_precedence(self):
        stmt = parse_query("SELECT * FROM S WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert stmt.where.op is BinOp.OR

    def test_not(self):
        stmt = parse_query("SELECT * FROM S WHERE NOT a = 1")
        assert isinstance(stmt.where, Unary)
        assert stmt.where.op == "NOT"

    def test_literals(self):
        stmt = parse_query(
            "SELECT * FROM S WHERE a = 'x' AND b = TRUE AND c = NULL")
        conjuncts = []
        from repro.cql import split_conjuncts
        conjuncts = split_conjuncts(stmt.where)
        assert conjuncts[0].right == Literal("x")
        assert conjuncts[1].right == Literal(True)
        assert conjuncts[2].right == Literal(None)

    def test_arithmetic_precedence(self):
        stmt = parse_query("SELECT 1 + 2 * 3 AS v FROM S")
        expr = stmt.items[0].expr
        assert expr.op is BinOp.ADD
        assert expr.right.op is BinOp.MUL

    def test_parenthesised(self):
        stmt = parse_query("SELECT (1 + 2) * 3 AS v FROM S")
        assert stmt.items[0].expr.op is BinOp.MUL

    def test_unary_minus(self):
        stmt = parse_query("SELECT -x AS v FROM S")
        assert stmt.items[0].expr == Unary("-", Column("x"))


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse_query("SELECT *")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("SELECT * FROM S nonsense extra")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_query("")


class TestStatementEnd:
    """A ``;`` closes the statement, and only end of input may follow it:
    text after it was once dropped without a word, so a registration ran
    only the first of two statements."""

    @pytest.mark.parametrize("text", [
        "SELECT id FROM Obs [Range 5];",
        "SELECT id FROM Obs [Range 5] ;  -- done",
    ])
    def test_one_closed_statement_parses(self, text):
        assert parse_query(text) == parse_query("SELECT id FROM Obs [Range 5]")

    @pytest.mark.parametrize("text, trailing", [
        ("SELECT id FROM Obs [Range 5]; DROP", "DROP"),
        ("SELECT id FROM Obs [Range 5]; SELECT room FROM Obs", "SELECT"),
        ("SELECT id FROM Obs [Range 5];;", ";"),
    ])
    def test_text_after_the_semicolon_is_refused_where_it_starts(
            self, text, trailing):
        with pytest.raises(ParseError, match="unexpected trailing input") \
                as refused:
            parse_query(text)
        after = text.index(";") + 1
        assert refused.value.position == text.index(trailing, after)
