"""Tests for the CQL/SQL tokenizer."""

import pytest

from repro.core import ParseError
from repro.cql import Token, TokenCursor, TokenType, tokenize


def kinds(text):
    return [(t.type, t.text) for t in tokenize(text)[:-1]]  # drop EOF


class TestTokenize:
    def test_keywords_case_insensitive(self):
        assert kinds("select FROM Where") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
            (TokenType.KEYWORD, "WHERE"),
        ]

    def test_identifiers_preserve_case(self):
        assert kinds("RoomObservation") == [
            (TokenType.IDENT, "RoomObservation")]

    def test_numbers(self):
        assert kinds("15 3.14") == [
            (TokenType.NUMBER, "15"), (TokenType.NUMBER, "3.14")]

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            tokenize("1.2.3")

    def test_strings_with_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_multichar_symbols_greedy(self):
        assert kinds("<= <> >=") == [
            (TokenType.SYMBOL, "<="), (TokenType.SYMBOL, "<>"),
            (TokenType.SYMBOL, ">=")]

    def test_window_brackets(self):
        tokens = kinds("[Range 15 MIN]")
        assert tokens[0] == (TokenType.SYMBOL, "[")
        assert tokens[1] == (TokenType.KEYWORD, "RANGE")
        assert tokens[-1] == (TokenType.SYMBOL, "]")

    def test_line_comment_skipped(self):
        assert kinds("select -- a comment\n x") == [
            (TokenType.KEYWORD, "SELECT"), (TokenType.IDENT, "x")]

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("select @")

    def test_eof_token_present(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_position_reported(self):
        tokens = tokenize("select foo")
        assert tokens[1].position == 7


class TestCursor:
    def test_match_and_expect(self):
        cursor = TokenCursor(tokenize("SELECT x"))
        assert cursor.match_keyword("SELECT")
        assert cursor.expect_ident().text == "x"
        assert cursor.at_end()

    def test_expect_failure_mentions_expected(self):
        cursor = TokenCursor(tokenize("x"))
        with pytest.raises(ParseError, match="SELECT"):
            cursor.expect_keyword("SELECT")

    def test_peek_ahead(self):
        cursor = TokenCursor(tokenize("a b"))
        assert cursor.peek(1).text == "b"
        assert cursor.peek(99).type is TokenType.EOF

    def test_semicolon_terminates(self):
        cursor = TokenCursor(tokenize("x ;"))
        cursor.advance()
        assert cursor.at_end()


class TestNumbersAreDecimalDigits:
    """A number token takes ``str.isdecimal`` characters only: a
    superscript digit is a digit to ``str.isdigit`` but not to ``int()``
    or ``float()``, so it is an unexpected character, with its position.
    """

    @pytest.mark.parametrize("text, position", [
        ("SELECT a FROM S [Range ²]", 23),
        ("SELECT a FROM S [Rows ³]", 22),
        ("SELECT a FROM S [Now] WHERE a > ²", 32),
    ])
    def test_a_superscript_digit_is_a_parse_error_in_cql(self, text,
                                                         position):
        from repro.cql import CQLEngine

        engine = CQLEngine()
        with pytest.raises(ParseError, match="unexpected character") as err:
            engine.plan(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("SELECT a FROM S WHERE a > ²", 26),
        ("SELECT a, COUNT(*) AS n FROM S GROUP BY a, TUMBLE(²)", 50),
    ])
    def test_a_superscript_digit_is_a_parse_error_in_streaming_sql(
            self, text, position):
        from repro.sql import parse_sql

        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_sql(text)
        assert err.value.position == position

    def test_other_decimal_digits_still_read_as_numbers(self):
        assert kinds("٣ 1٣.5") == [
            (TokenType.NUMBER, "٣"), (TokenType.NUMBER, "1٣.5")]
        assert int(kinds("٣")[0][1]) == 3

    def test_a_superscript_inside_a_name_is_part_of_it(self):
        assert kinds("x² > 1") == [
            (TokenType.IDENT, "x²"), (TokenType.SYMBOL, ">"),
            (TokenType.NUMBER, "1")]
