"""Tokenizer for the CQL and streaming-SQL dialects.

One lexer serves both languages: the streaming-SQL dialect
(:mod:`repro.sql`) is a superset of CQL at the token level, so keywords of
both are recognised here and each parser accepts the subset it understands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import ParseError


class TokenType(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "eof"


#: Keywords of the combined CQL / streaming-SQL surface (upper-case).
KEYWORDS = frozenset({
    # SQL core
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS",
    "AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "UNION", "EXCEPT",
    "INTERSECT", "ALL", "ORDER", "LIMIT", "JOIN", "ON", "INNER",
    # CQL windows
    "RANGE", "SLIDE", "ROWS", "NOW", "UNBOUNDED", "PARTITION",
    # R2S
    "ISTREAM", "DSTREAM", "RSTREAM",
    # streaming SQL windows (Begoli et al. style)
    "TUMBLE", "HOP", "SESSION", "EMIT", "CHANGES", "AFTER", "WATERMARK",
    # DDL-ish (catalog statements)
    "CREATE", "STREAM", "TABLE", "VIEW", "MATERIALIZED",
    # dynamic tables
    "DYNAMIC", "TARGET_LAG", "DOWNSTREAM",
    # time units
    "MS", "MILLISECOND", "MILLISECONDS", "SEC", "SECOND", "SECONDS",
    "MIN", "MINUTE", "MINUTES", "HOUR", "HOURS",
})

#: Multi-character symbols, longest first so the scanner is greedy.
SYMBOLS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", "[", "]",
           ",", ".", "*", "+", "-", "/", "%", ";")


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.type is TokenType.SYMBOL and self.text in symbols

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r}@{self.position})"


def tokenize(text: str) -> list[Token]:
    """Tokenise query text.  Raises :class:`ParseError` on bad input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":  # line comment
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        # isdecimal, not isdigit: a superscript digit is a digit that
        # int() and float() refuse, so it must not start a number.
        if ch.isdecimal() or (ch == "." and i + 1 < n
                              and text[i + 1].isdecimal()):
            start = i
            while i < n and (text[i].isdecimal() or text[i] == "."):
                i += 1
            number = text[start:i]
            if number.count(".") > 1:
                raise ParseError(f"malformed number {number!r}", start)
            yield Token(TokenType.NUMBER, number, start)
            continue
        if ch == "'":
            start = i
            i += 1
            chunks = []
            while i < n:
                if text[i] == "'":
                    if text[i:i + 2] == "''":  # escaped quote
                        chunks.append("'")
                        i += 2
                        continue
                    break
                chunks.append(text[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated string literal", start)
            i += 1  # closing quote
            yield Token(TokenType.STRING, "".join(chunks), start)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, start)
            else:
                yield Token(TokenType.IDENT, word, start)
            continue
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                yield Token(TokenType.SYMBOL, symbol, i)
                i += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    yield Token(TokenType.EOF, "", n)


class TokenCursor:
    """A peekable cursor over a token list, shared by both parsers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def match_keyword(self, *names: str) -> Token | None:
        """Consume and return the next token when it is one of ``names``."""
        if self.peek().is_keyword(*names):
            return self.advance()
        return None

    def match_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.match_keyword(*names)
        if token is None:
            raise ParseError(
                f"expected {' or '.join(names)}, found {self.peek().text!r}",
                self.peek().position)
        return token

    def expect_symbol(self, *symbols: str) -> Token:
        token = self.match_symbol(*symbols)
        if token is None:
            raise ParseError(
                f"expected {' or '.join(symbols)!r}, found "
                f"{self.peek().text!r}", self.peek().position)
        return token

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}", token.position)
        return self.advance()

    def expect_number(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise ParseError(
                f"expected number, found {token.text!r}", token.position)
        return self.advance()

    def at_end(self) -> bool:
        token = self.peek()
        return token.type is TokenType.EOF or token.is_symbol(";")
