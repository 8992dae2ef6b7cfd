"""Tokenizer for the CQL and streaming-SQL dialects.

One lexer serves both languages: the streaming-SQL dialect
(:mod:`repro.sql`) is a superset of CQL at the token level, so keywords of
both are recognised here and each parser accepts the subset it understands.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

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

#: The symbols, multi-character ones first (the master regex is greedy).
SYMBOLS = ("<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", "[", "]",
           ",", ".", "*", "+", "-", "/", "%", ";")


class Token(NamedTuple):
    type: TokenType
    text: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.type is TokenType.SYMBOL and self.text in symbols

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r}@{self.position})"


_IDENT, _NUMBER, _STRING = TokenType.IDENT, TokenType.NUMBER, TokenType.STRING
_KEYWORD, _SYMBOL, _EOF = TokenType.KEYWORD, TokenType.SYMBOL, TokenType.EOF

#: One token per match, after any whitespace and line comments.  The
#: groups, by number: 1 a number (decimal digits and dots: ``\d`` is
#: ``str.isdecimal``, so ``²`` is not a digit but ``٣`` is), 2 the body of
#: a string literal, 3 a word (``\w`` is ``str.isalnum`` or ``_``; one
#: that does not start with a letter or ``_`` is refused), 4 a symbol,
#: 5 a quote that opens no complete literal, 6 any other character.  A
#: literal closes at a quote that no second quote follows, so an
#: unterminated one cannot backtrack into a shorter one.  A match with no
#: group is trailing blanks.
_SYMBOLS = "|".join(map(re.escape, SYMBOLS))
_MASTER = re.compile(rf"""
    (?: \s+ | --[^\n]* )*
    (?: ( (?:\d|\.\d) [\d.]* )
      | ' ( [^']* (?:''[^']*)* ) ' (?!')
      | ( \w+ )
      | ( {_SYMBOLS} )
      | ( ' )
      | ( . )
    )?
""", re.VERBOSE | re.DOTALL)

#: Builds a Token from its three fields in C: the NamedTuple's own
#: ``__new__`` is a Python function, one frame per token.
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokenise query text in one pass of :data:`_MASTER`.  Raises
    :class:`ParseError` on bad input."""
    tokens = []
    append = tokens.append
    keywords = KEYWORDS
    for match in _MASTER.finditer(text):
        group = match.lastindex
        if group is None:
            continue
        lexeme = match[group]
        if group == 3:
            first = lexeme[0]
            if not (first.isalpha() or first == "_"):
                raise ParseError(f"unexpected character {first!r}",
                                 match.start(3))
            upper = lexeme.upper()
            if upper in keywords:
                append(_new_token(Token, (_KEYWORD, upper, match.start(3))))
            else:
                append(_new_token(Token, (_IDENT, lexeme, match.start(3))))
        elif group == 4:
            append(_new_token(Token, (_SYMBOL, lexeme, match.start(4))))
        elif group == 1:
            if lexeme.count(".") > 1:
                raise ParseError(f"malformed number {lexeme!r}",
                                 match.start(1))
            append(_new_token(Token, (_NUMBER, lexeme, match.start(1))))
        elif group == 2:
            append(_new_token(Token, (_STRING, lexeme.replace("''", "'"),
                                      match.start(2) - 1)))
        elif group == 5:
            raise ParseError("unterminated string literal", match.start(5))
        else:
            raise ParseError(f"unexpected character {lexeme!r}",
                             match.start(6))
    append(_new_token(Token, (_EOF, "", len(text))))
    return tokens


#: The comparison symbols: a literal operand of one is a shape's slot.
_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

#: The symbols that bind tighter than a comparison: a literal beside one
#: is their operand, not the comparison's.
_TIGHTER = frozenset({"+", "-", "*", "/", "%"})

#: The clause keywords, by whether the clause they open is a predicate.
_CLAUSES = {"WHERE": True, "HAVING": True,
            "SELECT": False, "FROM": False, "GROUP": False}


def shape(tokens: list[Token]) -> tuple[tuple, tuple, dict[int, int]]:
    """The literal-free shape of a text's ``tokens``: ``(key, literals,
    slots)``.

    A *comparison literal* is a number or string that is an operand of a
    comparison (a neighbour of ``=``, ``<>``, ``<`` ... that no tighter
    operator such as ``+`` or a unary ``-`` takes instead) in a WHERE or
    HAVING clause, outside a function call's parentheses.  The shape
    lifts each into a slot: ``literals`` are their values in text order,
    ``slots`` maps each one's token index to its slot, and its element
    of ``key`` is its value's type, so ``10`` and ``10.5`` are different
    shapes.  Every other token's element is its text (a string's with a
    leading quote, which no other token's text has), so window specs,
    keywords such as ``NULL`` and ``TRUE``, a select item's literals and
    a literal that is a whole predicate stay in the key; positions, and
    with them whitespace and comments, do not.  Two texts with one key
    parse alike but for their slots' values, which reach the plan in
    filter and join predicates only (see :func:`repro.plan.ir.bind`)."""
    key: list = []
    literals: list = []
    slots: dict[int, int] = {}
    predicate = False
    opened: list[bool] = []     # per open parenthesis: whether a call's
    calls = 0                   # how many open parentheses are a call's
    previous = tokens[-1]       # the EOF token: no comparison, no call
    for index, token in enumerate(tokens):
        kind, text = token[0], token[1]
        if kind is _NUMBER or kind is _STRING:
            following = tokens[index + 1]
            if predicate and not calls and (
                    (previous[0] is _SYMBOL and previous[1] in _COMPARISONS
                     and not (following[0] is _SYMBOL
                              and following[1] in _TIGHTER))
                    or (following[0] is _SYMBOL
                        and following[1] in _COMPARISONS
                        and not (previous[0] is _SYMBOL
                                 and previous[1] in _TIGHTER))):
                value = (text if kind is _STRING else
                         float(text) if "." in text else int(text))
                slots[index] = len(literals)
                literals.append(value)
                key.append(type(value))
            else:
                key.append(text if kind is _NUMBER else "'" + text)
        else:
            key.append(text)
            if kind is _KEYWORD:
                predicate = _CLAUSES.get(text, predicate)
            elif kind is _SYMBOL:
                if text == "(":
                    call = previous[0] is _IDENT or previous[1] == "MIN"
                    opened.append(call)
                    calls += call
                elif text == ")" and opened:
                    calls -= opened.pop()
        previous = token
    return tuple(key), tuple(literals), slots


class TokenCursor:
    """A peekable cursor over a token list, shared by both parsers.

    The list ends with its EOF token and the cursor never moves past it,
    so the current token is always ``_tokens[_pos]``; only a look-ahead
    clamps.  ``slots`` maps a token index to the shape slot its literal
    fills (see :func:`shape`); a literal parsed there records it."""

    __slots__ = ("_tokens", "_pos", "_slots")

    def __init__(self, tokens: list[Token],
                 slots: dict[int, int] | None = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._slots = slots or {}

    def slot(self) -> int | None:
        """The shape slot the current token fills, if any."""
        return self._slots.get(self._pos)

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _EOF:
            self._pos += 1
        return token

    def match_keyword(self, *names: str) -> Token | None:
        """Consume and return the next token when it is one of ``names``."""
        token = self._tokens[self._pos]
        if token.type is _KEYWORD and token.text in names:
            self._pos += 1
            return token
        return None

    def match_symbol(self, *symbols: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is _SYMBOL and token.text in symbols:
            self._pos += 1
            return token
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _KEYWORD or token.text not in names:
            raise ParseError(
                f"expected {' or '.join(names)}, found {token.text!r}",
                token.position)
        self._pos += 1
        return token

    def expect_symbol(self, *symbols: str) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _SYMBOL or token.text not in symbols:
            raise ParseError(
                f"expected {' or '.join(symbols)!r}, found "
                f"{token.text!r}", token.position)
        self._pos += 1
        return token

    def expect_ident(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}", token.position)
        self._pos += 1
        return token

    def expect_number(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _NUMBER:
            raise ParseError(
                f"expected number, found {token.text!r}", token.position)
        self._pos += 1
        return token

    def at_end(self) -> bool:
        token = self._tokens[self._pos]
        return token.type is _EOF or (token.type is _SYMBOL
                                      and token.text == ";")

    def expect_end(self) -> None:
        """Close a statement: end of input, after at most one ``;``.
        Anything else — a second statement too — is refused as trailing
        input at its position, so no text is silently dropped."""
        token = self._tokens[self._pos]
        if token.type is _SYMBOL and token.text == ";":
            self._pos += 1
            token = self._tokens[self._pos]
        if token.type is not _EOF:
            raise ParseError(
                f"unexpected trailing input {token.text!r}", token.position)
