"""Recursive-descent parser for the CQL dialect (paper Listing 1).

Accepted grammar (case-insensitive keywords)::

    query       := [r2s] SELECT [DISTINCT] select_list
                   FROM source ("," source)*
                   [WHERE expr] [GROUP BY column ("," column)*] [HAVING expr]
    r2s         := ISTREAM | DSTREAM | RSTREAM           -- also allowed
                                                         -- right after SELECT
    select_list := "*" | item ("," item)*
    item        := expr [[AS] ident]
    source      := ident [ident] [window]
    window      := "[" RANGE duration [SLIDE duration]
                 | "[" RANGE UNBOUNDED
                 | "[" NOW
                 | "[" ROWS number
                 | "[" PARTITION BY column ("," column)* ROWS number "]"
    duration    := number [MS|SEC|SECOND(S)|MIN|MINUTE(S)|HOUR(S)]

Both R2S placements from the literature are accepted:
``ISTREAM (SELECT ...)`` and ``SELECT ISTREAM ...``.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.core.operators import R2SKind
from repro.core.time import Timestamp, hours, millis, minutes, seconds
from repro.cql.ast import (
    Binary,
    BinOp,
    Column,
    Expr,
    FromSource,
    FuncCall,
    Literal,
    SelectItem,
    SelectStatement,
    SetStatement,
    Star,
    Unary,
    WindowSpec,
    WindowSpecKind,
)
from repro.cql.lexer import TokenCursor, TokenType, tokenize

_R2S_BY_KEYWORD = {
    "ISTREAM": R2SKind.ISTREAM,
    "DSTREAM": R2SKind.DSTREAM,
    "RSTREAM": R2SKind.RSTREAM,
}

_UNIT_FACTORS = {
    "MS": millis, "MILLISECOND": millis, "MILLISECONDS": millis,
    "SEC": seconds, "SECOND": seconds, "SECONDS": seconds,
    "MIN": minutes, "MINUTE": minutes, "MINUTES": minutes,
    "HOUR": hours, "HOURS": hours,
}

#: Keywords that may appear as function names in expressions.
_KEYWORD_FUNCTIONS = frozenset({"MIN"})


_SET_KINDS = {"UNION": "union", "EXCEPT": "difference",
              "INTERSECT": "intersection"}


def parse_query(text: str) -> SelectStatement | SetStatement:
    """Parse a CQL query string: a SELECT block or a set combination
    (``UNION [ALL]`` / ``EXCEPT [ALL]`` / ``INTERSECT [ALL]``)."""
    cursor = TokenCursor(tokenize(text))
    statement = _parse_statement(cursor)
    statement = _parse_set_tail(cursor, statement)
    cursor.expect_end()
    return statement


def _parse_set_tail(cursor: TokenCursor,
                    left: SelectStatement | SetStatement,
                    ) -> SelectStatement | SetStatement:
    while True:
        token = cursor.match_keyword(*_SET_KINDS)
        if token is None:
            return left
        distinct = cursor.match_keyword("ALL") is None
        right = _parse_statement(cursor)
        for operand in (left, right):
            if operand.r2s is not None:
                raise ParseError(
                    "relation-to-stream operators must wrap the whole "
                    "set expression, not an operand", token.position)
        left = SetStatement(_SET_KINDS[token.text], left, right,
                            distinct=distinct)


def _parse_statement(cursor: TokenCursor) -> SelectStatement | SetStatement:
    outer_r2s: R2SKind | None = None
    wrapped = False
    r2s_token = cursor.match_keyword(*_R2S_BY_KEYWORD)
    if r2s_token is not None:
        outer_r2s = _R2S_BY_KEYWORD[r2s_token.text]
        wrapped = cursor.match_symbol("(") is not None

    cursor.expect_keyword("SELECT")
    inner_r2s_token = cursor.match_keyword(*_R2S_BY_KEYWORD)
    if inner_r2s_token is not None:
        if outer_r2s is not None:
            raise ParseError("duplicate relation-to-stream operator",
                             inner_r2s_token.position)
        outer_r2s = _R2S_BY_KEYWORD[inner_r2s_token.text]

    distinct = cursor.match_keyword("DISTINCT") is not None
    items = _parse_select_list(cursor)
    cursor.expect_keyword("FROM")
    sources = [_parse_source(cursor)]
    while cursor.match_symbol(","):
        sources.append(_parse_source(cursor))

    where = None
    if cursor.match_keyword("WHERE"):
        where = _parse_expr(cursor)

    group_by: list[Column] = []
    if cursor.match_keyword("GROUP"):
        cursor.expect_keyword("BY")
        group_by.append(_parse_column(cursor))
        while cursor.match_symbol(","):
            group_by.append(_parse_column(cursor))

    having = None
    if cursor.match_keyword("HAVING"):
        having = _parse_expr(cursor)

    statement = SelectStatement(
        items=tuple(items), sources=tuple(sources), where=where,
        group_by=tuple(group_by), having=having, distinct=distinct,
        r2s=outer_r2s if not wrapped else None)
    if wrapped:
        # A wrapping R2S covers any set combination inside the parens:
        # ``ISTREAM (SELECT ... UNION SELECT ...)``.
        combined = _parse_set_tail(cursor, statement)
        cursor.expect_symbol(")")
        if isinstance(combined, SetStatement):
            return SetStatement(combined.kind, combined.left,
                                combined.right, combined.distinct,
                                r2s=outer_r2s)
        return SelectStatement(
            items=combined.items, sources=combined.sources,
            where=combined.where, group_by=combined.group_by,
            having=combined.having, distinct=combined.distinct,
            r2s=outer_r2s)
    return statement


def _parse_select_list(cursor: TokenCursor) -> list[SelectItem]:
    if cursor.peek().is_symbol("*"):
        cursor.advance()
        return []
    items = [_parse_select_item(cursor)]
    while cursor.match_symbol(","):
        items.append(_parse_select_item(cursor))
    return items


def _parse_select_item(cursor: TokenCursor) -> SelectItem:
    expr = _parse_expr(cursor)
    alias = None
    if cursor.match_keyword("AS"):
        alias = cursor.expect_ident().text
    elif cursor.peek().type is TokenType.IDENT:
        alias = cursor.advance().text
    return SelectItem(expr, alias)


def _parse_source(cursor: TokenCursor) -> FromSource:
    name = cursor.expect_ident().text
    alias = None
    if cursor.peek().type is TokenType.IDENT:
        alias = cursor.advance().text
    elif cursor.match_keyword("AS"):
        alias = cursor.expect_ident().text
    window = None
    if cursor.peek().is_symbol("["):
        window = _parse_window(cursor)
    return FromSource(name=name, alias=alias, window=window)


def _parse_window(cursor: TokenCursor) -> WindowSpec:
    cursor.expect_symbol("[")
    if cursor.match_keyword("NOW"):
        cursor.expect_symbol("]")
        return WindowSpec(kind=WindowSpecKind.NOW)
    if cursor.match_keyword("UNBOUNDED"):
        cursor.expect_symbol("]")
        return WindowSpec(kind=WindowSpecKind.UNBOUNDED)
    if cursor.match_keyword("RANGE"):
        if cursor.match_keyword("UNBOUNDED"):
            cursor.expect_symbol("]")
            return WindowSpec(kind=WindowSpecKind.UNBOUNDED)
        range_ = _parse_duration(cursor)
        slide = None
        if cursor.match_keyword("SLIDE"):
            slide = _parse_duration(cursor)
        cursor.expect_symbol("]")
        return WindowSpec(kind=WindowSpecKind.RANGE, range_=range_,
                          slide=slide)
    if cursor.match_keyword("ROWS"):
        rows = _parse_positive_int(cursor)
        cursor.expect_symbol("]")
        return WindowSpec(kind=WindowSpecKind.ROWS, rows=rows)
    if cursor.match_keyword("PARTITION"):
        cursor.expect_keyword("BY")
        columns = [_parse_column(cursor).name]
        while cursor.match_symbol(","):
            columns.append(_parse_column(cursor).name)
        cursor.expect_keyword("ROWS")
        rows = _parse_positive_int(cursor)
        cursor.expect_symbol("]")
        return WindowSpec(kind=WindowSpecKind.PARTITIONED, rows=rows,
                          partition_by=tuple(columns))
    token = cursor.peek()
    raise ParseError(f"bad window specification near {token.text!r}",
                     token.position)


def _parse_duration(cursor: TokenCursor) -> Timestamp:
    token = cursor.expect_number()
    amount = float(token.text)
    unit = cursor.match_keyword(*_UNIT_FACTORS)
    factor = _UNIT_FACTORS[unit.text] if unit else millis
    value = factor(amount)
    if value <= 0:
        raise ParseError(f"duration must be positive, got {token.text}",
                         token.position)
    return value


def _parse_positive_int(cursor: TokenCursor) -> int:
    token = cursor.expect_number()
    if "." in token.text:
        raise ParseError(f"expected integer, got {token.text}",
                         token.position)
    value = int(token.text)
    if value <= 0:
        raise ParseError(f"expected positive integer, got {value}",
                         token.position)
    return value


def _parse_column(cursor: TokenCursor) -> Column:
    first = cursor.expect_ident().text
    if cursor.match_symbol("."):
        second = cursor.expect_ident().text
        return Column(f"{first}.{second}")
    return Column(first)


# ---------------------------------------------------------------------------
# Expressions (precedence climbing)
# ---------------------------------------------------------------------------


def _parse_expr(cursor: TokenCursor) -> Expr:
    return _parse_or(cursor)


def _parse_or(cursor: TokenCursor) -> Expr:
    expr = _parse_and(cursor)
    while cursor.match_keyword("OR"):
        expr = Binary(BinOp.OR, expr, _parse_and(cursor))
    return expr


def _parse_and(cursor: TokenCursor) -> Expr:
    expr = _parse_not(cursor)
    while cursor.match_keyword("AND"):
        expr = Binary(BinOp.AND, expr, _parse_not(cursor))
    return expr


def _parse_not(cursor: TokenCursor) -> Expr:
    if cursor.match_keyword("NOT"):
        return Unary("NOT", _parse_not(cursor))
    return _parse_comparison(cursor)


_COMPARISONS = {
    "=": BinOp.EQ, "<>": BinOp.NE, "!=": BinOp.NE,
    "<": BinOp.LT, "<=": BinOp.LE, ">": BinOp.GT, ">=": BinOp.GE,
}


def _parse_comparison(cursor: TokenCursor) -> Expr:
    expr = _parse_additive(cursor)
    token = cursor.match_symbol(*_COMPARISONS)
    if token is not None:
        expr = Binary(_COMPARISONS[token.text], expr,
                      _parse_additive(cursor))
    return expr


def _parse_additive(cursor: TokenCursor) -> Expr:
    expr = _parse_multiplicative(cursor)
    while True:
        token = cursor.match_symbol("+", "-")
        if token is None:
            return expr
        op = BinOp.ADD if token.text == "+" else BinOp.SUB
        expr = Binary(op, expr, _parse_multiplicative(cursor))


def _parse_multiplicative(cursor: TokenCursor) -> Expr:
    expr = _parse_unary(cursor)
    while True:
        token = cursor.match_symbol("*", "/", "%")
        if token is None:
            return expr
        op = {"*": BinOp.MUL, "/": BinOp.DIV, "%": BinOp.MOD}[token.text]
        expr = Binary(op, expr, _parse_unary(cursor))


def _parse_unary(cursor: TokenCursor) -> Expr:
    if cursor.match_symbol("-"):
        return Unary("-", _parse_unary(cursor))
    return _parse_primary(cursor)


def _parse_primary(cursor: TokenCursor) -> Expr:
    token = cursor.peek()
    if token.is_symbol("("):
        cursor.advance()
        expr = _parse_expr(cursor)
        cursor.expect_symbol(")")
        return expr
    if token.type is TokenType.NUMBER:
        cursor.advance()
        text = token.text
        return Literal(float(text) if "." in text else int(text))
    if token.type is TokenType.STRING:
        cursor.advance()
        return Literal(token.text)
    if token.is_keyword("TRUE"):
        cursor.advance()
        return Literal(True)
    if token.is_keyword("FALSE"):
        cursor.advance()
        return Literal(False)
    if token.is_keyword("NULL"):
        cursor.advance()
        return Literal(None)
    if token.is_keyword(*_KEYWORD_FUNCTIONS) and \
            cursor.peek(1).is_symbol("("):
        cursor.advance()
        return _parse_call(cursor, token.text)
    if token.type is TokenType.IDENT:
        cursor.advance()
        if cursor.peek().is_symbol("("):
            return _parse_call(cursor, token.text.upper())
        if cursor.match_symbol("."):
            second = cursor.expect_ident().text
            return Column(f"{token.text}.{second}")
        return Column(token.text)
    raise ParseError(f"unexpected token {token.text!r}", token.position)


def _parse_call(cursor: TokenCursor, name: str) -> FuncCall:
    cursor.expect_symbol("(")
    args: list[Expr] = []
    if cursor.peek().is_symbol("*"):
        cursor.advance()
        args.append(Star())
    elif not cursor.peek().is_symbol(")"):
        args.append(_parse_expr(cursor))
        while cursor.match_symbol(","):
            args.append(_parse_expr(cursor))
    cursor.expect_symbol(")")
    return FuncCall(name.upper(), tuple(args))
