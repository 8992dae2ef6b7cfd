"""Parser for the streaming SQL dialect.

Grammar (sharing the lexer and expression grammar with CQL)::

    statement := create | query
    create := CREATE DYNAMIC TABLE ident
              [TARGET_LAG ["="] (duration | DOWNSTREAM)]
              AS query
    query  := SELECT select_list FROM ident [ident]
              [WHERE expr]
              [GROUP BY group_item ("," group_item)*]
              [HAVING expr]
              [EMIT (CHANGES | FINAL)]
    group_item := column
                | TUMBLE "(" duration ")"
                | HOP "(" duration "," duration ")"
                | SESSION "(" duration ")"

Defaults: a windowed aggregation emits FINAL (results on window close), a
non-windowed query emits CHANGES (a changelog) — matching the conventions
of the systems the survey compares.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.cql.ast import Column
from repro.cql.lexer import TokenCursor, TokenType, tokenize
from repro.cql.parser import (
    _parse_column,
    _parse_duration,
    _parse_expr,
    _parse_select_list,
)
from repro.sql.ast import (
    CreateDynamicTable,
    EmitMode,
    GroupWindow,
    GroupWindowKind,
    SQLStatement,
)


def parse_sql(text: str) -> SQLStatement:
    """Parse a streaming SQL query string."""
    cursor = TokenCursor(tokenize(text))
    statement = _parse_select(cursor)
    cursor.expect_end()
    return statement


def parse_statement(text: str) -> SQLStatement | CreateDynamicTable:
    """Parse a statement: a query, or ``CREATE DYNAMIC TABLE``."""
    cursor = TokenCursor(tokenize(text))
    if not cursor.match_keyword("CREATE"):
        statement = _parse_select(cursor)
        cursor.expect_end()
        return statement
    cursor.expect_keyword("DYNAMIC")
    cursor.expect_keyword("TABLE")
    name = cursor.expect_ident().text
    target_lag: int | str | None = None
    if cursor.match_keyword("TARGET_LAG"):
        cursor.match_symbol("=")
        if cursor.match_keyword("DOWNSTREAM"):
            target_lag = "downstream"
        elif cursor.peek().text == "0":
            # TARGET_LAG = 0 ("refresh every tick") is legal even though
            # a zero window duration is not.
            cursor.advance()
            target_lag = 0
        else:
            target_lag = _parse_duration(cursor)
    cursor.expect_keyword("AS")
    select = _parse_select(cursor)
    cursor.expect_end()
    return CreateDynamicTable(name=name, target_lag=target_lag,
                              select=select)


def _parse_select(cursor: TokenCursor) -> SQLStatement:
    cursor.expect_keyword("SELECT")
    items = _parse_select_list(cursor)
    cursor.expect_keyword("FROM")
    source = cursor.expect_ident().text
    alias = None
    if cursor.peek().type is TokenType.IDENT:
        alias = cursor.advance().text
    elif cursor.match_keyword("AS"):
        alias = cursor.expect_ident().text

    where = None
    if cursor.match_keyword("WHERE"):
        where = _parse_expr(cursor)

    group_by: list[Column] = []
    window: GroupWindow | None = None
    if cursor.match_keyword("GROUP"):
        cursor.expect_keyword("BY")
        while True:
            item_window = _try_parse_group_window(cursor)
            if item_window is not None:
                if window is not None:
                    raise ParseError(
                        "at most one window function per GROUP BY")
                window = item_window
            else:
                group_by.append(_parse_column(cursor))
            if not cursor.match_symbol(","):
                break

    having = None
    if cursor.match_keyword("HAVING"):
        having = _parse_expr(cursor)

    emit = None
    if cursor.match_keyword("EMIT"):
        if cursor.match_keyword("CHANGES"):
            emit = EmitMode.CHANGES
        else:
            token = cursor.expect_ident()
            if token.text.upper() != "FINAL":
                raise ParseError(
                    f"expected CHANGES or FINAL after EMIT, got "
                    f"{token.text!r}", token.position)
            emit = EmitMode.FINAL
    if emit is None:
        emit = EmitMode.FINAL if window is not None else EmitMode.CHANGES

    if emit is EmitMode.FINAL and window is None:
        raise ParseError(
            "EMIT FINAL requires a window in GROUP BY (unwindowed results "
            "never become final)")

    return SQLStatement(
        items=tuple(items), source=source, alias=alias, where=where,
        group_by=tuple(group_by), window=window, having=having, emit=emit)


def _try_parse_group_window(cursor: TokenCursor) -> GroupWindow | None:
    token = cursor.peek()
    if not token.is_keyword("TUMBLE", "HOP", "SESSION"):
        return None
    cursor.advance()
    cursor.expect_symbol("(")
    size = _parse_duration(cursor)
    slide = None
    if token.text == "HOP":
        cursor.expect_symbol(",")
        slide = _parse_duration(cursor)
    cursor.expect_symbol(")")
    kind = GroupWindowKind[token.text]
    return GroupWindow(kind, size, slide)
