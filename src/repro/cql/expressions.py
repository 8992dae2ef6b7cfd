"""Expression compilation: AST expressions → record-level closures.

Column references are resolved to positional indexes against the operator's
input schema *at plan time*, so per-record evaluation is a tuple index, not
a name lookup.  NULL (None) propagates through arithmetic and comparisons
the SQL way: any operation on NULL yields NULL, and a NULL predicate result
is treated as false.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.core.errors import PlanError
from repro.core.records import Record, Schema
from repro.plan.exprs import (
    Binary,
    BinOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Star,
    Unary,
)
from repro.plan.exprs import (  # noqa: F401  (compatibility re-exports)
    columns_resolvable,
    equality_columns,
)

#: A compiled scalar expression.
Evaluator = Callable[[Record], Any]

_ARITHMETIC = {
    BinOp.ADD: operator.add,
    BinOp.SUB: operator.sub,
    BinOp.MUL: operator.mul,
    BinOp.MOD: operator.mod,
}

_COMPARISONS = {
    BinOp.EQ: operator.eq,
    BinOp.NE: operator.ne,
    BinOp.LT: operator.lt,
    BinOp.LE: operator.le,
    BinOp.GT: operator.gt,
    BinOp.GE: operator.ge,
}

#: Scalar (non-aggregate) functions available in queries.
SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "ABS": abs,
    "LENGTH": len,
    "UPPER": lambda s: s.upper(),
    "LOWER": lambda s: s.lower(),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "ROUND": round,
}


def compile_expr(expr: Expr, schema: Schema) -> Evaluator:
    """Compile ``expr`` into a closure over records of ``schema``.

    Raises:
        PlanError: on unknown columns, aggregate calls (those must have been
            rewritten away by the planner) or unknown functions.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda record: value
    if isinstance(expr, Column):
        index = schema.index_of(expr.name)
        return lambda record: record._values[index]
    if isinstance(expr, Star):
        raise PlanError("* is only valid inside COUNT(*) or SELECT *")
    if isinstance(expr, Unary):
        inner = compile_expr(expr.operand, schema)
        if expr.op == "NOT":
            return lambda record: _sql_not(inner(record))
        return lambda record: _null_safe_neg(inner(record))
    if isinstance(expr, Binary):
        return _compile_binary(expr, schema)
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            raise PlanError(
                f"aggregate {expr.name} cannot appear here; aggregates are "
                f"evaluated by the Aggregate operator")
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise PlanError(f"unknown function {expr.name}")
        arg_evals = [compile_expr(a, schema) for a in expr.args]
        return lambda record: _null_safe_call(
            fn, [e(record) for e in arg_evals])
    raise PlanError(f"cannot compile expression {expr!r}")


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[Record], bool]:
    """Compile a boolean expression; NULL results count as false."""
    simple = _column_vs_literal(expr, schema)
    if simple is not None:
        # One call per row: a NULL column is false, as is a NULL result.
        index, fn, value = simple
        return lambda record: ((v := record._values[index]) is not None
                               and fn(v, value) is True)
    evaluator = compile_expr(expr, schema)
    return lambda record: evaluator(record) is True


def _column_vs_literal(expr: Expr, schema: Schema) \
        -> tuple[int, Callable[[Any, Any], Any], Any] | None:
    """``(column index, comparison, literal)`` when ``expr`` is
    ``column <op> literal`` with a non-NULL literal, else None."""
    if not isinstance(expr, Binary) or expr.op not in _COMPARISONS \
            or not isinstance(expr.left, Column) \
            or not isinstance(expr.right, Literal) \
            or expr.right.value is None:
        return None
    return (schema.index_of(expr.left.name), _COMPARISONS[expr.op],
            expr.right.value)


def _compile_binary(expr: Binary, schema: Schema) -> Evaluator:
    simple = _column_vs_literal(expr, schema)
    if simple is not None:
        index, fn, value = simple
        return lambda record: (None if (v := record._values[index]) is None
                               else fn(v, value))
    left = compile_expr(expr.left, schema)
    right = compile_expr(expr.right, schema)
    if expr.op is BinOp.AND:
        return lambda record: _sql_and(left(record), right(record))
    if expr.op is BinOp.OR:
        return lambda record: _sql_or(left(record), right(record))
    if expr.op in _COMPARISONS:
        fn = _COMPARISONS[expr.op]
        return lambda record: _null_safe_binary(
            fn, left(record), right(record))
    if expr.op is BinOp.DIV:
        return lambda record: _sql_div(left(record), right(record))
    fn = _ARITHMETIC[expr.op]
    return lambda record: _null_safe_binary(fn, left(record), right(record))


def _null_safe_binary(fn: Callable[[Any, Any], Any], a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    return fn(a, b)


def _sql_div(a: Any, b: Any) -> Any:
    if a is None or b is None or b == 0:
        return None
    return a / b


def _null_safe_neg(a: Any) -> Any:
    return None if a is None else -a


def _null_safe_call(fn: Callable[..., Any], args: list[Any]) -> Any:
    # COALESCE is the one function defined on NULLs.
    if fn is SCALAR_FUNCTIONS["COALESCE"]:
        return fn(*args)
    if any(a is None for a in args):
        return None
    return fn(*args)


def _sql_not(value: Any) -> Any:
    if value is None:
        return None
    return not value


def _sql_and(a: Any, b: Any) -> Any:
    # Three-valued logic: FALSE dominates, then NULL.
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _sql_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)
