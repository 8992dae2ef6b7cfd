"""Scalar expressions and window specifications of the unified plan IR.

This is the expression layer every frontend shares: the CQL parser, the
streaming-SQL dialect and the rewrite rules all build and inspect these
nodes.  It moved here from ``repro.cql.ast`` when the planning layer was
unified (``repro.cql.ast`` re-exports everything for compatibility) so
that :mod:`repro.plan` depends only on :mod:`repro.core` and every
frontend can depend on :mod:`repro.plan` without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.time import Timestamp
from repro.core.windows import SessionWindow, SlidingWindow, TumblingWindow

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for scalar expressions."""

    def columns(self) -> list["Column"]:
        """All column references in this expression (pre-order)."""
        return []


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True)
class Column(Expr):
    """A column reference, possibly qualified (``P.id``)."""

    name: str

    def columns(self) -> list["Column"]:
        return [self]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list or inside COUNT(*)."""

    def __str__(self) -> str:
        return "*"


class BinOp(enum.Enum):
    """Binary operators, grouped by family."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"

    @property
    def is_comparison(self) -> bool:
        return self in (BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE,
                        BinOp.GT, BinOp.GE)

    @property
    def is_boolean(self) -> bool:
        return self in (BinOp.AND, BinOp.OR)


@dataclass(frozen=True)
class Binary(Expr):
    """A binary expression ``left op right``."""

    op: BinOp
    left: Expr
    right: Expr

    def columns(self) -> list[Column]:
        return self.left.columns() + self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Unary(Expr):
    """``NOT expr`` or ``-expr``."""

    op: str  # "NOT" | "-"
    operand: Expr

    def columns(self) -> list[Column]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"{self.op} {self.operand}"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call — aggregates (COUNT/SUM/AVG/MIN/MAX) or scalars."""

    name: str  # upper-cased
    args: tuple[Expr, ...]

    AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES

    def columns(self) -> list[Column]:
        out: list[Column] = []
        for arg in self.args:
            out.extend(arg.columns())
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def contains_aggregate(expr: Expr) -> bool:
    """True when the expression tree contains any aggregate call."""
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, Binary):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, Unary):
        return contains_aggregate(expr.operand)
    return False


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op is BinOp.AND:
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild a predicate from conjuncts (inverse of split_conjuncts)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else \
            Binary(BinOp.AND, result, conjunct)
    return result


def substitute_columns(expr: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace column references by the expressions they name.

    The workhorse of projection composition: the outer projection's
    expressions reference the inner projection's output names; substituting
    the inner expressions in yields one fused projection.
    """
    if isinstance(expr, Column):
        return bindings.get(expr.name, expr)
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute_columns(expr.left, bindings),
                      substitute_columns(expr.right, bindings))
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute_columns(expr.operand, bindings))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(substitute_columns(a, bindings)
                                         for a in expr.args))
    return expr


def equality_columns(expr: Expr) -> tuple[str, str] | None:
    """Recognise ``col = col`` conjuncts (the equi-join pattern)."""
    if isinstance(expr, Binary) and expr.op is BinOp.EQ \
            and isinstance(expr.left, Column) \
            and isinstance(expr.right, Column):
        return (expr.left.name, expr.right.name)
    return None


def columns_resolvable(expr: Expr, schema) -> bool:
    """True when every column in ``expr`` resolves against ``schema``."""
    return all(c.name in schema for c in expr.columns())


# ---------------------------------------------------------------------------
# Window specifications (CQL-style FROM-clause windows)
# ---------------------------------------------------------------------------


class WindowSpecKind(enum.Enum):
    """CQL's S2R window families."""

    RANGE = "range"            # [Range r] with optional Slide
    NOW = "now"                # [Now]
    UNBOUNDED = "unbounded"    # [Range Unbounded]
    ROWS = "rows"              # [Rows n]
    PARTITIONED = "partition"  # [Partition By cols Rows n]


@dataclass(frozen=True)
class WindowSpec:
    """A parsed window specification attached to a FROM source."""

    kind: WindowSpecKind
    range_: Timestamp | None = None
    slide: Timestamp | None = None
    rows: int | None = None
    partition_by: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind is WindowSpecKind.NOW:
            return "[Now]"
        if self.kind is WindowSpecKind.UNBOUNDED:
            return "[Range Unbounded]"
        if self.kind is WindowSpecKind.ROWS:
            return f"[Rows {self.rows}]"
        if self.kind is WindowSpecKind.PARTITIONED:
            return (f"[Partition By {', '.join(self.partition_by)} "
                    f"Rows {self.rows}]")
        if self.slide:
            return f"[Range {self.range_} Slide {self.slide}]"
        return f"[Range {self.range_}]"


UNBOUNDED_SPEC = WindowSpec(kind=WindowSpecKind.UNBOUNDED)
NOW_SPEC = WindowSpec(kind=WindowSpecKind.NOW)

#: Window families whose membership depends only on element timestamps —
#: filtering before or after such a window is equivalent, so predicate
#: pushdown through them is sound.  ROWS/PARTITIONED membership depends on
#: which *other* rows are present, so pushdown through those is not.
TIME_BASED_KINDS = frozenset({
    WindowSpecKind.RANGE, WindowSpecKind.NOW, WindowSpecKind.UNBOUNDED,
})


# ---------------------------------------------------------------------------
# Group windows (streaming-SQL GROUP BY windows)
# ---------------------------------------------------------------------------


class EmitMode(enum.Enum):
    """When results become visible."""

    CHANGES = "changes"   # every refinement, as soon as it happens
    FINAL = "final"       # once per window, when the watermark closes it


class GroupWindowKind(enum.Enum):
    """Window functions usable in GROUP BY."""

    TUMBLE = "tumble"
    HOP = "hop"
    SESSION = "session"


@dataclass(frozen=True)
class GroupWindow:
    """A parsed windowing group item: ``TUMBLE(10)`` / ``HOP(10, 5)`` /
    ``SESSION(30)``."""

    kind: GroupWindowKind
    size: Timestamp            # tumble size, hop size, or session gap
    slide: Timestamp | None = None  # hop only

    def __str__(self) -> str:
        if self.kind is GroupWindowKind.HOP:
            return f"HOP({self.size}, {self.slide})"
        return f"{self.kind.name}({self.size})"

    def assigner(self) -> SessionWindow | SlidingWindow | TumblingWindow:
        """The window's assigner, the one the DSL windows by."""
        if self.kind is GroupWindowKind.SESSION:
            return SessionWindow(self.size)
        if self.kind is GroupWindowKind.HOP:
            return SlidingWindow(self.size, self.slide)
        return TumblingWindow(self.size)
