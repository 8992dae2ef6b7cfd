"""CQL — the continuous query language of Arasu et al. (paper Section 3.1).

A complete implementation of the CQL stack: lexer/parser for the dialect of
Listing 1, a logical algebra with the S2R/R2R/R2S trichotomy, a naive
planner, and two execution paths — the reference denotational evaluator
(:func:`~repro.cql.reference.reference_evaluate`) and the incremental
delta-based executor (:class:`~repro.cql.executor.ContinuousQuery`).
"""

from repro.plan.ir import (
    Aggregate,
    AggregateExpr,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    RelationScan,
    RelToStream,
    SetOp,
    StreamScan,
    WindowOp,
    scans_of,
    walk,
)
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
    conjoin,
    contains_aggregate,
    split_conjuncts,
)
from repro.cql.catalog import Catalog, RelationDef, StreamDef
from repro.cql.engine import CQLEngine
from repro.cql.executor import (
    Agenda,
    ContinuousQuery,
    Delta,
    Emission,
    SharedGroup,
    compile_plan,
)
from repro.cql.expressions import (
    compile_expr,
    compile_predicate,
    equality_columns,
)
from repro.cql.lexer import Token, TokenCursor, TokenType, tokenize
from repro.cql.parser import parse_query
from repro.cql.planner import plan_statement, window_object
from repro.cql.reference import reference_evaluate

__all__ = [
    # language
    "parse_query", "tokenize", "Token", "TokenType", "TokenCursor",
    "SelectStatement", "SetStatement", "SelectItem", "FromSource", "WindowSpec",
    "WindowSpecKind", "Expr", "Column", "Literal", "Star", "Binary",
    "BinOp", "Unary", "FuncCall", "split_conjuncts", "conjoin",
    "contains_aggregate",
    # algebra
    "LogicalOp", "StreamScan", "RelationScan", "WindowOp", "Filter",
    "Project", "Join", "Aggregate", "AggregateExpr", "Distinct", "SetOp",
    "RelToStream", "walk", "scans_of",
    # planning & expressions
    "plan_statement", "window_object", "compile_expr", "compile_predicate",
    "equality_columns",
    # catalog
    "Catalog", "StreamDef", "RelationDef",
    # execution
    "CQLEngine", "ContinuousQuery", "SharedGroup", "Emission", "Delta",
    "Agenda",
    "compile_plan", "reference_evaluate",
]
