"""The unified rule-based rewriter (paper Sections 3.2 / 4.2).

One optimizer for every frontend: CQL, streaming SQL, RSP-QL and the
dataflow builder all lower into :mod:`repro.plan.ir` and run the same
fixpoint rewriter.  The rule catalog implements the static optimisations
from Hirzel et al. that apply at the logical-plan level:

* **operator reordering** — predicate pushdown moves selective filters
  below joins (:func:`push_filter_through_join`) and below time-based
  windows (:func:`push_filter_through_window`), where they shrink both
  the join state and the window buffers;
* **redundancy elimination** — trivially-true filters, filter/filter
  stacks, projection/projection stacks, identity projections and
  distinct/distinct stacks are removed or fused;
* **equi-join extraction** — equality conjuncts spanning a join's two
  sides become hash-join keys instead of post-join residual predicates
  (:func:`extract_equijoin_keys`), the rewrite that turns naive
  cross-product plans into incremental symmetric hash joins.

Window pushdown is restricted to time-based window kinds (RANGE / NOW /
UNBOUNDED): their membership depends only on element timestamps, so
filtering before or after the window commutes.  ROWS / PARTITIONED
membership depends on which *other* rows are present — pushdown through
those would change results, so the rule never fires on them.

Rules are applied to fixpoint by :func:`optimize`; each rule is
independent and individually testable.  (This module moved here from
``repro.sql.optimizer``; the compatibility shim is gone.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.plan.exprs import (
    Binary,
    BinOp,
    Column,
    Expr,
    Literal,
    TIME_BASED_KINDS,
    columns_resolvable,
    conjoin,
    equality_columns,
    split_conjuncts,
    substitute_columns,
)
from repro.plan.ir import (
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    WindowOp,
)

#: A rewrite rule: returns a new plan, or None when it does not apply here.
Rule = Callable[[LogicalOp], LogicalOp | None]


def _rewrites(node_class: type) -> Callable[[Rule], Rule]:
    """Mark a rule with the node class it can rewrite: the rewriter tries
    it only on nodes of that class."""
    def mark(rule: Rule) -> Rule:
        rule.node_class = node_class
        return rule
    return mark


@_rewrites(Filter)
def fuse_filters(node: LogicalOp) -> LogicalOp | None:
    """Filter(Filter(x, p), q) → Filter(x, p AND q) — operator fusion."""
    if isinstance(node, Filter) and isinstance(node.child, Filter):
        inner = node.child
        return Filter(inner.child,
                      Binary(BinOp.AND, inner.predicate, node.predicate))
    return None


@_rewrites(Filter)
def remove_trivial_filter(node: LogicalOp) -> LogicalOp | None:
    """Filter(x, TRUE) → x — redundancy elimination."""
    if isinstance(node, Filter) and isinstance(node.predicate, Literal) \
            and node.predicate.value is True:
        return node.child
    return None


@_rewrites(Filter)
def push_filter_through_join(node: LogicalOp) -> LogicalOp | None:
    """Distribute a filter's conjuncts over a join.

    Conjuncts resolvable against one side move below the join (operator
    reordering: selection before join); equality conjuncts spanning both
    sides become join keys; the rest stays as the join residual.
    """
    if not (isinstance(node, Filter) and isinstance(node.child, Join)):
        return None
    join = node.child
    left_schema = join.left.schema
    right_schema = join.right.schema

    left_conjuncts: list[Expr] = []
    right_conjuncts: list[Expr] = []
    left_keys = list(join.left_keys)
    right_keys = list(join.right_keys)
    residual = split_conjuncts(join.residual)
    moved = False

    for conjunct in split_conjuncts(node.predicate):
        if columns_resolvable(conjunct, left_schema):
            left_conjuncts.append(conjunct)
            moved = True
            continue
        if columns_resolvable(conjunct, right_schema):
            right_conjuncts.append(conjunct)
            moved = True
            continue
        equality = equality_columns(conjunct)
        if equality is not None:
            placed = _try_place_equality(
                equality, left_schema, right_schema, left_keys, right_keys)
            if placed:
                moved = True
                continue
        residual.append(conjunct)
        moved = True  # moving into the join residual still removes a Filter

    if not moved:
        return None
    left = join.left if not left_conjuncts else \
        Filter(join.left, conjoin(left_conjuncts))
    right = join.right if not right_conjuncts else \
        Filter(join.right, conjoin(right_conjuncts))
    return Join(left, right, tuple(left_keys), tuple(right_keys),
                conjoin(residual))


def _try_place_equality(equality: tuple[str, str], left_schema,
                        right_schema, left_keys: list[str],
                        right_keys: list[str]) -> bool:
    a, b = equality
    if a in left_schema and b in right_schema:
        left_keys.append(a)
        right_keys.append(b)
        return True
    if b in left_schema and a in right_schema:
        left_keys.append(b)
        right_keys.append(a)
        return True
    return False


@_rewrites(Join)
def extract_equijoin_keys(node: LogicalOp) -> LogicalOp | None:
    """Promote equality conjuncts in a join's residual to hash-join keys."""
    if not isinstance(node, Join) or node.residual is None:
        return None
    left_keys = list(node.left_keys)
    right_keys = list(node.right_keys)
    remaining: list[Expr] = []
    changed = False
    for conjunct in split_conjuncts(node.residual):
        equality = equality_columns(conjunct)
        if equality is not None and _try_place_equality(
                equality, node.left.schema, node.right.schema,
                left_keys, right_keys):
            changed = True
        else:
            remaining.append(conjunct)
    if not changed:
        return None
    return replace(node, left_keys=tuple(left_keys),
                   right_keys=tuple(right_keys),
                   residual=conjoin(remaining))


@_rewrites(Filter)
def push_filter_through_window(node: LogicalOp) -> LogicalOp | None:
    """Filter(Window(x)) → Window(Filter(x)) for time-based windows.

    Sound because time-based window membership depends only on element
    timestamps: every record the filter keeps enters and leaves the window
    at the same instants either way.  The payoff is physical — the window
    buffer (and everything downstream) never stores rejected tuples.

    The executor and the reference evaluator both treat a filter below a
    window as a *pre-filter on arrivals* that still marks the source
    active at the arrival instant, so the maintained relation keeps the
    exact change-point structure of the un-pushed plan.
    """
    if not (isinstance(node, Filter) and isinstance(node.child, WindowOp)):
        return None
    window = node.child
    if window.spec.kind not in TIME_BASED_KINDS:
        return None
    return WindowOp(Filter(window.child, node.predicate), window.spec)


@_rewrites(Project)
def compose_projects(node: LogicalOp) -> LogicalOp | None:
    """Project(Project(x)) → Project(x) — projection pruning.

    The outer projection's column references name the inner projection's
    outputs; substituting the inner expressions in fuses the two into one
    projection and drops every inner column the outer one never uses.
    """
    if not (isinstance(node, Project) and isinstance(node.child, Project)):
        return None
    inner = node.child
    bindings = dict(zip(inner.names, inner.exprs))
    fused = tuple(substitute_columns(e, bindings) for e in node.exprs)
    return Project(inner.child, fused, node.names)


@_rewrites(Project)
def remove_identity_project(node: LogicalOp) -> LogicalOp | None:
    """Project(x, [c1..cn] AS [c1..cn]) → x when it matches x's schema."""
    if not isinstance(node, Project):
        return None
    child_fields = node.child.schema.fields
    if node.names != tuple(child_fields):
        return None
    for expr, name in zip(node.exprs, node.names):
        if not (isinstance(expr, Column) and expr.name == name):
            return None
    return node.child


@_rewrites(Distinct)
def collapse_distinct(node: LogicalOp) -> LogicalOp | None:
    """Distinct(Distinct(x)) → Distinct(x) — idempotence."""
    if isinstance(node, Distinct) and isinstance(node.child, Distinct):
        return node.child
    return None


#: The default rule set, in application order.
DEFAULT_RULES: tuple[Rule, ...] = (
    remove_trivial_filter,
    fuse_filters,
    push_filter_through_join,
    extract_equijoin_keys,
    push_filter_through_window,
    compose_projects,
    remove_identity_project,
    collapse_distinct,
)


def optimize(plan: LogicalOp,
             rules: Sequence[Rule] = DEFAULT_RULES,
             max_passes: int = 20) -> LogicalOp:
    """Apply ``rules`` top-down to fixpoint.

    Each pass rewrites every node where some rule applies; passes repeat
    until no rule fires (bounded by ``max_passes`` as a safety net).  At
    each node the rules are tried in order, each only if the node — as
    the rules before it left it — is of the class the rule rewrites.
    """
    table = tuple((rule.node_class, rule) for rule in rules)
    for _ in range(max_passes):
        rewritten, changed = _rewrite_once(plan, table)
        if not changed:
            return rewritten
        plan = rewritten
    return plan


def _rewrite_once(node: LogicalOp,
                  table: Sequence[tuple[type, Rule]],
                  ) -> tuple[LogicalOp, bool]:
    changed = False
    for node_class, rule in table:
        if isinstance(node, node_class):
            result = rule(node)
            if result is not None:
                node = result
                changed = True
    children = node.children
    if not children:
        return node, changed
    new_children = []
    replaced = False
    for child in children:
        new_child, child_changed = _rewrite_once(child, table)
        new_children.append(new_child)
        changed = changed or child_changed
        replaced = replaced or new_child is not child
    if replaced:
        node = node.with_children(new_children)
    return node, changed
