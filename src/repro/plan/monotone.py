"""Monotonicity-aware planning (paper Section 3.2, Barbarà's rewriting).

The classifier in :mod:`repro.core.monotonicity` works over any tree
exposing ``op_name``/``children`` — the unified IR satisfies that
protocol directly.  This pass turns its verdicts into *physical strategy
decisions*: a stateful operator whose inputs are provably append-only
(monotonic sub-plans — e.g. fed by unbounded windows) never sees a
retraction, so the executor can maintain plain insert-only indexes
instead of multiplicity counters.  That is the incremental SPJ rewrite
applied where — and only where — it is legal.
"""

from __future__ import annotations

import enum

from repro.core.monotonicity import MonotonicityClass, classify_plan
from repro.plan.ir import LogicalOp, RelationScan, walk


class IncrementalStrategy(enum.Enum):
    """How a stateful operator should maintain its state."""

    #: Inputs are append-only: insert-only indexes, no retraction handling.
    APPEND_ONLY = "append-only"
    #: Inputs may retract (expiring windows, difference...): keep
    #: multiplicity-counted state and process signed deltas.
    RETRACTING = "retracting"


def incremental_strategy(plan: LogicalOp) -> IncrementalStrategy:
    """The strategy legal for an operator consuming ``plan``'s output."""
    if classify_plan(plan) is MonotonicityClass.MONOTONIC:
        return IncrementalStrategy.APPEND_ONLY
    return IncrementalStrategy.RETRACTING


def append_only_inputs(node: LogicalOp) -> bool:
    """True when every input of ``node`` is a monotonic (append-only)
    sub-plan — the legality condition for the append-only fast paths.
    A relation scan is not: the classifier calls it monotonic, but base
    relations take deletes (``ContinuousQuery.update_relation``)."""
    return bool(node.children) and all(
        classify_plan(child) is MonotonicityClass.MONOTONIC
        and not any(isinstance(n, RelationScan) for n in walk(child))
        for child in node.children)


#: Stateful operators that have an append-only fast path in the executor.
_FAST_PATH_OPS = frozenset({"equijoin", "cross", "distinct"})


def strategy_notes(plan: LogicalOp) -> list[tuple[LogicalOp, IncrementalStrategy]]:
    """Per-node strategy decisions for the stateful operators in ``plan``.

    Used by :mod:`repro.plan.explain` to render which operators run
    append-only; the executor compiles each through the same
    :func:`append_only_inputs`.
    """
    notes = []
    for node in walk(plan):
        if node.op_name in _FAST_PATH_OPS:
            strategy = (IncrementalStrategy.APPEND_ONLY
                        if append_only_inputs(node)
                        else IncrementalStrategy.RETRACTING)
            notes.append((node, strategy))
    return notes
