"""EXPLAIN-style text renderers for logical plans.

* :func:`explain_logical` — the IR tree, one node per line, annotated
  with the incremental strategy chosen for each stateful operator by
  :mod:`repro.plan.monotone`;
* :func:`explain_analyzed` — the IR tree again, but with live execution
  statistics (tuple counts, selectivity, busy-time share, state size)
  appended per node; the renderer half of
  :func:`repro.obs.explain_analyze`.

:func:`explain` renders a logical plan and rejects anything else.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.plan.ir import LogicalOp
from repro.plan.monotone import strategy_notes
from repro.plan.signature import plan_signature


def explain(plan: Any) -> str:
    """Render a logical IR tree as text."""
    if isinstance(plan, LogicalOp):
        return explain_logical(plan)
    raise TypeError(f"cannot explain {type(plan).__name__}")


def explain_logical(plan: LogicalOp) -> str:
    """The IR tree with per-operator incremental-strategy annotations."""
    strategies = {id(node): strategy
                  for node, strategy in strategy_notes(plan)}
    lines: list[str] = []
    _render(plan, 0, strategies, lines)
    lines.append(f"signature: {plan_signature(plan)}")
    return "\n".join(lines)


def _render(node: LogicalOp, indent: int, strategies: dict[int, Any],
            lines: list[str]) -> None:
    suffix = ""
    strategy = strategies.get(id(node))
    if strategy is not None:
        suffix = f"  [{strategy.value}]"
    lines.append(f"{'  ' * indent}{node.describe()}{suffix}")
    for child in node.children:
        _render(child, indent + 1, strategies, lines)


def explain_analyzed(plan: LogicalOp,
                     stats: Mapping[int, Mapping[str, Any]]) -> str:
    """The IR tree annotated with live per-node execution statistics.

    ``stats`` maps ``id(logical node)`` to a dict with any of ``rows_in``,
    ``rows_out``, ``selectivity``, ``busy_share``, ``state_entries``,
    ``state_bytes``, ``checkpoint_bytes`` (what the last checkpoint
    copied); nodes without an entry render bare.  Several logical
    nodes may share one physical operator (memo sharing, windows that
    swallowed pushed-down filters) — they then show the same numbers,
    which is the truth of the execution.
    """
    lines: list[str] = []
    _render_analyzed(plan, 0, stats, lines)
    lines.append(f"signature: {plan_signature(plan)}")
    return "\n".join(lines)


def _format_node_stats(entry: Mapping[str, Any]) -> str:
    parts: list[str] = []
    rows_in = entry.get("rows_in")
    rows_out = entry.get("rows_out")
    if rows_in is not None or rows_out is not None:
        fmt = lambda v: "-" if v is None else str(v)  # noqa: E731
        parts.append(f"rows={fmt(rows_in)}->{fmt(rows_out)}")
    selectivity = entry.get("selectivity")
    if selectivity is not None:
        parts.append(f"sel={selectivity:.3f}")
    busy_share = entry.get("busy_share")
    if busy_share is not None:
        parts.append(f"busy={busy_share * 100:.1f}%")
    state_entries = entry.get("state_entries")
    if state_entries is not None:
        state = f"state={state_entries}"
        state_bytes = entry.get("state_bytes")
        if state_bytes is not None:
            state += f" (~{state_bytes}B)"
        parts.append(state)
    checkpoint_bytes = entry.get("checkpoint_bytes")
    if checkpoint_bytes is not None:
        parts.append(f"ckpt={checkpoint_bytes}B")
    return "  [" + " ".join(parts) + "]" if parts else ""


def _render_analyzed(node: LogicalOp, indent: int,
                     stats: Mapping[int, Mapping[str, Any]],
                     lines: list[str]) -> None:
    entry = stats.get(id(node))
    suffix = _format_node_stats(entry) if entry is not None else ""
    lines.append(f"{'  ' * indent}{node.describe()}{suffix}")
    for child in node.children:
        _render_analyzed(child, indent + 1, stats, lines)
