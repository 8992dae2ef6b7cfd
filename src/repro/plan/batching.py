"""Batch-safety analysis: which plans may the DSMS service one instant
per quantum?

An instant quantum collapses all of one instant's arrivals into a single
incremental evaluation instead of one evaluation per tuple.  The
maintained *state per instant* is identical either way (the executor
nets deltas within an instant — snapshot-reducibility), so the question
the planner must answer is narrower: is the **emitted stream** also
identical, arrival for arrival?

Per-arrival evaluation exposes *intra-instant intermediates* that one
batched evaluation nets away.  The pass walks the logical IR and
collects every operator whose semantics depend on them:

* **aggregates** — per-arrival evaluation emits each intermediate
  aggregate row (count 3, then 4, then 5); one batched evaluation emits
  only the final one.
* **ROWS / partitioned-ROWS windows** — capacity eviction can occur
  *within* an instant: with ``[Rows 1]`` and two same-instant arrivals,
  per-arrival ISTREAM emits both rows, batched emits only the survivor.
* **evicting time windows (RANGE / NOW)** — expiry deltas land *on*
  arrival instants: per-arrival evaluation nets the expirations against
  only the first arrival's insert, one batched evaluation nets them
  against the whole batch, so the instant's ISTREAM/DSTREAM split
  differs.  ``[Range Unbounded]`` never evicts and stays safe.
* **joins** — the per-arrival join-delta order (each arrival probes the
  opposite window as-of its own push) is collapsed into one bilinear
  delta; the match multiset agrees but the emission order does not.
* **difference / intersection** — non-monotonic: a same-instant arrival
  on the other side can cancel an emission the per-arrival path made.
* **RSTREAM** — samples the whole state once per *evaluation*, so k
  per-arrival evaluations emit k snapshots where the batch emits one.
* **opaque frontend nodes** — semantics unknown, assume unsafe.

Filters, projections, DISTINCT and UNION are per-record or idempotent
and commute with intra-instant netting; unbounded windows never evict.

Plans with *relation* outputs (no R2S root) are always batch-safe: the
change-log keeps one state per instant whichever way the instant's
arrivals were split (a fold at the instant the log ends at replaces its
tail), so the engine's default services them one whole instant per
quantum.

A failed proof is a fallback, not an error: :func:`decide_batch_size`
clamps the requested batch size back to 1 (per-element execution), the
same shape as :func:`repro.plan.parallel.decide_parallelism`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.exprs import WindowSpecKind
from repro.plan.ir import (
    Aggregate,
    Join,
    LogicalOp,
    OpaqueOp,
    OpaqueSource,
    RelToStream,
    SetOp,
    WindowAggregate,
    WindowOp,
    walk,
)

__all__ = ["BatchReport", "batch_safety", "decide_batch_size"]

#: Window kinds whose eviction is driven by arrival count, not time —
#: eviction can happen mid-instant, so batching changes the emitted rows.
_ROW_BASED = (WindowSpecKind.ROWS, WindowSpecKind.PARTITIONED)
#: Root operators that make a plan's output a stream, not a relation.
_R2S_OPS = ("istream", "dstream", "rstream")


@dataclass(frozen=True)
class BatchReport:
    """The batching pass's verdict on one logical plan.

    ``safe`` means one batched evaluation per instant emits exactly what
    per-arrival evaluation emits; ``blockers`` name the operators that
    break that (operator description, reason) — the fallback matrix the
    docs render.  An unsafe plan still runs batched *state*-exactly;
    callers that promise emission exactness must fall back per-element.
    """

    safe: bool
    blockers: tuple[tuple[str, str], ...]

    def describe(self) -> str:
        if self.safe:
            return "batch-safe: emissions are per-arrival exact"
        lines = [f"{where}: {why}" for where, why in self.blockers]
        return "per-element fallback — " + "; ".join(lines)


def batch_safety(plan: LogicalOp) -> BatchReport:
    """Prove (or refuse) emission-exact instant quanta for ``plan``."""
    if plan.op_name not in _R2S_OPS:
        # Relation output: the answer is state-per-instant, which nets
        # identically under batching regardless of the operators inside.
        return BatchReport(safe=True, blockers=())
    blockers: list[tuple[str, str]] = []
    for node in walk(plan):
        blocker = _node_blocker(node)
        if blocker is not None:
            blockers.append(blocker)
    return BatchReport(safe=not blockers, blockers=tuple(blockers))


def decide_batch_size(plan: LogicalOp, requested: int | None) -> int | None:
    """Clamp a batch-size request to what the plan's emissions allow.

    ``None`` asks for the whole head instant per quantum: relation-output
    plans keep it (one evaluation per instant), stream-output plans get
    1, so their emission lists never depend on batch-safety proofs.  For
    an integer, emission-unsafe plans get 1 (per-element) and anything
    else keeps the request.  Callers comparing only maintained state (the
    Store, the change-log) may opt past this with an explicit per-query
    override.
    """
    if requested is None:
        return None if plan.op_name not in _R2S_OPS else 1
    if requested <= 1:
        return 1
    if not batch_safety(plan).safe:
        return 1
    return requested


def _node_blocker(node: LogicalOp) -> tuple[str, str] | None:
    if isinstance(node, (Aggregate, WindowAggregate)):
        return (node.op_name,
                "per-arrival evaluation emits intermediate aggregate rows "
                "that one batched fold nets away")
    if isinstance(node, WindowOp) and node.spec.kind in _ROW_BASED:
        return (f"[{node.spec.kind.name.lower()}] window",
                "capacity eviction can occur within an instant, so "
                "batched netting hides rows per-arrival emission shows")
    if isinstance(node, WindowOp) \
            and node.spec.kind is not WindowSpecKind.UNBOUNDED:
        return (f"[{node.spec.kind.name.lower()}] window",
                "expiry deltas land on arrival instants; per-arrival "
                "evaluation nets them against the first arrival only, "
                "one batched evaluation nets them against the batch")
    if isinstance(node, Join):
        return ("join",
                "per-arrival probes fix a match order that one bilinear "
                "batch delta does not reproduce")
    if isinstance(node, SetOp) and node.kind != "union":
        return (node.kind,
                "non-monotonic set operation: a same-instant arrival on "
                "the other side cancels per-arrival emissions")
    if isinstance(node, (OpaqueOp, OpaqueSource)):
        return (node.op_name, "opaque frontend operator: batch semantics "
                              "unknown, assume per-arrival sensitive")
    if isinstance(node, RelToStream) and node.op_name == "rstream":
        return ("RSTREAM",
                "samples the whole state once per evaluation; k "
                "per-arrival evaluations emit k snapshots")
    return None
