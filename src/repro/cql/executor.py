"""Incremental (delta-based) execution of continuous query plans.

This is the *physical* layer corresponding to the paper's Section 3.2: the
query is compiled once into a tree of incremental operators and then runs
until cancelled, processing only changes.  All operators exchange **deltas**
``(values, ±multiplicity)``: a row is its values tuple, laid out by the
edge's schema, fixed at compile time, and becomes a Record only where a
caller reads it.  Window operators turn arrivals into ``+1`` deltas and
expirations into ``-1`` deltas (driven by an event-time agenda),
joins apply the bilinear delta rule, aggregates retract and re-emit changed
group rows, and the R2S operators at the root reduce to selecting the
``+``/``-`` sides of the root delta stream (ISTREAM/DSTREAM) or snapshotting
maintained state (RSTREAM).

The same R2R operators maintain dynamic tables (:mod:`repro.views`, the
paper's §5.1): a view is a relation-only plan whose refresh is one instant,
so incremental view maintenance and CQL share one delta algebra.  Every
stateful operator refuses, from the call that makes it, a retraction of
a row or value it does not hold.

Correctness contract: when all arrivals carrying one timestamp are pushed
together (which :meth:`ContinuousQuery.run_recorded` guarantees), the
maintained state at every instant equals the reference denotational
evaluation (:mod:`repro.cql.reference`), and the ISTREAM/DSTREAM outputs
equal the reference R2S streams.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict, deque
from itertools import groupby, repeat
from operator import itemgetter
from sys import getsizeof
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.obs import get_registry as _obs_registry
# Hot-path gate: reading the state attribute directly (instead of calling
# is_enabled()) keeps the per-operator disabled cost to one attribute load.
from repro.obs import _STATE as _obs_state

from repro.core.errors import PlanError, StateError, TimeError
from repro.core.operators import R2SKind
from repro.core.records import Record, Schema, trusted_record
from repro.core.relation import Bag, Changelog, TimeVaryingRelation, labelled
from repro.core.stream import Stream
from repro.core.time import MIN_TIMESTAMP, Timestamp
from repro.core.windows import Window, WindowAssigner, merge_sessions
from repro.plan.exprs import Column, EmitMode, Expr, substitute_columns
from repro.plan.ir import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    LogicalOp,
    Project,
    RelationScan,
    RelToStream,
    SetOp,
    StreamScan,
    WindowAggregate,
    WindowOp,
)
from repro.cql.ast import WindowSpecKind
from repro.cql.catalog import Catalog
from repro.cql.kernels import (
    Kernel,
    Kernels,
    aggregate_kernel,
    join_kernel,
    prefilter_kernel,
    spine_kernel,
)
from repro.cql.state import KeyedState, copy_sized
from repro.plan.monotone import append_only_inputs
from repro.plan.sharing import SubplanMemo, memo_key

#: A signed row change flowing between physical operators: a bare
#: ``(values, multiplicity)`` pair, built and read by position.  The values
#: tuple hashes in C, and a batch of pairs folds into a ``dict`` in one
#: call (see :meth:`SharedGroup._process_instant`).
Delta = tuple[tuple, int]

#: The multiplicity columns ``zip(rows, ...)`` pairs a batch of rows
#: with, building its deltas in C.  An endless ``repeat`` keeps no
#: position, so every zip may share one.
_INSERTED = repeat(1)
_RETRACTED = repeat(-1)


def _values_at(indexes: Sequence[int]) -> Callable[[tuple], tuple]:
    """The tuple of a row's values at ``indexes``, from its values tuple:
    a partitioned window's key."""
    if len(indexes) == 1:
        index = indexes[0]
        return lambda values: (values[index],)
    if indexes:
        return itemgetter(*indexes)
    return lambda values: ()


class Agenda:
    """The executor's event-time agenda: future instants needing work.

    Window operators register expiry/boundary instants here; the driver
    processes them in order so that evictions happen even when no new
    element arrives (the classic DSMS "heartbeat" problem).
    """

    def __init__(self) -> None:
        self._heap: list[Timestamp] = []
        self._scheduled: set[Timestamp] = set()

    def schedule(self, t: Timestamp) -> None:
        if t not in self._scheduled:
            self._scheduled.add(t)
            heapq.heappush(self._heap, t)

    def due(self, t: Timestamp) -> list[Timestamp]:
        """Pop and return all scheduled instants ``<= t``, in order."""
        out = []
        while self._heap and self._heap[0] <= t:
            instant = heapq.heappop(self._heap)
            self._scheduled.discard(instant)
            out.append(instant)
        return out

    def drain(self) -> list[Timestamp]:
        """Pop everything (used by ``finish``)."""
        out = sorted(self._heap)
        self._heap.clear()
        self._scheduled.clear()
        return out

    def __len__(self) -> int:
        return len(self._heap)

    def snapshot(self) -> dict[str, Any]:
        """Capture the scheduled instants (for checkpointing)."""
        return {"heap": list(self._heap),
                "scheduled": set(self._scheduled)}

    def restore(self, payload: Mapping[str, Any]) -> None:
        self._heap = list(payload["heap"])
        heapq.heapify(self._heap)
        self._scheduled = set(payload["scheduled"])


class PhysicalOp:
    """Base physical operator: children + per-instant delta processing.

    An operator's one per-instant entry point is :meth:`process`.  Only
    the :class:`InstantEvaluator` calls it, and the evaluator keeps the
    operator's books (``received``, ``emitted``, ``eval_seconds``) and
    its *activity*: whether any source in the subtree was touched at the
    instant (its staging call set ``_arrived``), even if no delta survived
    the operators in between.  This mirrors the reference evaluator,
    whose time-varying relations record a change point at every
    input-relevant instant; a global aggregate reads ``_child_active`` to
    materialise its zero row at the right instant.

    State is checkpointed in place, over ``_STATE_ATTRS``:
    :meth:`barrier` keeps a recovery image beside the live state and
    moves it forward, and :meth:`rollback` returns to it.  Each is a loop
    over the operator's :class:`~repro.cql.state.KeyedState` containers,
    which checkpoint key by key, then over the rest of its state, copied
    whole.
    """

    #: Instance attributes that constitute this operator's mutable state:
    #: its keyed containers and the small rest (scalars, buffers bounded
    #: by the window spec).  Checkpoints copy exactly these, and a rescale
    #: carries them to a new tree, so compiled artefacts (predicates,
    #: schemas, the agenda reference) stay shared between the live tree
    #: and its checkpoints.
    _STATE_ATTRS: tuple[str, ...] = ()
    #: Work tallies: checkpointed beside the state, carried by a rescale.
    _TALLIES: tuple[str, ...] = ("emitted", "received")

    def __init__(self, children: Sequence["PhysicalOp"]) -> None:
        self.children = list(children)
        #: Total deltas this operator has emitted (a work measure).
        self.emitted = 0
        #: Total deltas received from children (rows-in accounting).
        self.received = 0
        #: Cumulative seconds spent in ``process`` (only accumulated while
        #: observability is enabled; see :mod:`repro.obs`).
        self.eval_seconds = 0.0
        #: Per-instant input the evaluator sets (see above), not state.
        self._child_active = False
        #: The whole-copied state and the tallies at the last barrier;
        #: None before the first.
        self._saved: dict[str, Any] | None = None
        #: Bytes the last :meth:`barrier` allocated; None before the first.
        self.barrier_bytes: int | None = None

    def _split_state(self) -> tuple[list[tuple[str, KeyedState]],
                                    list[str]]:
        """``_STATE_ATTRS`` as ``([(attr, container)], [whole attr])``."""
        keyed, whole = [], []
        for attr in self._STATE_ATTRS:
            value = getattr(self, attr)
            if value.__class__ is KeyedState:
                keyed.append((attr, value))
            else:
                whole.append(attr)
        return keyed, whole

    def barrier(self) -> dict[str, Any]:
        """Move the recovery image to the current state; return what that
        wrote.

        Each container writes the keys changed since the previous barrier
        (every key at the first, see :meth:`KeyedState.barrier`); the rest
        is copied whole, so a barrier costs what changed, however much
        state the operator holds.  :attr:`barrier_bytes` is what all those
        copies allocated (rows are shared, so they add nothing).
        """
        keyed, whole = self._split_state()
        payload: dict[str, Any] = {}
        copied = 0
        for attr, state in keyed:
            payload[attr], size = state.barrier()
            copied += size
        saved = self._saved = {}
        for attr in whole:
            value, size = copy_sized(getattr(self, attr))
            payload[attr] = saved[attr] = value
            copied += size
        for tally in self._TALLIES:
            payload[tally] = saved[tally] = getattr(self, tally)
        self.barrier_bytes = copied
        return payload

    def rollback(self) -> None:
        """Return to the recovery image in place, touching only the keys
        changed since the last barrier; repeatable."""
        saved = self._saved
        if saved is None:
            raise StateError(
                f"{type(self).__name__} has no barrier to roll back to")
        keyed, whole = self._split_state()
        for _, state in keyed:
            state.rollback()
        for attr in whole:
            setattr(self, attr, copy_sized(saved[attr])[0])
        for tally in self._TALLIES:
            setattr(self, tally, saved[tally])

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        """Consume one batch of child deltas at instant ``t``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sources (S2R windows over pushed arrivals)
# ---------------------------------------------------------------------------


class StreamSourceOp(PhysicalOp):
    """Windowed stream source.

    The executor stages arriving rows here; ``process`` turns them into
    ``+1`` deltas and handles window eviction (``-1`` deltas) according to
    the window specification.

    ``prefilter`` is the physical form of a filter the optimizer pushed
    below the window (``push_filter_through_window``): rejected arrivals
    are dropped before they enter the window buffer — the state saving
    the rewrite exists for — but still mark the source *active* at their
    instant, so the maintained relation keeps the same change points as
    the un-rewritten plan (the reference evaluates the pushed filter
    above the window).
    """

    _STATE_ATTRS = ("_staged", "_expiries", "_fifo", "_per_key",
                    "_pending", "_visible", "_arrived", "evicted")
    _TALLIES = (*PhysicalOp._TALLIES, "arrivals")

    def __init__(self, scan: StreamScan, spec, agenda: Agenda,
                 prefilter: Callable[[list[tuple]], list[tuple]] | None
                 = None) -> None:
        super().__init__([])
        self.scan = scan
        self.spec = spec
        self._prefilter = prefilter
        self._agenda = agenda
        self._staged: list[tuple] = []
        kind = spec.kind
        #: Plain [Range r] and [Now] windows: an arrival at ``t`` expires
        #: at ``t + _lifetime``.  None for every other window.
        self._lifetime: Timestamp | None = (
            1 if kind is WindowSpecKind.NOW
            else spec.range_ if kind is WindowSpecKind.RANGE
            and not spec.slide else None)
        # Range/Now state: expiry time -> rows.
        self._expiries = KeyedState(weigh=len)
        #: The expiry times of ``_expiries``, ascending.  An operator's
        #: instants ascend, so a new bucket's expiry is the latest: an
        #: instant appends it and pops the buckets due off the front.
        #: Derived from ``_expiries`` (:meth:`_order_expiries`).
        self._expiry_order: deque[Timestamp] = deque()
        # Rows state: FIFO of live rows.
        self._fifo: deque[tuple] = deque()
        # Partitioned rows state: partition key -> FIFO of its rows.
        self._per_key = KeyedState(weigh=len)
        if kind is WindowSpecKind.PARTITIONED:
            self._key_fn = _values_at(
                [scan.schema.index_of(c) for c in spec.partition_by])
        # Stepped-range state: (row, enter_boundary, exit_boundary).
        self._pending: list[tuple[tuple, Timestamp, Timestamp]] = []
        self._visible: list[tuple[tuple, Timestamp]] = []
        self._arrived = False
        #: Total tuples ever evicted from this window (Throw accounting).
        self.evicted = 0
        #: Raw arrivals staged here, counted *before* the prefilter, so
        #: explain_analyze can report the source's live selectivity: a
        #: tally (``_TALLIES``), not window state.
        self.arrivals = 0

    def stage_many(self, rows: list[tuple], t: Timestamp) -> None:
        """Queue an instant's validated arrivals (values tuples), in
        arrival order, for the process call at ``t``."""
        if not rows:
            return
        self._arrived = True
        self.arrivals += len(rows)
        prefilter = self._prefilter
        if prefilter is not None:
            rows = prefilter(rows)
            if not rows:
                return
        if self.spec.kind is WindowSpecKind.RANGE and self.spec.slide:
            enter = self._ceil_boundary(t)
            exit_ = self._ceil_boundary(t + self.spec.range_)
            self._pending.extend([(values, enter, exit_)
                                  for values in rows])
            self._agenda.schedule(enter)
            self._agenda.schedule(exit_)
            return
        self._staged.extend(rows)
        if self._lifetime is not None:
            self._agenda.schedule(t + self._lifetime)

    @property
    def state_size(self) -> int:
        """Tuples currently buffered by the window (Scratch accounting)."""
        return (self._expiries.tally + self._per_key.tally + len(self._fifo)
                + len(self._pending) + len(self._visible))

    def _ceil_boundary(self, t: Timestamp) -> Timestamp:
        slide = self.spec.slide
        return -((-t) // slide) * slide

    def _order_expiries(self) -> None:
        """Rebuild :attr:`_expiry_order` after something other than
        :meth:`process` wrote the buckets (a rollback, a rescale)."""
        self._expiry_order = deque(sorted(self._expiries.data))

    def rollback(self) -> None:
        """As :meth:`PhysicalOp.rollback`, then re-sort the expiry times
        of a Range or Now window: O(B log B) in its B buckets, one per
        arrival instant still inside the window."""
        super().rollback()
        self._order_expiries()

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        out: list[Delta] = []
        kind = self.spec.kind

        if kind is WindowSpecKind.RANGE and self.spec.slide:
            still_pending = []
            for row, enter, exit_ in self._pending:
                if enter <= t:
                    out.append((row, 1))
                    self._visible.append((row, exit_))
                else:
                    still_pending.append((row, enter, exit_))
            self._pending = still_pending
            still_visible = []
            for row, exit_ in self._visible:
                if exit_ <= t:
                    out.append((row, -1))
                    self.evicted += 1
                else:
                    still_visible.append((row, exit_))
            self._visible = still_visible
            return out

        staged = self._staged
        lifetime = self._lifetime
        if lifetime is not None:
            # Range / Now: buffer this instant's arrivals under their
            # expiry, then evict everything due (this instant's too).
            state = self._expiries
            expiries, order = state.data, self._expiry_order
            if staged:
                expiry = t + lifetime
                bucket = expiries.get(expiry)
                if bucket is None:
                    expiries[expiry] = list(staged)
                    order.append(expiry)
                else:
                    bucket.extend(staged)
                state.tally += len(staged)
                if state.marking:
                    state.mark((expiry,))
            if order and order[0] <= t:
                # The buckets due, oldest first: a prefix of the order.
                due = [order.popleft()]
                while order and order[0] <= t:
                    due.append(order.popleft())
                if state.marking:
                    state.mark(due)
                for expiry in due:
                    expired = expiries.pop(expiry)
                    out.extend(zip(expired, _RETRACTED))
                    self.evicted += len(expired)
                    state.tally -= len(expired)
        if not staged:
            return out

        if kind is WindowSpecKind.PARTITIONED:
            state = self._per_key
            per_key, key_fn, rows = state.data, self._key_fn, self.spec.rows
            keys = []
            for row in staged:
                out.append((row, 1))
                key = key_fn(row)
                keys.append(key)
                queue = per_key.get(key)
                if queue is None:
                    queue = per_key[key] = deque()
                queue.append(row)
                if len(queue) > rows:
                    out.append((queue.popleft(), -1))
                    self.evicted += 1
                else:
                    state.tally += 1
            if state.marking:
                state.mark(keys)
        elif kind is WindowSpecKind.ROWS:
            fifo = self._fifo
            for row in staged:
                out.append((row, 1))
                fifo.append(row)
                if len(fifo) > self.spec.rows:
                    out.append((fifo.popleft(), -1))
                    self.evicted += 1
        else:
            out.extend(zip(staged, _INSERTED))
        staged.clear()
        return out


class GroupWindowSourceOp(PhysicalOp):
    """The stream source of a streaming-SQL group window.

    With the DSL's ``assigner`` (:mod:`repro.core.windows`), an arrival
    enters as one ``+1`` of ``values + (window_start, window_end)`` per
    window, and leaves as its ``-1`` at the window's close, an instant on
    the agenda.  A session (a merging assigner) is per key, the group
    columns: an arrival no later than the key's open session's end
    extends it (:func:`~repro.core.windows.merge_sessions`), and its rows
    are retracted under the old bounds and re-inserted under the new.
    Arrivals go in before closes, so a row landing exactly on a
    session's end joins it.  ``prefilter`` is the WHERE clause.
    """

    _STATE_ATTRS = ("_staged", "_rows", "_spans", "_arrived", "evicted")
    _TALLIES = StreamSourceOp._TALLIES

    def __init__(self, scan: StreamScan, assigner: WindowAssigner,
                 key_columns: Sequence[str], agenda: Agenda,
                 prefilter: Callable[[list[tuple]], list[tuple]] | None,
                 ) -> None:
        super().__init__([])
        self.scan = scan
        self._assigner = assigner
        self._key_fn = _values_at(
            [scan.schema.index_of(c) for c in key_columns])
        self._agenda = agenda
        self._prefilter = prefilter
        self._staged: list[tuple] = []
        #: Open window -> its rows, and -> its ``(start, end)``: a tumble
        #: or hop window is keyed by those, a session by its group key.
        self._rows = KeyedState(weigh=len)
        self._spans = KeyedState()
        self._arrived = False
        #: Rows retracted at window closes, and arrivals before the
        #: prefilter (see StreamSourceOp).
        self.evicted = self.arrivals = 0

    def stage_many(self, rows: list[tuple], t: Timestamp) -> None:
        """Queue an instant's validated arrivals for the call at ``t``."""
        if rows:
            self._arrived = True
            self.arrivals += len(rows)
            self._staged.extend(rows if self._prefilter is None
                                else self._prefilter(rows))

    @property
    def state_size(self) -> int:
        """Rows held until their windows close."""
        return self._rows.tally

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        out: list[Delta] = []
        held, spans = self._rows.data, self._spans.data
        staged, self._staged = self._staged, []
        windows = self._assigner.assign(t) if staged else []
        if not self._assigner.is_merging:
            # Tumble and hop: an instant's arrivals share their windows.
            arrivals = {(w.start, w.end): staged for w in windows}
        else:
            arrivals = defaultdict(list)
            for values in staged:
                arrivals[self._key_fn(values)].append(values)
        for state in (self._rows, self._spans):
            if state.marking:
                state.mark(arrivals)
        for key, new in arrivals.items():
            rows = held.setdefault(key, [])
            old = spans.get(key)
            span = key
            if self._assigner.is_merging:
                # An open session ends at t or later, so it merges with
                # the arrivals' proto-window into one.
                (window,) = merge_sessions(
                    windows + ([Window(*old)] if old else []))
                span = (window.start, window.end)
                if old is not None and old != span:
                    out.extend([(values + old, -1) for values in rows])
                    out.extend([(values + span, 1) for values in rows])
            spans[key] = span
            out.extend([(values + span, 1) for values in new])
            rows.extend(new)
            self._rows.tally += len(new)
            self._agenda.schedule(span[1])
        due = [key for key, (_, end) in spans.items() if end <= t]
        for state in (self._rows, self._spans):
            if state.marking:
                state.mark(due)
        for key in due:
            span, rows = spans.pop(key), held.pop(key)
            out.extend([(values + span, -1) for values in rows])
            self.evicted += len(rows)
            self._rows.tally -= len(rows)
        return out


class RelationSourceOp(PhysicalOp):
    """A base relation: emits its initial contents once, then staged updates.

    Its first instant is active even over empty contents, so a global
    aggregate above it materialises its COUNT = 0 row there.
    """

    _STATE_ATTRS = ("_initial", "_staged", "_arrived")

    def __init__(self, scan: RelationScan, initial: list[Delta]) -> None:
        super().__init__([])
        self.scan = scan
        self._initial: list[Delta] | None = initial
        self._staged: list[Delta] = []
        self._arrived = True

    def stage_updates(self, deltas: Sequence[Delta]) -> None:
        """Queue signed changes (values tuples of the relation's layout)
        for the next instant."""
        if deltas:
            self._arrived = True
            self._staged.extend(deltas)

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        staged, self._staged = self._staged, []
        if self._initial is None:
            return staged
        out, self._initial = self._initial, None
        return out + staged


# ---------------------------------------------------------------------------
# Stateless operators
# ---------------------------------------------------------------------------


class SpineOp(PhysicalOp):
    """A maximal Filter/Project chain, run as one generated comprehension
    (:func:`~repro.cql.kernels.spine_kernel`): σ and π fused, with the
    chain's predicates and outputs composed over its input layout (see
    :func:`compile_plan`)."""

    def __init__(self, child: PhysicalOp,
                 kernel: Callable[[list[Delta]], list[Delta]]) -> None:
        super().__init__([child])
        self._kernel = kernel

    def process(self, t, child_deltas):
        return self._kernel(child_deltas[0])


class PartitionUnionOp(PhysicalOp):
    """Where a fissioned query's partitions meet (see :func:`compile_plan`).

    Its children are the per-partition copies of the plan below the
    partition boundary; it hands their deltas, concatenated, to the one
    spine above.  Partitions own disjoint keys, so there is nothing to
    merge.
    """

    def process(self, t, child_deltas):
        out: list[Delta] = []
        for deltas in child_deltas:
            out.extend(deltas)
        return out


# ---------------------------------------------------------------------------
# Stateful operators
# ---------------------------------------------------------------------------


class JoinOp(PhysicalOp):
    """Symmetric incremental join with the bilinear delta rule.

    ``Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  L_new ⋈ ΔR`` — applied per batch, with
    multiplicities multiplying: the left batch probes the right index and
    lands in its own, then the right batch probes the updated left one.
    Each side's index maps a key (the plan's extracted equi-join columns,
    read by position; empty for an incremental cross join) to
    ``{values: multiplicity}``.  A joined row is the two values tuples
    concatenated, left first, and the residual predicate filters it.

    Each side runs its generated probe-and-fold loop
    (:func:`~repro.cql.kernels.join_kernel`).  ``predicates`` and
    ``outputs`` are a Filter/Project chain compiled into the join (see
    :func:`compile_plan`): its predicates are tested after the residual,
    and with ``outputs`` the join emits the chain's output tuple instead
    of the joined row.
    """

    _STATE_ATTRS = ("_left_state", "_right_state")
    #: Whether each side indexes an insert-only list of ``(values,
    #: multiplicity)`` (see :class:`AppendOnlyJoinOp`).
    _APPEND_ONLY = False

    def __init__(self, left: PhysicalOp, right: PhysicalOp,
                 probes: tuple[Callable, Callable]) -> None:
        super().__init__([left, right])
        self._probe_left, self._probe_right = probes
        #: The two sides' indexes; each one's tally is the net
        #: multiplicity it holds.
        self._left_state = KeyedState(self._weigh)
        self._right_state = KeyedState(self._weigh)

    @classmethod
    def render(cls, node: Join, predicates: Sequence[Expr] = (),
               outputs: Sequence[Expr] | None = None) \
            -> tuple[Kernel, Kernel]:
        """The left and right probes of ``node`` (see
        :func:`~repro.cql.kernels.join_kernel`), testing ``predicates``
        after the residual and emitting ``outputs`` when given."""
        if node.residual is not None:
            predicates = [node.residual, *predicates]
        width = len(node.left.schema.fields)
        left, right = [
            join_kernel(side, cls._APPEND_ONLY,
                        [child.schema.index_of(c) for c in keys],
                        predicates, outputs, node.schema, width)
            for side, child, keys in (("left", node.left, node.left_keys),
                                      ("right", node.right,
                                       node.right_keys))]
        return left, right

    @staticmethod
    def _weigh(entry: dict[tuple, int]) -> int:
        """An index entry's net multiplicity."""
        return sum(entry.values())

    def process(self, t, child_deltas):
        left_deltas, right_deltas = child_deltas
        out: list[Delta] = []
        if left_deltas:
            self._probe_left(self, left_deltas, out)
        if right_deltas:
            self._probe_right(self, right_deltas, out)
        return out

    @property
    def state_size(self) -> int:
        """Tuples (net multiplicity) indexed on both sides."""
        return self._left_state.tally + self._right_state.tally


class AppendOnlyJoinOp(JoinOp):
    """Join over provably append-only inputs — the monotone fast path.

    The monotonicity pass (:mod:`repro.plan.monotone`) proves both input
    sub-plans are monotonic, so no retraction can ever arrive; each side
    indexes a key to a plain insert-only list of ``(values,
    multiplicity)`` instead of a multiplicity map.  This is the
    incremental SPJ rewrite of Section 3.2 applied at plan time, where —
    and only where — it is legal.
    """

    _APPEND_ONLY = True

    @staticmethod
    def _weigh(entry: list[Delta]) -> int:
        return sum(mult for _, mult in entry)


class AggregateOp(PhysicalOp):
    """Incremental grouped aggregation with retractions.

    For each input batch the operator updates group accumulators and emits
    ``-old_row`` / ``+new_row`` deltas for every group whose output row
    changed.  Groups with zero rows disappear (keyed aggregation) — except
    the global group, which once touched keeps reporting (COUNT = 0), the
    SQL behaviour the reference evaluator implements.  NULL arguments are
    skipped: COUNT counts non-null values, and the other aggregates over
    no non-null value are NULL.  ``plan`` is an :class:`Aggregate` or a
    running (window-less, EMIT CHANGES) :class:`WindowAggregate`.
    """

    _STATE_ATTRS = ("_groups", "_current_rows")

    def __init__(self, kernel: Callable) -> None:
        super().__init__([])  # children attached by compiler
        #: The generated instant (see :mod:`repro.cql.kernels`): keys,
        #: folds and finishes by position, bound to the plan's compiled
        #: argument evaluators.
        self._kernel = kernel
        #: Group key -> its accumulators, and -> its current output row.
        self._groups = KeyedState()
        self._current_rows = KeyedState()

    def process(self, t, child_deltas):
        return self._kernel(self, t, child_deltas)

    @property
    def state_size(self) -> int:
        return len(self._groups.data)


class GroupWindowAggregateOp(AggregateOp):
    """A group-window :class:`WindowAggregate` (``EMIT FINAL``) over its
    :class:`GroupWindowSourceOp`.

    The groups are the group columns plus the window bounds, so a
    window's close retracts its groups whole.  The EMIT FINAL step on
    the kernel's output keeps only those closes: the retraction of a row
    whose window has ended (``window_end <= t``) becomes the insert of
    its final row, bounds last as the WindowAggregate lays it out, and
    refinements are dropped — below HAVING and the projection, where one
    window's close cannot net against another's open.  A session that
    grew at ``t`` is retracted under its old end, possibly ``t``; the
    same batch re-inserts its group and start, so that is no close.
    """

    def __init__(self, plan: WindowAggregate, source: GroupWindowSourceOp,
                 kernel: Callable) -> None:
        super().__init__(kernel)
        self.children = [source]
        self._start = len(plan.group_by)  # the kernel's window_start

    @staticmethod
    def render(plan: WindowAggregate, in_schema: Schema) -> Kernel:
        """The generated instant of ``plan`` over its source's rows of
        ``in_schema``: the window bounds are appended to each row and
        grouped on after the group columns."""
        bounds = plan.schema.fields[-2:]
        return aggregate_kernel(plan.group_by + bounds, plan.aggregates,
                                in_schema.concat(Schema(bounds)))

    def process(self, t, child_deltas):
        deltas = self._kernel(self, t, child_deltas)
        start, end = self._start, self._start + 1
        grown = {values[:end] for values, mult in deltas if mult > 0}
        return [(values[:start] + values[end + 1:] + values[start:end + 1],
                 1) for values, mult in deltas
                if mult < 0 and values[end] <= t
                and values[:end] not in grown]


class DistinctOp(PhysicalOp):
    """Incremental duplicate elimination: emits 0→1 and 1→0 transitions."""

    _STATE_ATTRS = ("_counts",)

    def __init__(self, child: PhysicalOp) -> None:
        super().__init__([child])
        #: Row -> its multiplicity in the input.
        self._counts = KeyedState()

    @property
    def state_size(self) -> int:
        return len(self._counts.data)

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        if self._counts.marking:
            self._counts.mark(values for values, _ in deltas)
        counts = self._counts.data
        out: list[Delta] = []
        for values, mult in deltas:
            before = counts.get(values, 0)
            after = before + mult
            if after < 0:
                raise StateError(
                    f"distinct retracts {values!r}, which it does not hold")
            if after:
                counts[values] = after
            else:
                counts.pop(values, None)
            if not before:
                if after:
                    out.append((values, 1))
            elif not after:
                out.append((values, -1))
        return out


class AppendOnlyDistinctOp(DistinctOp):
    """Duplicate elimination over a provably append-only input.

    With no retractions possible, a seen-set (each row seen maps to
    True) replaces the multiplicity counter: first occurrence emits
    ``+1``, everything after is dropped.
    """

    _STATE_ATTRS = ("_seen",)

    def __init__(self, child: PhysicalOp) -> None:
        PhysicalOp.__init__(self, [child])
        self._seen = KeyedState()

    @property
    def state_size(self) -> int:
        return len(self._seen.data)

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        if self._seen.marking:
            self._seen.mark(values for values, _ in deltas)
        seen = self._seen.data
        out: list[Delta] = []
        for values, mult in deltas:
            if mult < 0:
                raise StateError(
                    "retraction reached an append-only distinct")
            if mult and values not in seen:
                seen[values] = True
                out.append((values, 1))
        return out


class SetOpOp(PhysicalOp):
    """Incremental bag union / difference / intersection.

    Union is linear: it passes both sides' deltas through.  Difference
    and intersection keep both sides' multiplicities and re-derive each
    affected row's output multiplicity — the monus or the minimum —
    emitting its signed change, so both stay exact under deletes.  Set
    operations correspond by position, so the two sides' values tuples
    compare as they are.
    """

    _STATE_ATTRS = ("_left", "_right", "_out")

    def __init__(self, kind: str, left: PhysicalOp,
                 right: PhysicalOp) -> None:
        super().__init__([left, right])
        self._kind = kind
        #: Row -> its multiplicity on the left, on the right, and in the
        #: output.
        self._left = KeyedState()
        self._right = KeyedState()
        self._out = KeyedState()

    def process(self, t, child_deltas):
        if self._kind == "union":
            return child_deltas[0] + child_deltas[1]
        touched: dict[tuple, None] = {}
        for side, deltas in zip(("left", "right"), child_deltas):
            held = (self._left if side == "left" else self._right).data
            for values, mult in deltas:
                count = held.get(values, 0) + mult
                if count < 0:
                    raise StateError(
                        f"{self._kind} retracts {values!r}, which its "
                        f"{side} side does not hold")
                if count:
                    held[values] = count
                else:
                    held.pop(values, None)
                touched[values] = None
        for state in (self._left, self._right, self._out):
            if state.marking:
                state.mark(touched)
        left, right, current = \
            self._left.data, self._right.data, self._out.data
        out: list[Delta] = []
        for values in touched:
            left_count = left.get(values, 0)
            right_count = right.get(values, 0)
            if self._kind == "difference":
                target = max(0, left_count - right_count)
            else:  # intersection
                target = min(left_count, right_count)
            change = target - current.get(values, 0)
            if change:
                out.append((values, change))
                if target:
                    current[values] = target
                else:
                    del current[values]
        return out


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def _subtree_streams(op: PhysicalOp) -> dict[str, list[StreamSourceOp]]:
    """The stream sources inside a physical subtree (for the memo)."""
    found: dict[str, list[StreamSourceOp]] = defaultdict(list)
    stack = [op]
    while stack:
        current = stack.pop()
        if isinstance(current, StreamSourceOp):
            found[current.scan.name].append(current)
        stack.extend(current.children)
    return dict(found)


def _compose(chain: Sequence[Filter | Project], schema: Schema) \
        -> tuple[list[Expr], tuple[Expr, ...] | None]:
    """A Filter/Project chain (top first) over input rows of ``schema``,
    as one ``(predicates, outputs)`` pair over that layout.

    Walking up from the input, a Project's expressions become the
    outputs and every column the next node names is replaced by the
    output expression it resolves to
    (:func:`~repro.plan.exprs.substitute_columns`, as projection
    composition does), so a Filter above a Project tests its predicate
    on the input row.  ``outputs`` is None when the rows pass through as
    they are: no Project, or one that is the positional identity of the
    input.
    """
    predicates: list[Expr] = []
    outputs: tuple[Expr, ...] | None = None
    layout = schema
    for node in reversed(chain):
        exprs = [node.predicate] if isinstance(node, Filter) else node.exprs
        if outputs is not None:
            exprs = [substitute_columns(expr, {
                column.name: outputs[layout.index_of(column.name)]
                for column in expr.columns()}) for expr in exprs]
        if isinstance(node, Filter):
            predicates += exprs
        else:
            outputs, layout = tuple(exprs), node.schema
    if outputs is not None and len(outputs) == len(schema.fields) and all(
            isinstance(expr, Column) and schema.index_of(expr.name) == index
            for index, expr in enumerate(outputs)):
        outputs = None
    return predicates, outputs


def compile_plan(plan: LogicalOp, catalog: Catalog, agenda: Agenda,
                 memo=None, parallelism: int = 1,
                 kernels: Kernels | None = None,
                 ) -> tuple[PhysicalOp, dict[str, list[StreamSourceOp]],
                            dict[str, list[RelationSourceOp]],
                            dict[int, list[PhysicalOp]], Any]:
    """Compile a logical plan into a physical tree.

    Returns the root physical operator, the stream/relation source maps
    (name → source operators) the driver feeds, a ``id(logical node)
    → physical ops`` map that lets EXPLAIN ANALYZE annotate the logical IR
    with live execution statistics (window-consumed filter/scan nodes map
    to their window source; memo-shared subtrees map to the shared op),
    and the plan's :class:`~repro.plan.parallel.PartitionScheme` when it
    was fissioned (None at ``parallelism`` 1).

    ``memo`` is an optional :class:`repro.plan.sharing.SubplanMemo`: when
    given, subtrees whose canonical signature matches an already-compiled
    subtree from an earlier query reuse that physical operator (and its
    window state) instead of compiling a private copy, and freshly built
    subtrees are published for later queries (the call is one
    ``start_compile()`` / ``finish_compile()`` envelope of the memo).

    ``parallelism > 1`` fissions the plan (survey §4.2): the subtree at
    and below the scheme's ``boundary`` is compiled once per partition,
    under a :class:`PartitionUnionOp` that feeds the
    one spine above it.  Each logical node below the boundary then maps
    to one physical op per partition, in partition order, and so does
    each stream's source list: partition ``p`` owns the ``p``-th equal
    slice of it.  The plan must be key-partitionable.

    ``kernels`` (a :class:`~repro.cql.kernels.Kernels`) holds the
    generated kernels rendered for ``plan``'s shape, keyed by kind and
    the sites of the nodes they run: a kernel found there is bound to
    ``plan``'s own literals, and one rendered is put there.  Kernels hold
    no state (an operator passes its own to them), so every plan of one
    shape, and every query compiled from one, shares the table (see
    :meth:`repro.cql.engine.CQLEngine.plan`).  Without it every kernel
    is rendered for this compile alone.
    """
    stream_sources: dict[str, list[StreamSourceOp]] = defaultdict(list)
    relation_sources: dict[str, list[RelationSourceOp]] = defaultdict(list)
    node_map: dict[int, list[PhysicalOp]] = {}
    scheme = boundary = None
    if parallelism > 1:
        from repro.plan.parallel import partition_scheme
        if memo is not None:
            raise PlanError(
                "shared-group queries interleave operator state across "
                "members and cannot be partitioned")
        scheme = partition_scheme(plan)
        if scheme is None:
            raise PlanError(
                "plan is not key-partitionable; run it with parallelism 1 "
                "(see repro.plan.parallel.partition_scheme)")
        boundary = scheme.boundary

    def bound(kind: str, nodes: Sequence[LogicalOp | None],
              render: Callable[[], Any]) -> Any:
        """The kernel (or kernels) ``render`` makes for ``nodes``, bound
        to ``plan``'s literals; with ``kernels``, rendered once per
        shape and bound once per plan."""
        if kernels is None:
            return _bind(render(), None)
        sites = kernels.sites
        key = (kind, *[None if node is None else sites[id(node)]
                       for node in nodes])
        kernel = kernels.bound.get(key)
        if kernel is None:
            rendered = kernels.table.get(key)
            if rendered is None:
                # Rendered from this plan: its values are this plan's.
                rendered = kernels.table[key] = render()
                kernel = _bind(rendered, None)
            else:
                kernel = _bind(rendered, kernels.literals)
            kernels.bound[key] = kernel
        return kernel

    def build(node: LogicalOp) -> PhysicalOp:
        if isinstance(node, RelToStream):
            raise PlanError("R2S must be the plan root")
        if node is boundary:
            copies = []
            for _ in range(parallelism):
                copies.append(_build_fresh(node))
                _record(node, copies[-1])
            return PartitionUnionOp(copies)
        key = memo_key(node) if memo is not None else None
        if memo is not None:
            shared = _shared(node, key)
            if shared is not None:
                return shared
        op = _build_fresh(node)
        if memo is not None:
            memo.publish(key, (op, _subtree_streams(op)))
        _record(node, op)
        return op

    def _shared(node: LogicalOp, key: str | None) -> PhysicalOp | None:
        """The memo's operator for ``node``'s ``key``, adopted; None on a
        miss."""
        hit = memo.lookup(key)
        if hit is None:
            return None
        shared_op, shared_streams = hit
        for name, sources in shared_streams.items():
            stream_sources[name].extend(sources)
        _record(node, shared_op)
        return shared_op

    def _build_chain(top: Filter | Project) -> PhysicalOp:
        """A maximal Filter/Project chain from ``top`` down, as one
        operator: a :class:`SpineOp` over the chain's input, the join
        below it when the join can take the chain, or no operator at all
        when the chain keeps every row as it is.  The chain stops above a
        node the memo shares; a shared or fissioned join (the partition
        boundary, or any join compiled through a memo, whose plain rows
        other members may read) keeps its plain output under a SpineOp.
        Every node of the chain maps to the operator that runs it."""
        chain = [top]
        inner, base = top.child, None
        while isinstance(inner, (Filter, Project)):
            if memo is not None:
                base = _shared(inner, memo_key(inner))
                if base is not None:
                    break
            chain.append(inner)
            inner = inner.child
        predicates, outputs = _compose(chain, inner.schema)
        if memo is None and isinstance(inner, Join) and inner is not boundary:
            op = _build_join(inner, predicates, outputs, top)
            _record(inner, op)
        else:
            if base is None:
                base = build(inner)
            op = base if not predicates and outputs is None else \
                SpineOp(base, bound(
                    "spine", (top, inner),
                    lambda: spine_kernel(predicates, outputs, inner.schema)))
        for node in chain[1:]:
            _record(node, op)
        return op

    def _build_join(node: Join, predicates: Sequence[Expr] = (),
                    outputs: Sequence[Expr] | None = None,
                    top: Filter | Project | None = None) -> JoinOp:
        """``node``'s join, running the chain from ``top`` down when one
        is fused into it (its ``predicates`` and ``outputs``)."""
        join_cls = (AppendOnlyJoinOp if append_only_inputs(node)
                    else JoinOp)
        probes = bound("join", (top, node),
                       lambda: join_cls.render(node, predicates, outputs))
        return join_cls(build(node.left), build(node.right), probes)

    def _record(node: LogicalOp, op: PhysicalOp) -> None:
        node_map.setdefault(id(node), []).append(op)
        if isinstance(op, GroupWindowAggregateOp):
            op = op.children[0]
        elif not isinstance(node, WindowOp):
            return
        # Pushed-below-window filters and the scan compiled *into*
        # the source op; point their logical nodes at it too.
        inner = node.child
        while isinstance(inner, Filter):
            node_map.setdefault(id(inner), []).append(op)
            inner = inner.child
        node_map.setdefault(id(inner), []).append(op)

    def _build_source(node: WindowOp | WindowAggregate) -> PhysicalOp:
        """The source reading a window's stream scan, with the filters
        the optimizer pushed below the window as its prefilter (see
        StreamSourceOp)."""
        inner, predicates = node.child, []
        while isinstance(inner, Filter):
            predicates.append(inner.predicate)
            inner = inner.child
        if not isinstance(inner, StreamScan):
            raise PlanError(
                "window operator must sit on a stream scan"
                if isinstance(node, WindowOp) else "group windows cannot "
                "appear in a dynamic-table plan; they read a stream")
        prefilter = (bound("prefilter", (node,),
                           lambda: prefilter_kernel(predicates, inner.schema))
                     if predicates else None)
        source = (StreamSourceOp(inner, node.spec, agenda, prefilter)
                  if isinstance(node, WindowOp) else
                  GroupWindowSourceOp(inner, node.window.assigner(),
                                      node.group_by, agenda, prefilter))
        stream_sources[inner.name].append(source)
        return source

    def _build_fresh(node: LogicalOp) -> PhysicalOp:
        if isinstance(node, WindowOp):
            return _build_source(node)
        if isinstance(node, StreamScan):
            raise PlanError(
                f"bare stream scan {node.name!r}: apply a window first")
        if isinstance(node, RelationScan):
            source = RelationSourceOp(node, [
                (record.values, count) for record, count
                in catalog.relation(node.name).contents.items()])
            relation_sources[node.name].append(source)
            return source
        if isinstance(node, (Filter, Project)):
            return _build_chain(node)
        if isinstance(node, Join):
            return _build_join(node)
        if isinstance(node, (Aggregate, WindowAggregate)):
            if isinstance(node, WindowAggregate):
                if node.window is not None:
                    source = _build_source(node)
                    if node.emit is EmitMode.CHANGES:
                        raise PlanError(
                            "EMIT CHANGES over a group window is not "
                            "implemented: window refinements are not "
                            "supported, use EMIT FINAL")
                    return GroupWindowAggregateOp(node, source, bound(
                        "aggregate", (node,),
                        lambda: GroupWindowAggregateOp.render(
                            node, source.scan.schema)))
                if node.emit is not EmitMode.CHANGES:
                    raise PlanError(
                        f"EMIT {node.emit.value.upper()} is meaningless for "
                        f"a dynamic table; views always materialise changes")
            child = build(node.child)
            op = AggregateOp(bound("aggregate", (node,),
                                   lambda: aggregate_kernel(
                                       node.group_by, node.aggregates,
                                       node.child.schema)))
            op.children = [child]
            return op
        if isinstance(node, Distinct):
            distinct_cls = (AppendOnlyDistinctOp
                            if append_only_inputs(node) else DistinctOp)
            return distinct_cls(build(node.child))
        if isinstance(node, SetOp):
            return SetOpOp(node.kind, build(node.left), build(node.right))
        raise PlanError(f"cannot compile plan node {node!r}")

    root_logical = plan.child if isinstance(plan, RelToStream) else plan
    if memo is None:
        root = build(root_logical)
    else:
        memo.start_compile()
        root = build(root_logical)
        memo.finish_compile()
    return (root, dict(stream_sources), dict(relation_sources), node_map,
            scheme)


def _bind(rendered: Kernel | tuple[Kernel, ...],
          literals: Mapping[int, Any] | None) -> Any:
    """A rendered kernel, or each of a tuple of them (a join's probes),
    bound to ``literals`` (see :meth:`~repro.cql.kernels.Kernel.bind`)."""
    if isinstance(rendered, tuple):
        return tuple(kernel.bind(literals) for kernel in rendered)
    return rendered.bind(literals)


# ---------------------------------------------------------------------------
# Instant evaluation
# ---------------------------------------------------------------------------


class InstantEvaluator:
    """Evaluates a physical operator DAG one instant at a time: the one
    caller of :meth:`PhysicalOp.process`.

    The DAG's distinct operators are put in post-order (children first)
    once, when the evaluator is built, and each operator's inputs become
    slot indexes into the instant's batches.  An instant then walks that
    order, calling each ``process`` through the instance (so a wrapper
    :func:`repro.chaos.install_crash` installs later runs) and keeping
    its books (see :class:`PhysicalOp`).  An operator reached from
    several roots (a subplan a :class:`SharedGroup` shares) runs once per
    instant and every consumer reads its batch by reference.  Nothing is
    held between operators or between instants.
    """

    def __init__(self, roots: Sequence[PhysicalOp]) -> None:
        slots: dict[int, int] = {}
        # One step per operator: its input slot (one child), slots
        # (several) or None (a source).
        steps: list[tuple[PhysicalOp, int | tuple[int, ...] | None]] = []

        def visit(op: PhysicalOp) -> None:
            if id(op) in slots:
                return
            for child in op.children:
                visit(child)
            inputs = tuple(slots[id(child)] for child in op.children)
            slots[id(op)] = len(steps)
            steps.append((op, inputs[0] if len(inputs) == 1
                          else inputs or None))

        for root in roots:
            visit(root)
        #: Every distinct operator, children before parents.
        self.operators = [op for op, _ in steps]
        self._steps = steps
        self._roots = [slots[id(root)] for root in roots]

    def run(self, t: Timestamp) -> list[list[Delta]]:
        """Evaluate instant ``t``: one batch of deltas per root."""
        timed = _obs_state.enabled
        batches: list[list[Delta]] = []
        active: list[bool] = []
        for op, inputs in self._steps:
            if inputs is None:
                touched = op._arrived
                op._arrived = False
                child_deltas = []
            elif inputs.__class__ is int:
                deltas = batches[inputs]
                op.received += len(deltas)
                child_deltas = [deltas]
                touched = op._child_active = active[inputs]
            else:
                child_deltas = [batches[slot] for slot in inputs]
                op.received += sum(map(len, child_deltas))
                touched = op._child_active = any(
                    active[slot] for slot in inputs)
            if timed:
                started = time.perf_counter()
                deltas = op.process(t, child_deltas)
                op.eval_seconds += time.perf_counter() - started
            else:
                deltas = op.process(t, child_deltas)
            op.emitted += len(deltas)
            batches.append(deltas)
            active.append(touched or bool(deltas))
        return list(map(batches.__getitem__, self._roots))


#: The evaluator of a group with no members: it runs nothing, so one
#: serves every empty group, and a group built or emptied builds none.
_NO_MEMBERS = InstantEvaluator(())


def operators_of(root: PhysicalOp) -> list[tuple[str, PhysicalOp]]:
    """Every physical operator under ``root``, depth-first, labelled by
    its class name: the positions :func:`repro.chaos.install_crash`
    indexes and snapshots list operator states in."""
    out: list[tuple[str, PhysicalOp]] = []

    def visit(op: PhysicalOp) -> None:
        out.append((type(op).__name__, op))
        for child in op.children:
            visit(child)

    visit(root)
    return out


def check_feed_time(timestamp: Timestamp, last: Timestamp | None) -> None:
    """Refuse feeding a query at ``timestamp``: before the epoch, or
    behind ``last``, the newest instant the caller has already applied.

    The one guard every feeding call of a :class:`SharedGroup` (arrivals
    and relation updates) runs before it touches state.
    """
    if timestamp < MIN_TIMESTAMP:
        # The semantics layer (Stream) rejects negative timestamps; the
        # incremental driver must agree, or it maintains states the
        # reference evaluator cannot even express.
        raise TimeError(
            f"timestamp {timestamp} before the epoch {MIN_TIMESTAMP}")
    if last is not None and timestamp < last:
        raise StateError(
            f"arrivals must be pushed in timestamp order: {timestamp} "
            f"after {last}")


def coerce_arrivals(catalog: Catalog,
                    arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                    | Record]],
                    ) -> list[tuple[str, list[tuple]]]:
    """An instant's arrivals as ``(stream, values tuples)`` pairs, each
    row a values tuple of its stream's schema (the stream's generated
    coercer), every row validated before any is staged."""
    return [(name, list(map(catalog.stream(name).coerce, rows)))
            for name, rows in arrivals.items()]


# ---------------------------------------------------------------------------
# The continuous query driver
# ---------------------------------------------------------------------------


def instant_batches(streams: Mapping[str, Stream[Record]]) \
        -> list[tuple[Timestamp, dict[str, list[Record]]]]:
    """Recorded streams as ``push_batch`` arguments, one per instant in
    timestamp order: every element sharing a timestamp, across all the
    streams, lands in that instant's batch."""
    arrivals: dict[Timestamp, dict[str, list[Record]]] = defaultdict(dict)
    for name, stream in streams.items():
        for element in stream:
            arrivals[element.timestamp].setdefault(name, []).append(
                element.value)
    return [(t, arrivals[t]) for t in sorted(arrivals)]


class Emission(NamedTuple):
    """One output stream element produced by an R2S query."""

    record: Record
    timestamp: Timestamp


class SharedGroup:
    """A standing-query unit: one or more continuous queries fed,
    evaluated and checkpointed as one operator DAG.

    A private query is a group of one, compiled with no memo.  A group
    made by :meth:`~repro.cql.engine.CQLEngine.shared_group` compiles
    every member through one :class:`~repro.plan.sharing.SubplanMemo`,
    so subtrees with the same canonical signature
    (``plan_signature(detail=True)`` — commutativity aware, so ``A ⋈ B``
    and ``B ⋈ A`` share) map to the *same* physical operator: the
    classic multi-query optimisation of a DSMS running many standing
    queries over few streams.  Window state, join state and per-source
    arrival staging are then paid once per distinct subplan, not once
    per query.

    The group owns everything a feeding call touches: the event-time
    :class:`Agenda` and the feed-time cursor, the staging of arrivals
    into each distinct source (by key partition, for a fissioned lone
    member), one :class:`InstantEvaluator` over the members' roots that
    runs each operator once per instant, and the checkpoint.  Any
    member's feeding call advances every member in lockstep, which keeps
    shared window state sound; each member's root batch folds into its
    own change-log (:meth:`_process_instant`).  The group's feeding calls
    return nothing: a member's own feeding calls return its emissions.

    Members join while the group is *cold*; once data has flowed it is
    frozen: a newcomer's private operators would miss the history the
    shared ones have already seen.
    """

    def __init__(self, catalog: Catalog,
                 memo: SubplanMemo | None = None) -> None:
        self.catalog = catalog
        self.agenda = Agenda()
        #: The sharing memo members compile through; None for a private
        #: query's group.
        self.memo = memo
        self.members: list[ContinuousQuery] = []
        self._started = False       # data has flowed; group frozen
        #: The newest instant evaluated, changed or not: feeding behind
        #: it is refused (:func:`check_feed_time`).
        self._cursor: Timestamp | None = None
        #: Bytes the last :meth:`snapshot` allocated; None before the first.
        self.barrier_bytes: int | None = None
        #: ``(registry, histogram)`` of :meth:`_instant_seconds`.
        self._bound: tuple | None = None
        self._rebuild()

    # -- membership ----------------------------------------------------------

    def register(self, plan: LogicalOp, parallelism: int = 1,
                 kernels: Kernels | None = None,
                 ) -> "ContinuousQuery":
        """Compile ``plan`` into the group, sharing common subplans (and
        ``plan``'s shape's ``kernels``, see :func:`compile_plan`)."""
        if self._started:
            raise PlanError(
                "cannot add a query to a shared group after data has "
                "flowed: the shared window state would be missing the "
                "newcomer's history")
        return ContinuousQuery(plan, self.catalog, group=self,
                               parallelism=parallelism, kernels=kernels)

    def _adopt(self, query: "ContinuousQuery") -> None:
        """Take ``query`` in as a member, or take its new tree when a
        rescale swapped it."""
        if query not in self.members:
            self.members.append(query)
        self._rebuild()

    def _leave(self, query: "ContinuousQuery") -> None:
        """Let ``query`` go (it was cancelled): the group stops evaluating
        the operators only it read and no longer holds it."""
        self.members.remove(query)
        self._rebuild()

    def _rebuild(self) -> None:
        """Build the evaluator and the staging around the members'
        current trees.  The recovery image does not cover them: it goes."""
        self._evaluator = (
            InstantEvaluator([m._root for m in self.members])
            if self.members else _NO_MEMBERS)
        #: Stream name → the distinct sources reading it: a source
        #: several members share is staged into once.
        self._sources: dict[str, list[StreamSourceOp]] = {}
        for member in self.members:
            for name, ops in member._stream_sources.items():
                known = self._sources.setdefault(name, [])
                for op in ops:
                    if op not in known:
                        known.append(op)
        #: A fissioned (hence lone) member's routes: stream name → (the
        #: router from an arrival's values to its partition, each
        #: partition's sources); None stages into every source.
        self._routes: dict[str, tuple[Callable, list]] | None = None
        if len(self.members) == 1 and self.members[0].parallelism > 1:
            query = self.members[0]
            width = query.parallelism
            router = query._scheme.router
            self._routes = {}
            for name, sources in self._sources.items():
                each = len(sources) // width
                self._routes[name] = (router(name, width), [
                    sources[p * each:(p + 1) * each] for p in range(width)])
        #: The newest checkpoint (see :meth:`snapshot`).
        self._checkpoint: dict[str, Any] | None = None

    @property
    def shared_hits(self) -> int:
        """Subplan compilations avoided by sharing (memo hits)."""
        return self.memo.hits if self.memo is not None else 0

    def distinct_operators(self) -> list[PhysicalOp]:
        """Every physical operator in the group DAG, counted once."""
        return list(self._evaluator.operators)

    def state_size(self) -> int:
        """Total tuples held by stateful operators, shared state counted
        once (contrast with summing each member's private accounting)."""
        return sum(getattr(op, "state_size", 0)
                   for op in self._evaluator.operators)

    # -- feeding -------------------------------------------------------------

    def start(self, at: Timestamp = 0) -> None:
        """Process the registration instant (see
        :meth:`ContinuousQuery.start`)."""
        check_feed_time(at, self._cursor)
        self._process_instant(at)

    def push_batch(self, timestamp: Timestamp,
                   arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                   | Record]]) -> None:
        """Push all arrivals carrying ``timestamp`` through the group,
        atomically.

        Every row is validated first (:func:`coerce_arrivals`), then
        staged into every *distinct* source reading its stream (a shared
        window buffers the row once).  Earlier agenda work (window
        expirations due before ``timestamp``) is processed first, then
        the batch, for every member.
        """
        self._feed(timestamp, coerce_arrivals(self.catalog, arrivals))

    def _feed(self, timestamp: Timestamp,
              arrivals: Sequence[tuple[str, list[tuple]]],
              updates: Sequence[tuple[RelationSourceOp, Delta]] = ()) -> None:
        """:meth:`push_batch` for arrivals already validated into values
        tuples, as ``(stream, rows)`` pairs (one per stream), plus
        relation ``updates`` for members' relation sources: the one
        instant path, which the DSMS calls directly with the queue's runs
        of the rows its ``ingest`` validated.

        It runs once per DSMS quantum, so it calls only what has work to
        do: :func:`check_feed_time` only to raise, and the agenda only
        when a peek at its heap shows an instant due."""
        cursor = self._cursor
        if timestamp < MIN_TIMESTAMP or (
                cursor is not None and timestamp < cursor):
            check_feed_time(timestamp, cursor)
        agenda = self.agenda
        heap = agenda._heap
        if heap and heap[0] < timestamp:
            for instant in agenda.due(timestamp - 1):
                self._process_instant(instant)
        # Stage each stream's rows into every distinct source reading it
        # (a fissioned member's, only into the partition owning a row's
        # key); a stream no source reads is refused first.
        sources, routes = self._sources, self._routes
        for name, _ in arrivals:
            if not sources.get(name):
                raise PlanError(f"no source here reads stream {name!r}")
        for name, rows in arrivals:
            if routes is None:
                for source in sources[name]:
                    source.stage_many(rows, timestamp)
                continue
            router, partitions = routes[name]
            parts: list[list[tuple]] = [[] for _ in partitions]
            for values in rows:
                parts[router(values)].append(values)
            for part, owned in zip(parts, partitions):
                for source in owned:
                    source.stage_many(part, timestamp)
        for source, delta in updates:
            source.stage_updates([delta])
        heap = agenda._heap
        if heap and heap[0] <= timestamp:
            agenda.due(timestamp)  # consume anything scheduled == now
        self._process_instant(timestamp)
        self._started = True

    def advance_to(self, timestamp: Timestamp) -> None:
        """Advance event time without new data (fires due expirations)."""
        for instant in self.agenda.due(timestamp):
            self._process_instant(instant)

    def finish(self) -> None:
        """Drain all scheduled future work (window closes after end of
        input)."""
        for instant in self.agenda.drain():
            self._process_instant(instant)

    def _process_instant(self, t: Timestamp) -> None:
        """Run one instant through the DAG, each operator once, and fold
        each member's root batch into that member's change-log.

        The log commits the *net* change R(τ) − R(τ−), the only change
        the reference semantics sees; an instant folded in several quanta
        commits one batch per fold.  The emissions are read off the log
        (:meth:`ContinuousQuery._emitted`), so the fold labels nothing.
        All or nothing: a refused retraction leaves the member's answer,
        its log and the group's clock as they were."""
        if _obs_state.enabled:
            started = time.perf_counter()
            batches = self._evaluator.run(t)
            self._instant_seconds().observe(time.perf_counter() - started)
        else:
            batches = self._evaluator.run(t)
        for query, deltas in zip(self.members, batches):
            query._deltas_processed += len(deltas)
            query._log.commit(t, deltas)
        self._cursor = t

    def _instant_seconds(self):
        """The ``exec.query.instant_eval_seconds`` histogram of the live
        registry: looked up once, and again only after
        :func:`repro.obs.reset` replaced the registry."""
        registry = _obs_registry()
        bound = self._bound
        if bound is None or bound[0] is not registry:
            bound = self._bound = (registry, registry.histogram(
                "exec.query.instant_eval_seconds", layer="cql"))
        return bound[1]

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A barrier: move the group's recovery point to now and return
        what it wrote — the agenda, each distinct operator's state once,
        the cursor, and each member's change-log length.

        Taken between instants, the checkpoint plus the input suffix
        replayed from the same point reproduces the fault-free run
        exactly — the property the kernel-crashed difftest config checks.
        Operators write the keys they changed since the previous barrier
        (every key at the first, see :meth:`PhysicalOp.barrier`); the
        change-logs are append-only, so they write their lengths (one per
        member, in member order), and the emissions are read off them;
        the agenda (bounded by the widest window) is copied.  It may be taken
        between quanta, inside an instant whose remaining arrivals are
        still to come: the instant's next fold is a second batch at the
        same version.  :attr:`barrier_bytes` is the operators' tallies
        plus the agenda copy, shared state counted once.  The recovery
        image stays inside the group, so :meth:`restore` takes the newest
        checkpoint only.
        """
        agenda = self.agenda.snapshot()
        ops = self._evaluator.operators
        members = self.members
        self._checkpoint = {
            "agenda": agenda,
            "log": [len(member._log) for member in members],
            "last_instant": self._cursor,
            "deltas_processed": [member._deltas_processed
                                 for member in members],
            "operators": [op.barrier() for op in ops],
        }
        self.barrier_bytes = (getsizeof(agenda["heap"])
                              + getsizeof(agenda["scheduled"])
                              + sum(op.barrier_bytes for op in ops))
        return self._checkpoint

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll back in place to the newest checkpoint (``payload`` is
        what :meth:`snapshot` returned for it).

        Operators restore only the keys they changed since; each
        member's change-log is cut back to its length then, and the
        batches cut are taken back out of its answer.  The
        compiled DAG is reused, and any partially processed instant left
        over from a crash (staged arrivals) is discarded.  Repeatable:
        the checkpoint is not consumed.  Published metrics keep counting
        across it (see :meth:`ContinuousQuery._unmark_rolled_back`).
        """
        point = self._checkpoint
        if point is None or payload is not point:
            raise StateError(
                "only the newest checkpoint can be restored (and none "
                "taken before a rescale or a new member): the group keeps "
                "one recovery image")
        for op in self._evaluator.operators:
            op.rollback()
        self.agenda.restore(point["agenda"])
        for member, log, deltas in zip(
                self.members, point["log"], point["deltas_processed"]):
            member._log.truncate(log)
            member._delivered = min(member._delivered, log)
            member._deltas_processed = deltas
            member._unmark_rolled_back()
        self._cursor = point["last_instant"]


class ContinuousQuery:
    """A registered continuous query: compiled once, runs until cancelled.

    Feed arrivals with :meth:`push` / :meth:`push_batch`; the query responds
    with the output elements it produced (for R2S queries) and maintains its
    current relation state (inspect with :meth:`current`).  Use
    :meth:`run_recorded` to replay recorded streams with exact per-instant
    batching.

    The query owns its plan and compiled tree, its answer (a
    :class:`~repro.core.relation.Changelog`, which its emissions are
    read off); feeding,
    evaluation and checkpoints belong to its :class:`SharedGroup` — its
    own group of one unless it was compiled into a shared group.

    ``parallelism > 1`` fissions a key-partitionable plan inside the query
    (see :func:`compile_plan`): each arrival is staged only into its
    key's partition, while the agenda, the maintained state and the
    change-log stay single.
    :func:`repro.runtime.rescale.rescale` changes the width of a running
    query.  ``kernels`` are the kernels rendered for ``plan``'s shape and
    its literals, shared by every query compiled from a plan of that
    shape (see :func:`compile_plan`).
    """

    def __init__(self, plan: LogicalOp, catalog: Catalog,
                 group: SharedGroup | None = None,
                 parallelism: int = 1,
                 kernels: Kernels | None = None) -> None:
        if parallelism < 1:
            raise PlanError(f"parallelism must be >= 1, got {parallelism}")
        self.plan = plan
        self.catalog = catalog
        self.r2s = plan.kind if isinstance(plan, RelToStream) else None
        self.output_schema = plan.schema
        #: The :class:`SharedGroup` that feeds, evaluates and checkpoints
        #: this query: a private group of one unless one was given.
        self.group = group if group is not None else SharedGroup(catalog)
        #: :meth:`publish_metrics`' marks: (id(operator), field) → the
        #: value last published; (-1, "deltas") for the query total.
        self._published_ops: dict[tuple[int, str], int] = {}
        #: Growth a rescale's retired operators had not yet published:
        #: (operator name, depth-first index, field) → amount.
        self._retired_growth: dict[tuple[str, int, str], int] = {}
        #: The answer and its history: the maintained relation plus one
        #: netted batch per fold that changed it (see
        #: :meth:`SharedGroup._process_instant`).
        #: The DSMS Store reads this very log, see :attr:`changelog`.
        self._log = Changelog()
        #: The log position up to which a feeding call has returned the
        #: emissions.
        self._delivered = 0
        self._deltas_processed = 0
        self._install(compile_plan(
            plan, catalog, self.group.agenda, memo=self.group.memo,
            parallelism=parallelism, kernels=kernels), parallelism)

    def _install(self, compiled: tuple, parallelism: int) -> None:
        """Adopt a tree :func:`compile_plan` built at ``parallelism`` (at
        construction, and again when a live rescale swaps the width)."""
        retired = self.operators() if self._published_ops else None
        #: ``_scheme``: the plan's PartitionScheme when fissioned, else None.
        (self._root, self._stream_sources, self._relation_sources,
         self._phys_by_logical, self._scheme) = compiled
        #: The number of key partitions the plan runs in (1: serial).
        self.parallelism = parallelism
        self.group._adopt(self)
        if retired is not None:
            self._rebase_metrics(retired)

    def _rebase_metrics(self, retired: list[tuple[str, "PhysicalOp"]]) -> None:
        """After a rescale swapped the tree: keep the retired operators'
        unpublished growth for their own labels, and count what the new
        operators carried over (the retired totals, see
        :func:`repro.runtime.rescale.rescale`) as already published — so
        :meth:`publish_metrics` neither drops nor repeats a delta, and no
        counter ever moves backwards."""
        marks = self._published_ops
        for index, (name, op) in enumerate(retired):
            for field, value in (("records_in", op.received),
                                 ("records_out", op.emitted)):
                grown = value - marks.get((id(op), field), 0)
                if grown:
                    key = (name, index, field)
                    self._retired_growth[key] = \
                        self._retired_growth.get(key, 0) + grown
        self._published_ops = {(-1, "deltas"): marks.get((-1, "deltas"), 0)}
        for _, op in self.operators():
            self._published_ops[(id(op), "records_in")] = op.received
            self._published_ops[(id(op), "records_out")] = op.emitted

    def _unmark_rolled_back(self) -> None:
        """After a rollback: lower :meth:`publish_metrics`' marks to the
        restored tallies where they stand above them, so the replay
        publishes as new growth and no counter moves backwards.  What was
        published before the crash stays counted; growth the rollback
        undid before anything published it is dropped, whether or not
        the operator had published before."""
        marks = self._published_ops
        if not marks:
            return
        for _, op in self.operators():
            for field, value in (("records_in", op.received),
                                 ("records_out", op.emitted)):
                key = (id(op), field)
                marks[key] = min(marks.get(key, 0), value)
        key = (-1, "deltas")
        marks[key] = min(marks.get(key, 0), self._deltas_processed)

    # -- feeding -------------------------------------------------------------
    #
    # Every feeding call runs through the group and returns this query's
    # emissions not yet returned: those of this call, and those of
    # instants a peer in a shared group drove since this query's last call.

    def start(self, at: Timestamp = 0) -> list[Emission]:
        """Process the registration instant: flushes base relations' initial
        contents so the maintained state matches the reference semantics
        from time ``at`` on."""
        self.group.start(at)
        return self._pending()

    def push(self, stream_name: str, row: Mapping[str, Any] | Record,
             timestamp: Timestamp) -> list[Emission]:
        """Push one element into ``stream_name`` at ``timestamp``."""
        return self.push_batch(timestamp, {stream_name: [row]})

    def push_batch(self, timestamp: Timestamp,
                   arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                   | Record]],
                   ) -> list[Emission]:
        """Push all arrivals carrying ``timestamp``, atomically (see
        :meth:`SharedGroup.push_batch`)."""
        self.group.push_batch(timestamp, arrivals)
        return self._pending()

    def update_relation(self, name: str, row: Mapping[str, Any] | Record,
                        mult: int, timestamp: Timestamp) -> list[Emission]:
        """Apply an insert (+mult) / delete (-mult) to a base relation the
        query reads, propagating incrementally (InvaliDB-style push).

        The row is validated against the relation's schema first.
        Refused like :meth:`push_batch` when ``timestamp`` is before the
        epoch or behind the group's newest instant.  Earlier agenda work
        runs first, so the update lands at ``timestamp``.  Relation scans
        are never shared (the memo refuses them: members may diverge via
        private updates), so a shared-group member stages the update into
        its own sources only, and the instant still runs group-wide.
        """
        values = self.catalog.relation(name).coerce(row)
        sources = self._relation_sources.get(name)
        if not sources:
            raise PlanError(f"query does not read relation {name!r}")
        self.group._feed(
            timestamp, (), [(source, (values, mult)) for source in sources])
        return self._pending()

    def advance_to(self, timestamp: Timestamp) -> list[Emission]:
        """Advance event time without new data (fires due expirations)."""
        self.group.advance_to(timestamp)
        return self._pending()

    def finish(self) -> list[Emission]:
        """Drain all scheduled future work (window closes after end of
        input) and return the final emissions."""
        self.group.finish()
        return self._pending()

    def _pending(self) -> list[Emission]:
        """The emissions no feeding call has returned yet, now returned."""
        out = self._labelled(self._delivered)
        self._delivered = len(self._log)
        return out

    def _deliver(self) -> int:
        """:meth:`_pending` for a caller that only counts them: marks the
        emissions returned without building them; returns how many.

        Counted off the batches' weights (:meth:`Changelog.weights`):
        ISTREAM takes their positive weights, DSTREAM their negative
        ones, RSTREAM the answer's size after each batch — its size now
        (:attr:`Changelog.size`), folded back by each later batch's net
        weight — so a quantum costs its batches, never the answer.
        Nothing without an R2S root."""
        log = self._log
        start, self._delivered = self._delivered, len(log)
        r2s = self.r2s
        if r2s is None or start == self._delivered:
            return 0
        batches = log.weights(start)
        count = 0
        if r2s is R2SKind.RSTREAM:
            size = log.size
            for weights in reversed(batches):
                count += size
                size -= sum(weights)
            return count
        sign = 1 if r2s is R2SKind.ISTREAM else -1
        for weights in batches:
            for weight in weights:
                if weight * sign > 0:
                    count += weight * sign
        return count

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A barrier of the query's group (see :meth:`SharedGroup.snapshot`):
        its operators' state, its agenda, and the query's change-log
        length.  A member of a shared group with other members
        cannot checkpoint alone: its operator state interleaves with
        theirs."""
        return self._whole_group().snapshot()

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll the query's group back to its newest checkpoint (see
        :meth:`SharedGroup.restore`); refused like :meth:`snapshot`."""
        self._whole_group().restore(payload)

    def _whole_group(self) -> SharedGroup:
        if len(self.group.members) > 1:
            raise StateError(
                "shared-group queries cannot be checkpointed independently")
        return self.group

    @property
    def barrier_bytes(self) -> int | None:
        """Bytes the group's last barrier allocated; None before the first."""
        return self.group.barrier_bytes

    # -- processing ----------------------------------------------------------

    def _emitted(self, start: int) -> list[tuple[Timestamp, list[tuple]]]:
        """What the log's batches from position ``start`` on emit: one
        ``(version, rows)`` per batch, a values tuple per copy emitted.
        ISTREAM takes a batch's positive weights, DSTREAM its negative
        ones, in its row order; RSTREAM the contents after it, folded
        back from the contents now.  Nothing without an R2S root."""
        r2s = self.r2s
        if r2s is None:
            return []
        batches = list(self._log.entries(start))
        if r2s is R2SKind.RSTREAM:
            state, out = self._log.contents.copy(), []
            for version, batch in reversed(batches):
                out.append((version, list(state)))
                state.apply_signed({row: -weight for row, weight in batch})
            out.reverse()
            return out
        sign = 1 if r2s is R2SKind.ISTREAM else -1
        return [(version, [row for row, weight in batch
                           for _ in range(weight * sign)])
                for version, batch in batches]

    def _labelled(self, start: int) -> list[Emission]:
        """:meth:`_emitted` from ``start`` on as Emissions: only the rows
        emitted become Records of the output schema."""
        schema, out = self.output_schema, []
        for version, rows in self._emitted(start):
            records = [trusted_record(schema, values) for values in rows]
            if self.r2s is R2SKind.RSTREAM:
                # In repr order: the answer's dict order depends on its
                # history, and a rollback re-adds the rows it takes back
                # last.
                records.sort(key=repr)
            out.extend([Emission(record, version) for record in records])
        return out

    # -- inspection ----------------------------------------------------------

    def current(self) -> Bag:
        """The maintained relation state right now: a new Bag of Records
        of the output schema (see :func:`~repro.core.relation.labelled`)."""
        return labelled(self._log.contents, self.output_schema)

    @property
    def changelog(self) -> Changelog:
        """The answer and its history, not copied: the log the query
        commits to and rolls back, of values tuples laid out as
        :attr:`output_schema`.  Readers must not change it."""
        return self._log

    def emissions(self) -> list[Emission]:
        """All output elements produced so far (R2S queries), read off
        the change-log and labelled now."""
        return self._labelled(0)

    def emitted_stream(self) -> Stream[Record]:
        """The output as a :class:`Stream` (sorted within each instant so
        it compares stably against the reference)."""
        out: Stream[Record] = Stream(schema=self.output_schema)
        # Log versions never decrease, so neither do the emissions'.
        for t, emitted in groupby(self.emissions(), key=itemgetter(1)):
            for record in sorted([e.record for e in emitted], key=repr):
                out.append(record, t)
        return out

    def as_relation(self) -> TimeVaryingRelation:
        """The answer's history, built now from the change-log: one state
        per instant that changed it (see :meth:`Changelog.relation`)."""
        return self._log.relation(self.output_schema)

    @property
    def deltas_processed(self) -> int:
        """Total deltas that flowed through the root (a work measure)."""
        return self._deltas_processed

    def physical_roots(self) -> list["PhysicalOp"]:
        """The physical tree roots: one, whatever the parallelism (a
        fissioned query's partitions hang below its root)."""
        return [self._root]

    def partition_loads(self) -> list[int]:
        """Deltas each partition has produced so far, one entry per
        partition: the load-skew evidence an autoscaler reads."""
        if self.parallelism == 1:
            return [self._root.emitted]
        union = self._root
        while not isinstance(union, PartitionUnionOp):
            union = union.children[0]
        return [part.emitted for part in union.children]

    def operators(self) -> list[tuple[str, PhysicalOp]]:
        """Every physical operator, depth-first, with a stable label."""
        return operators_of(self._root)

    def publish_metrics(self, registry=None, prefix: str = "exec.operator",
                        **labels: str) -> None:
        """Publish per-operator records in/out and eval time into a registry.

        Pull-based and idempotent: repeated calls publish only the growth
        since the previous call, so the hot path stays untouched and the
        registry's counters stay correct however often a driver snapshots.
        The metric names are the kernel's unified ``exec.operator.*``
        family (with ``layer="cql"``), so one dashboard covers every
        substrate.
        """
        registry = registry if registry is not None else _obs_registry()
        labels = dict(labels, layer="cql")
        for (name, index, field), grown in self._retired_growth.items():
            registry.counter(f"{prefix}.{field}", **dict(
                labels, operator=name, index=str(index))).inc(grown)
        self._retired_growth.clear()
        for index, (name, op) in enumerate(self.operators()):
            tags = dict(labels, operator=name, index=str(index))
            for field, value in (("records_in", op.received),
                                 ("records_out", op.emitted)):
                counter = registry.counter(f"{prefix}.{field}", **tags)
                key = (id(op), field)
                counter.inc(value - self._published_ops.get(key, 0))
                self._published_ops[key] = value
            if op.eval_seconds:
                registry.gauge(f"{prefix}.eval_seconds", **tags).set(
                    op.eval_seconds)
        deltas = registry.counter("exec.query.deltas", **labels)
        deltas.inc(self._deltas_processed
                   - int(self._published_ops.get((-1, "deltas"), 0)))
        self._published_ops[(-1, "deltas")] = self._deltas_processed

    @property
    def operator_work(self) -> int:
        """Total deltas emitted by *every* operator in the physical tree
        — the work measure optimisation rules actually reduce (a cross
        join's wasted intermediates count here, not at the root)."""
        total = 0
        stack = [self._root]
        while stack:
            op = stack.pop()
            total += op.emitted
            stack.extend(op.children)
        return total

    # -- batch replay --------------------------------------------------------

    def run_recorded(self, streams: Mapping[str, Stream[Record]],
                     finish: bool = True) -> list[Emission]:
        """Replay recorded streams with exact per-instant batching.

        All elements sharing a timestamp (across all input streams) are
        pushed as one batch, which makes the executor's outputs match the
        reference evaluator exactly.
        """
        emitted: list[Emission] = list(self.start())
        for t, arrivals in instant_batches(streams):
            emitted.extend(self.push_batch(t, arrivals))
        if finish:
            emitted.extend(self.finish())
        return emitted
