"""Incremental (delta-based) execution of continuous query plans.

This is the *physical* layer corresponding to the paper's Section 3.2: the
query is compiled once into a tree of incremental operators and then runs
until cancelled, processing only changes.  All operators exchange **deltas**
``(record, ±multiplicity)``; window operators turn arrivals into ``+1``
deltas and expirations into ``-1`` deltas (driven by an event-time agenda),
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
from collections import Counter, defaultdict, deque
from operator import itemgetter
from sys import getsizeof
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.obs import get_registry as _obs_registry
# Hot-path gate: reading the state attribute directly (instead of calling
# is_enabled()) keeps the per-operator disabled cost to one attribute load.
from repro.obs import _STATE as _obs_state

from repro.core.errors import PlanError, StateError, TimeError
from repro.core.operators import AggregateKind, R2SKind
from repro.core.records import Record, Schema, trusted_record
from repro.core.relation import EMPTY_BAG, Bag, TimeVaryingRelation
from repro.core.stream import Stream
from repro.core.time import MIN_TIMESTAMP, Timestamp
from repro.plan.exprs import EmitMode
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
from repro.cql.expressions import compile_expr, compile_predicate
from repro.cql.state import KeyedState, copy_sized

#: A signed record change flowing between physical operators: a bare
#: ``(record, multiplicity)`` pair, built and read by position.  A pair
#: costs a fraction of any named record type, and a batch of them folds
#: into a ``dict`` in one call (see :meth:`ContinuousQuery._apply_instant`).
Delta = tuple[Record, int]


def _values_at(indexes: Sequence[int]) -> Callable[[tuple], tuple]:
    """The tuple of a row's values at ``indexes``, from its values tuple:
    a join or group key."""
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

    Each instant an operator reports ``(deltas, active)``: a source from
    ``process_instant``, an inner operator from :meth:`apply` over its
    children's reports (see :class:`InstantEvaluator`).  *Active* says
    whether any source in the subtree was touched at this instant (even if
    no delta survived the operators in between).  This mirrors the
    reference evaluator, whose time-varying relations record a change
    point at every input-relevant instant — global aggregates rely on it
    to materialise their zero row at the right instant.

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

    def __init__(self, children: Sequence["PhysicalOp"]) -> None:
        self.children = list(children)
        #: Total deltas this operator has emitted (a work measure).
        self.emitted = 0
        #: Total deltas received from children (rows-in accounting).
        self.received = 0
        #: Cumulative seconds spent in ``process`` (only accumulated while
        #: observability is enabled; see :mod:`repro.obs`).
        self.eval_seconds = 0.0
        #: The whole-copied state and the counters at the last barrier;
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
        copies allocated (records are shared, so they add nothing).
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
        payload["emitted"] = saved["emitted"] = self.emitted
        payload["received"] = saved["received"] = self.received
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
        self.emitted = saved["emitted"]
        self.received = saved["received"]

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        """Consume one batch of child deltas at instant ``t``."""
        raise NotImplementedError

    def _timed_process(self, t: Timestamp,
                       child_deltas: list[list[Delta]]) -> list[Delta]:
        """``process`` with eval-time accounting (the enabled-only path)."""
        started = time.perf_counter()
        deltas = self.process(t, child_deltas)
        self.eval_seconds += time.perf_counter() - started
        return deltas

    def apply(self, t: Timestamp, child_deltas: list[list[Delta]],
              child_active: bool) -> tuple[list[Delta], bool]:
        """Process one instant's child batches (with accounting); returns
        ``(deltas, active)``."""
        for deltas in child_deltas:
            self.received += len(deltas)
        if _obs_state.enabled:
            deltas = self._timed_process(t, child_deltas)
        else:
            deltas = self.process(t, child_deltas)
        self.emitted += len(deltas)
        return deltas, bool(deltas) or child_active


# ---------------------------------------------------------------------------
# Sources (S2R windows over pushed arrivals)
# ---------------------------------------------------------------------------


class StreamSourceOp(PhysicalOp):
    """Windowed stream source.

    The executor stages arriving records here; ``process`` turns them into
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

    def __init__(self, scan: StreamScan, spec, agenda: Agenda,
                 prefilter: Callable[[Record], bool] | None = None) -> None:
        super().__init__([])
        self.scan = scan
        self.spec = spec
        self._prefilter = prefilter
        self._agenda = agenda
        self._staged: list[Record] = []
        kind = spec.kind
        #: Plain [Range r] and [Now] windows: an arrival at ``t`` expires
        #: at ``t + _lifetime``.  None for every other window.
        self._lifetime: Timestamp | None = (
            1 if kind is WindowSpecKind.NOW
            else spec.range_ if kind is WindowSpecKind.RANGE
            and not spec.slide else None)
        # Range/Now state: expiry time -> records.
        self._expiries = KeyedState(weigh=len)
        # Rows state: FIFO of live records.
        self._fifo: deque[Record] = deque()
        # Partitioned rows state: partition key -> FIFO of its records.
        self._per_key = KeyedState(weigh=len)
        if kind is WindowSpecKind.PARTITIONED:
            indexes = [scan.schema.index_of(c) for c in spec.partition_by]
            self._key_fn = lambda r: tuple([r._values[i] for i in indexes])
        # Stepped-range state: (record, enter_boundary, exit_boundary).
        self._pending: list[tuple[Record, Timestamp, Timestamp]] = []
        self._visible: list[tuple[Record, Timestamp]] = []
        self._arrived = False
        #: Total tuples ever evicted from this window (Throw accounting).
        self.evicted = 0
        #: Raw arrivals staged here, counted *before* the prefilter, so
        #: explain_analyze can report the source's live selectivity.
        #: Deliberately not in _STATE_ATTRS: like received/emitted it is
        #: lifetime accounting, not recoverable window state.
        self.arrivals = 0

    def process_instant(self, t: Timestamp) -> tuple[list[Delta], bool]:
        arrived = self._arrived
        self._arrived = False
        deltas = (self._timed_process(t, []) if _obs_state.enabled
                  else self.process(t, []))
        self.emitted += len(deltas)
        return deltas, arrived or bool(deltas)

    def stage(self, record: Record, t: Timestamp) -> None:
        """Queue a (schema-qualified) arrival for the process call at
        instant ``t``."""
        self._arrived = True
        self.arrivals += 1
        if self._prefilter is not None and not self._prefilter(record):
            return
        if self.spec.kind is WindowSpecKind.RANGE and self.spec.slide:
            enter = self._ceil_boundary(t)
            exit_ = self._ceil_boundary(t + self.spec.range_)
            self._pending.append((record, enter, exit_))
            self._agenda.schedule(enter)
            self._agenda.schedule(exit_)
            return
        self._staged.append(record)
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

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        out: list[Delta] = []
        kind = self.spec.kind

        if kind is WindowSpecKind.RANGE and self.spec.slide:
            still_pending = []
            for record, enter, exit_ in self._pending:
                if enter <= t:
                    out.append((record, 1))
                    self._visible.append((record, exit_))
                else:
                    still_pending.append((record, enter, exit_))
            self._pending = still_pending
            still_visible = []
            for record, exit_ in self._visible:
                if exit_ <= t:
                    out.append((record, -1))
                    self.evicted += 1
                else:
                    still_visible.append((record, exit_))
            self._visible = still_visible
            return out

        staged = self._staged
        lifetime = self._lifetime
        if lifetime is not None:
            # Range / Now: buffer this instant's arrivals under their
            # expiry, then evict everything due (this instant's too).
            state = self._expiries
            expiries = state.data
            if staged:
                expiry = t + lifetime
                bucket = expiries.get(expiry)
                if bucket is None:
                    expiries[expiry] = list(staged)
                else:
                    bucket.extend(staged)
                state.tally += len(staged)
                state.mark((expiry,))
            due = [expiry for expiry in expiries if expiry <= t]
            if due:
                due.sort()
                state.mark(due)
                for expiry in due:
                    expired = expiries.pop(expiry)
                    out.extend([(record, -1) for record in expired])
                    self.evicted += len(expired)
                    state.tally -= len(expired)
        if not staged:
            return out

        if kind is WindowSpecKind.PARTITIONED:
            state = self._per_key
            per_key, key_fn, rows = state.data, self._key_fn, self.spec.rows
            keys = []
            for record in staged:
                out.append((record, 1))
                key = key_fn(record)
                keys.append(key)
                queue = per_key.get(key)
                if queue is None:
                    queue = per_key[key] = deque()
                queue.append(record)
                if len(queue) > rows:
                    out.append((queue.popleft(), -1))
                    self.evicted += 1
                else:
                    state.tally += 1
            state.mark(keys)
        elif kind is WindowSpecKind.ROWS:
            fifo = self._fifo
            for record in staged:
                out.append((record, 1))
                fifo.append(record)
                if len(fifo) > self.spec.rows:
                    out.append((fifo.popleft(), -1))
                    self.evicted += 1
        else:
            out.extend([(record, 1) for record in staged])
        staged.clear()
        return out


class RelationSourceOp(PhysicalOp):
    """A base relation: emits its initial contents once, then staged updates.

    Its first instant is active even over empty contents, so a global
    aggregate above it materialises its COUNT = 0 row there.
    """

    _STATE_ATTRS = ("_initial", "_staged")

    def __init__(self, scan: RelationScan, initial: Bag) -> None:
        super().__init__([])
        self.scan = scan
        self._initial: Bag | None = initial
        self._staged: list[Delta] = []

    def stage_updates(self, deltas: Iterable[Delta]) -> None:
        """Queue signed changes for the next instant, each record
        relabelled to the scan's (alias-qualified) schema."""
        schema = self.scan.schema
        self._staged.extend([(record.with_schema(schema), mult)
                             for record, mult in deltas])

    def process_instant(self, t: Timestamp) -> tuple[list[Delta], bool]:
        active = self._initial is not None or bool(self._staged)
        deltas = (self._timed_process(t, []) if _obs_state.enabled
                  else self.process(t, []))
        self.emitted += len(deltas)
        return deltas, active

    def process(self, t: Timestamp,
                child_deltas: list[list[Delta]]) -> list[Delta]:
        staged, self._staged = self._staged, []
        if self._initial is None:
            return staged
        schema = self.scan.schema
        out = [(record.with_schema(schema), count)
               for record, count in self._initial.items()]
        self._initial = None
        return out + staged


# ---------------------------------------------------------------------------
# Stateless operators
# ---------------------------------------------------------------------------


class FilterOp(PhysicalOp):
    def __init__(self, child: PhysicalOp,
                 predicate: Callable[[Record], bool]) -> None:
        super().__init__([child])
        self._predicate = predicate

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        predicate = self._predicate
        return [delta for delta in deltas if predicate(delta[0])]


class ProjectOp(PhysicalOp):
    """π: one output row per delta, built under the compile-time schema."""

    def __init__(self, child: PhysicalOp,
                 evaluators: list[Callable[[Record], Any]],
                 schema: Schema) -> None:
        super().__init__([child])
        self._evaluators = evaluators
        self._schema = schema

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        schema, evaluators = self._schema, self._evaluators
        return [(trusted_record(schema, tuple([evaluate(record)
                                               for evaluate in evaluators])),
                 mult) for record, mult in deltas]


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
    ``{record: multiplicity}``.  Joined rows share the one output schema
    built at compile time, and a residual predicate filters them.
    """

    _STATE_ATTRS = ("_left_state", "_right_state")

    def __init__(self, left: PhysicalOp, right: PhysicalOp,
                 left_indexes: Sequence[int], right_indexes: Sequence[int],
                 schema: Schema,
                 residual: Callable[[Record], bool] | None) -> None:
        super().__init__([left, right])
        self._key_of = (_values_at(left_indexes), _values_at(right_indexes))
        self._schema = schema
        self._residual = residual
        #: The two sides' indexes; each one's tally is the net
        #: multiplicity it holds.
        self._left_state = KeyedState(self._weigh)
        self._right_state = KeyedState(self._weigh)

    @staticmethod
    def _weigh(entry: dict[Record, int]) -> int:
        """An index entry's net multiplicity."""
        return sum(entry.values())

    def process(self, t, child_deltas):
        left_deltas, right_deltas = child_deltas
        out: list[Delta] = []
        if left_deltas:
            self._side(0, left_deltas, out)
        if right_deltas:
            self._side(1, right_deltas, out)
        return out

    def _indexes(self, side: int) -> tuple[KeyedState, KeyedState]:
        """``(own index, other index)`` for ``side``."""
        if side == 0:
            return self._left_state, self._right_state
        return self._right_state, self._left_state

    def _side(self, side: int, deltas: list[Delta],
              out: list[Delta]) -> None:
        """One side's batch: probe the other index, fold into its own.

        SQL three-valued logic: a NULL key component can never satisfy
        the originating equality, so such a row joins nothing and is not
        indexed.  A retraction the index does not hold is refused before
        the index changes.
        """
        state, other_state = self._indexes(side)
        own, other = state.data, other_state.data
        key_of, schema, residual = self._key_of[side], self._schema, \
            self._residual
        append = out.append
        left = side == 0
        keys = []
        held = 0
        try:
            for record, mult in deltas:
                values = record._values
                key = key_of(values)
                if None in key:
                    continue
                matches = other.get(key)
                if matches:
                    for match, count in matches.items():
                        joined = trusted_record(
                            schema, values + match._values if left
                            else match._values + values)
                        if residual is None or residual(joined):
                            append((joined, mult * count))
                entry = own.get(key)
                count = mult if entry is None else entry.get(record, 0) + mult
                if count < 0:
                    raise StateError(
                        f"join retracts {record!r}, which its "
                        f"{'left' if left else 'right'} side does not hold")
                keys.append(key)
                if entry is None:
                    if count:
                        own[key] = {record: count}
                elif count:
                    entry[record] = count
                else:
                    entry.pop(record, None)
                    if not entry:
                        del own[key]
                held += mult
        finally:
            state.tally += held
            state.mark(keys)

    @property
    def state_size(self) -> int:
        """Tuples (net multiplicity) indexed on both sides."""
        return self._left_state.tally + self._right_state.tally


class AppendOnlyJoinOp(JoinOp):
    """Join over provably append-only inputs — the monotone fast path.

    The monotonicity pass (:mod:`repro.plan.monotone`) proves both input
    sub-plans are monotonic, so no retraction can ever arrive; each side
    indexes a key to a plain insert-only list of ``(record,
    multiplicity)`` instead of a multiplicity map.  This is the
    incremental SPJ rewrite of Section 3.2 applied at plan time, where —
    and only where — it is legal.
    """

    @staticmethod
    def _weigh(entry: list[Delta]) -> int:
        return sum(mult for _, mult in entry)

    def _side(self, side: int, deltas: list[Delta],
              out: list[Delta]) -> None:
        state, other_state = self._indexes(side)
        own, other = state.data, other_state.data
        key_of, schema, residual = self._key_of[side], self._schema, \
            self._residual
        left = side == 0
        keys = []
        held = 0
        try:
            for record, mult in deltas:
                if mult < 0:
                    raise StateError(
                        "retraction reached an append-only join")
                values = record._values
                key = key_of(values)
                if None in key:
                    continue
                entry = other.get(key)
                if entry:
                    for match, count in entry:
                        joined = trusted_record(
                            schema, values + match._values if left
                            else match._values + values)
                        if residual is None or residual(joined):
                            out.append((joined, mult * count))
                keys.append(key)
                entry = own.get(key)
                if entry is None:
                    own[key] = [(record, mult)]
                else:
                    entry.append((record, mult))
                held += mult
        finally:
            state.tally += held
            state.mark(keys)


class _MinMaxAccumulator:
    """Multiset of values with min/max on demand (supports retraction)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def copy(self) -> "_MinMaxAccumulator":
        out = _MinMaxAccumulator()
        out._counts = self._counts.copy()
        return out

    def __sizeof__(self) -> int:
        # What :meth:`copy` allocates: this object and its Counter.
        return object.__sizeof__(self) + getsizeof(self._counts)

    def add(self, value: Any, mult: int) -> None:
        """Fold ``mult`` copies of ``value`` in; a retraction of a value
        not held is refused before anything changes."""
        counts = self._counts
        held = counts.get(value, 0) + mult
        if held > 0:
            counts[value] = held
        elif held == 0:
            counts.pop(value, None)
        else:
            raise StateError(
                f"aggregate retracts value {value!r}, which it does not hold")

    def minimum(self) -> Any:
        return min(self._counts) if self._counts else None

    def maximum(self) -> Any:
        return max(self._counts) if self._counts else None


class _GroupState:
    """Per-group accumulators for one Aggregate operator."""

    __slots__ = ("rows", "counts", "sums", "minmax")

    def __init__(self, n_aggs: int) -> None:
        self.rows = 0                      # total input multiplicity
        self.counts = [0] * n_aggs         # non-null count per aggregate
        self.sums = [0] * n_aggs           # running sum (SUM / AVG)
        self.minmax: list[_MinMaxAccumulator | None] = [None] * n_aggs

    def copy(self) -> "_GroupState":
        out = _GroupState(0)
        out.rows = self.rows
        out.counts = list(self.counts)
        out.sums = list(self.sums)
        out.minmax = [None if acc is None else acc.copy()
                      for acc in self.minmax]
        return out

    def __sizeof__(self) -> int:
        # What :meth:`copy` allocates: this object, its three lists and
        # its MIN/MAX accumulators (the numbers in the lists are shared).
        return (object.__sizeof__(self) + getsizeof(self.counts)
                + getsizeof(self.sums) + getsizeof(self.minmax)
                + sum(getsizeof(acc) for acc in self.minmax
                      if acc is not None))


#: How an aggregate's argument folds into its group (see AggregateOp).
_COUNT_ROWS, _COUNT, _SUM, _MINMAX = range(4)
_FOLD_STEP = {
    AggregateKind.COUNT: _COUNT,
    AggregateKind.SUM: _SUM,
    AggregateKind.AVG: _SUM,
    AggregateKind.MIN: _MINMAX,
    AggregateKind.MAX: _MINMAX,
}


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

    _STATE_ATTRS = ("_groups", "_current_rows", "_child_active")

    def __init__(self, plan: Aggregate | WindowAggregate,
                 in_schema: Schema) -> None:
        super().__init__([])  # children attached by compiler
        self._plan = plan
        self._out_schema = plan.schema
        #: Group key from a row's values tuple, by position.
        self._key_of = _values_at(
            [in_schema.index_of(c) for c in plan.group_by])
        self._kinds = [spec.kind for spec in plan.aggregates]
        #: The compiled fold: per aggregate, how a row's argument folds
        #: into the group (``_COUNT_ROWS`` for COUNT(*), else ``_COUNT``,
        #: ``_SUM`` or ``_MINMAX``) and the argument's evaluator.
        self._folds = [
            (_COUNT_ROWS, None) if spec.arg is None
            else (_FOLD_STEP[spec.kind], compile_expr(spec.arg, in_schema))
            for spec in plan.aggregates]
        #: Group key -> its accumulators, and -> its current output row.
        self._groups = KeyedState()
        self._current_rows = KeyedState()
        self._global = not plan.group_by
        self._child_active = False

    def apply(self, t: Timestamp, child_deltas: list[list[Delta]],
              child_active: bool) -> tuple[list[Delta], bool]:
        # ``process`` consults the child's activity flag to decide when the
        # global group materialises its zero row, so stash it first.
        self._child_active = child_active
        return super().apply(t, child_deltas, child_active)

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        # The global group materialises its zero row at the first instant
        # the input subtree is active — matching the reference evaluator,
        # whose aggregate has a change point wherever its child does.
        groups = self._groups.data
        materialise_global = (self._global and not groups
                              and self._child_active)
        if not deltas and not materialise_global:
            return []
        n_aggs = len(self._folds)
        # Touched groups in first-touch order, each looked up once.
        touched: dict[tuple, _GroupState] = {}
        if self._global:
            group = groups.get(())
            if group is None:
                group = groups[()] = _GroupState(n_aggs)
            touched[()] = group
        key_of, folds = self._key_of, self._folds
        for record, mult in deltas:
            key = key_of(record._values)
            group = touched.get(key)
            if group is None:
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _GroupState(n_aggs)
                touched[key] = group
            group.rows += mult
            counts = group.counts
            i = 0
            for step, evaluator in folds:
                if step is _COUNT_ROWS:
                    counts[i] += mult
                else:
                    value = evaluator(record)
                    if value is not None:
                        counts[i] += mult
                        if step is _SUM:
                            group.sums[i] += value * mult
                        elif step is _MINMAX:
                            accumulator = group.minmax[i]
                            if accumulator is None:
                                accumulator = group.minmax[i] = \
                                    _MinMaxAccumulator()
                            accumulator.add(value, mult)
                i += 1
        self._groups.mark(touched)
        self._current_rows.mark(touched)
        out: list[Delta] = []
        current_rows = self._current_rows.data
        for key, group in touched.items():
            old_row = current_rows.get(key)
            new_row = self._row_for(key, group)
            if old_row == new_row:
                continue
            if old_row is not None:
                out.append((old_row, -1))
            if new_row is not None:
                out.append((new_row, 1))
                current_rows[key] = new_row
            else:
                del current_rows[key]
                del groups[key]
        return out

    @property
    def state_size(self) -> int:
        return len(self._groups.data)

    def _row_for(self, key: tuple, group: _GroupState) -> Record | None:
        rows = group.rows
        if rows <= 0 and (rows or any(group.counts)):
            raise StateError(
                f"aggregate group {key!r} retracts rows it does not hold")
        if rows == 0 and not self._global:
            return None
        values: list[Any] = list(key)
        for i, kind in enumerate(self._kinds):
            count = group.counts[i]
            if count <= 0:
                if count:
                    raise StateError(
                        f"aggregate group {key!r} retracts more non-NULL "
                        f"values than it holds")
                values.append(0 if kind is AggregateKind.COUNT else None)
            elif kind is AggregateKind.COUNT:
                values.append(count)
            elif kind is AggregateKind.SUM:
                values.append(group.sums[i])
            elif kind is AggregateKind.AVG:
                values.append(group.sums[i] / count)
            elif kind is AggregateKind.MIN:
                values.append(group.minmax[i].minimum())
            else:
                values.append(group.minmax[i].maximum())
        return trusted_record(self._out_schema, tuple(values))


class DistinctOp(PhysicalOp):
    """Incremental duplicate elimination: emits 0→1 and 1→0 transitions."""

    _STATE_ATTRS = ("_counts",)

    def __init__(self, child: PhysicalOp) -> None:
        super().__init__([child])
        #: Record -> its multiplicity in the input.
        self._counts = KeyedState()

    @property
    def state_size(self) -> int:
        return len(self._counts.data)

    def process(self, t, child_deltas):
        (deltas,) = child_deltas
        self._counts.mark(record for record, _ in deltas)
        counts = self._counts.data
        out: list[Delta] = []
        for record, mult in deltas:
            before = counts.get(record, 0)
            after = before + mult
            if after < 0:
                raise StateError(
                    f"distinct retracts {record!r}, which it does not hold")
            if after:
                counts[record] = after
            else:
                counts.pop(record, None)
            if not before:
                if after:
                    out.append((record, 1))
            elif not after:
                out.append((record, -1))
        return out


class AppendOnlyDistinctOp(DistinctOp):
    """Duplicate elimination over a provably append-only input.

    With no retractions possible, a seen-set (each record seen maps to
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
        self._seen.mark(record for record, _ in deltas)
        seen = self._seen.data
        out: list[Delta] = []
        for record, mult in deltas:
            if mult < 0:
                raise StateError(
                    "retraction reached an append-only distinct")
            if mult and record not in seen:
                seen[record] = True
                out.append((record, 1))
        return out


class SetOpOp(PhysicalOp):
    """Incremental bag union / difference / intersection.

    Union is linear (pass deltas through, relabelled to the output schema).
    Difference and intersection keep both sides' multiplicities and
    re-derive each affected record's output multiplicity — the monus or
    the minimum — emitting its signed change, so both stay exact under
    deletes.  Right-side rows are relabelled to the output (left) schema:
    set operations correspond by position.
    """

    _STATE_ATTRS = ("_left", "_right", "_out")

    def __init__(self, kind: str, left: PhysicalOp, right: PhysicalOp,
                 out_schema: Schema) -> None:
        super().__init__([left, right])
        self._kind = kind
        self._schema = out_schema
        #: Record -> its multiplicity on the left, on the right, and in
        #: the output.
        self._left = KeyedState()
        self._right = KeyedState()
        self._out = KeyedState()

    def process(self, t, child_deltas):
        schema = self._schema
        if self._kind == "union":
            return [(record.with_schema(schema), mult)
                    for deltas in child_deltas for record, mult in deltas]
        touched: dict[Record, None] = {}
        for side, deltas in zip(("left", "right"), child_deltas):
            held = (self._left if side == "left" else self._right).data
            for record, mult in deltas:
                record = record.with_schema(schema)
                count = held.get(record, 0) + mult
                if count < 0:
                    raise StateError(
                        f"{self._kind} retracts {record!r}, which its "
                        f"{side} side does not hold")
                if count:
                    held[record] = count
                else:
                    held.pop(record, None)
                touched[record] = None
        for state in (self._left, self._right, self._out):
            state.mark(touched)
        left, right, current = \
            self._left.data, self._right.data, self._out.data
        out: list[Delta] = []
        for record in touched:
            left_count = left.get(record, 0)
            right_count = right.get(record, 0)
            if self._kind == "difference":
                target = max(0, left_count - right_count)
            else:  # intersection
                target = min(left_count, right_count)
            change = target - current.get(record, 0)
            if change:
                out.append((record, change))
                if target:
                    current[record] = target
                else:
                    del current[record]
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


def _executor_append_only(node: LogicalOp) -> bool:
    """Append-only fast path legality for the executor.

    The static classifier calls relation scans monotonic (the append-only
    database model), but this executor supports deletes on base relations
    (:meth:`ContinuousQuery.update_relation`), so a subtree reading a
    relation may still see retractions and must keep counted state.
    """
    from repro.plan.ir import RelationScan as _RelScan, walk as _walk
    from repro.plan.monotone import append_only_inputs
    if not append_only_inputs(node):
        return False
    return not any(isinstance(n, _RelScan) for n in _walk(node))


def compile_plan(plan: LogicalOp, catalog: Catalog, agenda: Agenda,
                 memo=None, parallelism: int = 1,
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
    subtrees are published for later queries.  The caller must bracket the
    call with ``memo.start_compile()`` / ``memo.finish_compile()``.

    ``parallelism > 1`` fissions the plan (survey §4.2): the subtree at
    and below the scheme's ``boundary`` is compiled once per partition,
    under a :class:`PartitionUnionOp` that feeds the
    one spine above it.  Each logical node below the boundary then maps
    to one physical op per partition, in partition order, and so does
    each stream's source list: partition ``p`` owns the ``p``-th equal
    slice of it.  The plan must be key-partitionable.
    """
    stream_sources: dict[str, list[StreamSourceOp]] = defaultdict(list)
    relation_sources: dict[str, list[RelationSourceOp]] = defaultdict(list)
    node_map: dict[int, list[PhysicalOp]] = {}
    if memo is not None:
        from repro.plan.sharing import memo_key
    else:
        memo_key = None
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
            hit = memo.lookup(key)
            if hit is not None:
                shared_op, shared_streams = hit
                for name, sources in shared_streams.items():
                    stream_sources[name].extend(sources)
                _record(node, shared_op)
                return shared_op
        op = _build_fresh(node)
        if memo is not None:
            memo.publish(key, (op, _subtree_streams(op)))
        _record(node, op)
        return op

    def _record(node: LogicalOp, op: PhysicalOp) -> None:
        node_map.setdefault(id(node), []).append(op)
        if isinstance(node, WindowOp):
            # Pushed-below-window filters and the scan compiled *into*
            # the source op; point their logical nodes at it too.
            inner = node.child
            while isinstance(inner, Filter):
                node_map.setdefault(id(inner), []).append(op)
                inner = inner.child
            node_map.setdefault(id(inner), []).append(op)

    def _build_fresh(node: LogicalOp) -> PhysicalOp:
        if isinstance(node, WindowOp):
            # The optimizer may have pushed filters below the window; they
            # compile into a source prefilter (see StreamSourceOp).
            inner = node.child
            predicates = []
            while isinstance(inner, Filter):
                predicates.append(inner.predicate)
                inner = inner.child
            scan = inner
            if not isinstance(scan, StreamScan):
                raise PlanError("window operator must sit on a stream scan")
            prefilter = None
            if predicates:
                compiled = [compile_predicate(p, scan.schema)
                            for p in predicates]
                if len(compiled) == 1:
                    prefilter = compiled[0]
                else:
                    prefilter = (lambda r, _preds=compiled:
                                 all(p(r) for p in _preds))
            source = StreamSourceOp(scan, node.spec, agenda,
                                    prefilter=prefilter)
            stream_sources[scan.name].append(source)
            return source
        if isinstance(node, StreamScan):
            raise PlanError(
                f"bare stream scan {node.name!r}: apply a window first")
        if isinstance(node, RelationScan):
            source = RelationSourceOp(
                node, catalog.relation(node.name).contents.copy())
            relation_sources[node.name].append(source)
            return source
        if isinstance(node, Filter):
            child = build(node.child)
            predicate = compile_predicate(node.predicate, node.child.schema)
            return FilterOp(child, predicate)
        if isinstance(node, Project):
            child = build(node.child)
            return ProjectOp(child, [compile_expr(e, node.child.schema)
                                     for e in node.exprs], node.schema)
        if isinstance(node, Join):
            left = build(node.left)
            right = build(node.right)
            schema = node.schema
            residual = (compile_predicate(node.residual, schema)
                        if node.residual is not None else None)
            join_cls = (AppendOnlyJoinOp if _executor_append_only(node)
                        else JoinOp)
            return join_cls(
                left, right,
                [node.left.schema.index_of(c) for c in node.left_keys],
                [node.right.schema.index_of(c) for c in node.right_keys],
                schema, residual)
        if isinstance(node, (Aggregate, WindowAggregate)):
            if isinstance(node, WindowAggregate):
                if node.window is not None:
                    raise PlanError(
                        "group windows cannot appear in a dynamic-table "
                        "plan; a view materialises a running (changelog) "
                        "aggregate")
                if node.emit is not EmitMode.CHANGES:
                    raise PlanError(
                        f"EMIT {node.emit.value.upper()} is meaningless for "
                        f"a dynamic table; views always materialise changes")
            child = build(node.child)
            op = AggregateOp(node, node.child.schema)
            op.children = [child]
            return op
        if isinstance(node, Distinct):
            distinct_cls = (AppendOnlyDistinctOp
                            if _executor_append_only(node) else DistinctOp)
            return distinct_cls(build(node.child))
        if isinstance(node, SetOp):
            return SetOpOp(node.kind, build(node.left), build(node.right),
                           node.schema)
        raise PlanError(f"cannot compile plan node {node!r}")

    root_logical = plan.child if isinstance(plan, RelToStream) else plan
    root = build(root_logical)
    return (root, dict(stream_sources), dict(relation_sources), node_map,
            scheme)


# ---------------------------------------------------------------------------
# Instant evaluation
# ---------------------------------------------------------------------------


class InstantEvaluator:
    """Evaluates a physical operator DAG one instant at a time.

    The DAG's distinct operators are put in post-order (children first)
    once, when the evaluator is built, and each operator's inputs become
    slot indexes into the instant's results.  An instant then walks that
    order: a source reports ``process_instant(t)``; an inner operator
    ``apply``\\ s its children's deltas.  An operator reached from several
    roots (a subplan a :class:`~repro.cql.shared.SharedGroup` shares) runs
    once per instant and every consumer reads its batch by reference.
    Nothing is held between operators or between instants.
    """

    def __init__(self, roots: Sequence[PhysicalOp]) -> None:
        slots: dict[int, int] = {}
        steps: list[tuple[PhysicalOp, tuple[int, ...]]] = []

        def visit(op: PhysicalOp) -> None:
            if id(op) in slots:
                return
            for child in op.children:
                visit(child)
            slots[id(op)] = len(steps)
            steps.append((op, tuple(slots[id(child)]
                                    for child in op.children)))

        for root in roots:
            visit(root)
        #: Every distinct operator, children before parents.
        self.operators = [op for op, _ in steps]
        # One step per operator: a source's ``process_instant``, or an
        # inner operator's ``apply`` with its input slot (one child) or
        # slots (several).
        self._steps = [
            (op.process_instant, None) if not inputs
            else (op.apply, inputs[0] if len(inputs) == 1 else inputs)
            for op, inputs in steps]
        self._roots = [slots[id(root)] for root in roots]

    def run(self, t: Timestamp) -> list[tuple[list[Delta], bool]]:
        """Evaluate instant ``t``: one ``(deltas, active)`` per root."""
        results: list[tuple[list[Delta], bool]] = []
        append = results.append
        for step, inputs in self._steps:
            if inputs is None:
                append(step(t))
            elif inputs.__class__ is int:
                deltas, active = results[inputs]
                append(step(t, [deltas], active))
            else:
                reports = [results[slot] for slot in inputs]
                append(step(t, [deltas for deltas, _ in reports],
                            any(active for _, active in reports)))
        return [results[slot] for slot in self._roots]


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

    The one guard every feeding call (arrivals and relation updates, on a
    private query and on a shared group) runs before it touches state.
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


class ContinuousQuery:
    """A registered continuous query: compiled once, runs until cancelled.

    Feed arrivals with :meth:`push` / :meth:`push_batch`; the query responds
    with the output elements it produced (for R2S queries) and maintains its
    current relation state (inspect with :meth:`current`).  Use
    :meth:`run_recorded` to replay recorded streams with exact per-instant
    batching.

    ``parallelism > 1`` fissions a key-partitionable plan inside the query
    (see :func:`compile_plan`): each arrival is staged only into its
    key's partition, while the agenda, the maintained state, the
    change-log and the emissions stay single.
    :func:`repro.runtime.rescale.rescale` changes the width of a running
    query.
    """

    def __init__(self, plan: LogicalOp, catalog: Catalog,
                 shared=None, parallelism: int = 1) -> None:
        if parallelism < 1:
            raise PlanError(f"parallelism must be >= 1, got {parallelism}")
        self.plan = plan
        self.catalog = catalog
        self.r2s = plan.kind if isinstance(plan, RelToStream) else None
        self.output_schema = plan.schema
        #: The :class:`repro.cql.shared.SharedGroup` this query belongs to,
        #: or None for a private query.  A member compiles through the
        #: group's memo and agenda and has no evaluator of its own: the
        #: group evaluates every member's (possibly overlapping) tree.
        self._shared = shared
        self._agenda = shared.agenda if shared is not None else Agenda()
        #: :meth:`publish_metrics`' marks: (id(operator), field) → the
        #: value last published; (-1, "deltas") for the query total.
        self._published_ops: dict[tuple[int, str], int] = {}
        #: Growth a rescale's retired operators had not yet published:
        #: (operator name, depth-first index, field) → amount.
        self._retired_growth: dict[tuple[str, int, str], int] = {}
        self._install(compile_plan(
            plan, catalog, self._agenda,
            memo=shared.memo if shared is not None else None,
            parallelism=parallelism), parallelism)
        self._state = Bag()
        self._log: list[tuple[Timestamp, Bag]] = []
        self._emissions: list[Emission] = []
        #: Emissions produced by group instants another member triggered,
        #: waiting to be returned from this member's next feeding call.
        self._undelivered: list[Emission] = []
        #: The newest instant evaluated, changed or not: feeding behind it
        #: is refused (:func:`check_feed_time`).
        self._last_instant: Timestamp | None = None
        self._deltas_processed = 0
        #: Bytes the last :meth:`snapshot` allocated; None before the first.
        self.barrier_bytes: int | None = None
        self._eval_hist = None

    def _install(self, compiled: tuple, parallelism: int) -> None:
        """Adopt a tree :func:`compile_plan` built at ``parallelism`` (at
        construction, and again when a live rescale swaps the width)."""
        retired = self.operators() if self._published_ops else None
        #: ``_scheme``: the plan's PartitionScheme when fissioned, else None.
        (self._root, self._stream_sources, self._relation_sources,
         self._phys_by_logical, self._scheme) = compiled
        #: The newest checkpoint (see :meth:`snapshot`) and the change-log
        #: tail it keeps by reference; a new tree has no recovery image.
        self._checkpoint: dict[str, Any] | None = None
        self._tail: tuple[Timestamp, Bag] | None = None
        #: The number of key partitions the plan runs in (1: serial).
        self.parallelism = parallelism
        self._evaluator = (InstantEvaluator([self._root])
                           if self._shared is None else None)
        #: Fissioned queries only: stream name → (the router from an
        #: arrival's values to its partition, each partition's staging).
        self._routes: dict[str, tuple[Callable, list]] | None = None
        if parallelism > 1:
            router = self._scheme.router
            self._routes = {}
            for name, sources in self._stream_sources.items():
                each = len(sources) // parallelism
                self._routes[name] = (router(name, parallelism), [
                    [(source.stage, source.scan.schema)
                     for source in sources[p * each:(p + 1) * each]]
                    for p in range(parallelism)])
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

    # -- feeding -------------------------------------------------------------

    def start(self, at: Timestamp = 0) -> list[Emission]:
        """Process the registration instant: flushes base relations' initial
        contents so the maintained state matches the reference semantics
        from time ``at`` on."""
        if self._shared is not None:
            return self._shared.start(self, at)
        check_feed_time(at, self._last_instant)
        return self._process_instant(at)

    def push(self, stream_name: str, row: Mapping[str, Any] | Record,
             timestamp: Timestamp) -> list[Emission]:
        """Push one element into ``stream_name`` at ``timestamp``."""
        return self.push_batch(timestamp, {stream_name: [row]})

    def push_batch(self, timestamp: Timestamp,
                   arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                   | Record]],
                   ) -> list[Emission]:
        """Push all arrivals carrying ``timestamp``, atomically.

        Earlier agenda work (window expirations due before ``timestamp``)
        is processed first, then the batch.  Returns the emissions produced
        from the missed instants and this batch.
        """
        if self._shared is not None:
            return self._shared.push_batch(timestamp, arrivals, member=self)
        check_feed_time(timestamp, self._last_instant)
        emitted = self._process_instants(self._agenda.due(timestamp - 1))
        routes = self._routes
        for name, rows in arrivals.items():
            sources = self._stream_sources.get(name)
            if not sources:
                raise PlanError(
                    f"query does not read stream {name!r}")
            base_schema = self.catalog.stream(name).schema
            if routes is not None:
                self._stage_routed(routes[name], base_schema, rows,
                                   timestamp)
                continue
            staging = [(source.stage, source.scan.schema)
                       for source in sources]
            for row in rows:
                # A Record is taken as converted already (the DSMS
                # converts and validates each arrival once, at ingest);
                # every source relabels it once to its scan's layout.
                record = (row if isinstance(row, Record)
                          else Record.from_mapping(base_schema, row))
                for stage, schema in staging:
                    stage(record.with_schema(schema), timestamp)
        self._agenda.due(timestamp)  # consume anything scheduled == now
        emitted.extend(self._process_instant(timestamp))
        return emitted

    @staticmethod
    def _stage_routed(route: tuple[Callable, list], base_schema: Schema,
                      rows: Sequence[Mapping[str, Any] | Record],
                      timestamp: Timestamp) -> None:
        """:meth:`push_batch`'s staging for a fissioned query: each row
        goes to the sources of the one partition that owns its key."""
        router, staging = route
        for row in rows:
            record = (row if isinstance(row, Record)
                      else Record.from_mapping(base_schema, row))
            for stage, schema in staging[router(record._values)]:
                stage(record.with_schema(schema), timestamp)

    def update_relation(self, name: str, row: Mapping[str, Any] | Record,
                        mult: int, timestamp: Timestamp) -> list[Emission]:
        """Apply an insert (+mult) / delete (-mult) to a base relation the
        query reads, propagating incrementally (InvaliDB-style push).

        Refused like :meth:`push_batch` when ``timestamp`` is before the
        epoch or behind the query's newest instant.  Earlier agenda work
        runs first, so the update lands at ``timestamp``.
        """
        if self._shared is not None:
            return self._shared.update_relation(name, row, mult, timestamp,
                                                member=self)
        sources = self._relation_sources.get(name)
        if not sources:
            raise PlanError(f"query does not read relation {name!r}")
        base_schema = self.catalog.relation(name).schema
        record = (row if isinstance(row, Record)
                  else Record.from_mapping(base_schema, row))
        check_feed_time(timestamp, self._last_instant)
        emitted = self._process_instants(self._agenda.due(timestamp - 1))
        for source in sources:
            source.stage_updates([(record, mult)])
        self._agenda.due(timestamp)  # consume anything scheduled == now
        emitted.extend(self._process_instant(timestamp))
        return emitted

    def advance_to(self, timestamp: Timestamp) -> list[Emission]:
        """Advance event time without new data (fires due expirations)."""
        if self._shared is not None:
            return self._shared.advance_to(timestamp, member=self)
        return self._process_instants(self._agenda.due(timestamp))

    def finish(self) -> list[Emission]:
        """Drain all scheduled future work (window closes after end of
        input) and return the final emissions."""
        if self._shared is not None:
            return self._shared.finish(member=self)
        return self._process_instants(self._agenda.drain())

    def _drain_undelivered(self) -> list[Emission]:
        """Collect emissions buffered while other group members drove
        processing (shared groups only)."""
        out, self._undelivered = self._undelivered, []
        return out

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A barrier: move the query's recovery point to now and return
        what it wrote — every operator's state, the agenda, and the
        query's maintained relation, change-log and emissions.

        Taken between instants, the checkpoint plus the input suffix
        replayed from the same point reproduces the fault-free run
        exactly — the property the kernel-crashed difftest leg checks.
        Operators write the keys they changed since the previous barrier
        (every key at the first, see :meth:`PhysicalOp.barrier`); the
        emissions are append-only, so they write their length; the agenda
        (bounded by the widest window) is copied.  The change-log only
        grows, except that a fold at its tail's instant replaces or drops
        the tail (see :meth:`_log_state`): it writes its length and keeps
        the tail entry by reference, as
        :meth:`repro.dsms.components.Store.snapshot` does — the same
        never-mutated Bag, so it is not written twice.  It may be taken
        between quanta, inside an instant whose remaining arrivals are
        still to come.  :attr:`barrier_bytes` is the operators' tallies
        plus the agenda copy.  The recovery image stays inside the query,
        so :meth:`restore` takes the newest checkpoint only.  Shared-group
        members cannot checkpoint independently: their operator state
        interleaves with other members'.
        """
        if self._shared is not None:
            raise StateError(
                "shared-group queries cannot be checkpointed independently")
        agenda = self._agenda.snapshot()
        ops = [op for _, op in self.operators()]
        self._checkpoint = {
            "agenda": agenda,
            "log": len(self._log),
            "emissions": len(self._emissions),
            "last_instant": self._last_instant,
            "deltas_processed": self._deltas_processed,
            "operators": [op.barrier() for op in ops],
        }
        self._tail = self._log[-1] if self._log else None
        self.barrier_bytes = (getsizeof(agenda["heap"])
                              + getsizeof(agenda["scheduled"])
                              + sum(op.barrier_bytes for op in ops))
        return self._checkpoint

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll back in place to the newest checkpoint (``payload`` is
        what :meth:`snapshot` returned for it).

        Operators restore only the keys they changed since; the log and
        the emissions are cut back to their lengths then, the log's tail
        entry is put back, and the maintained relation is that tail
        again.  The compiled tree is reused, and any partially processed
        instant left over from a crash (staged arrivals) is discarded.
        Repeatable: the checkpoint is not consumed.
        """
        point = self._checkpoint
        if point is None or payload is not point:
            raise StateError(
                "only the newest checkpoint can be restored (and none "
                "taken before a rescale): the query keeps one recovery "
                "image")
        for _, op in self.operators():
            op.rollback()
        self._agenda.restore(point["agenda"])
        if point["log"]:
            self._log[point["log"] - 1:] = [self._tail]
            self._state = self._tail[1].copy()
        else:
            self._log.clear()
            self._state = Bag()
        del self._emissions[point["emissions"]:]
        self._last_instant = point["last_instant"]
        self._deltas_processed = point["deltas_processed"]

    # -- processing ----------------------------------------------------------

    def _process_instants(self, ts: list[Timestamp]) -> list[Emission]:
        """Process several due instants in order."""
        emitted: list[Emission] = []
        for t in ts:
            emitted.extend(self._process_instant(t))
        return emitted

    def _process_instant(self, t: Timestamp) -> list[Emission]:
        if _obs_state.enabled:
            if self._eval_hist is None:
                self._eval_hist = _obs_registry().histogram(
                    "exec.query.instant_eval_seconds", layer="cql")
            started = time.perf_counter()
            [(deltas, _active)] = self._evaluator.run(t)
            self._eval_hist.observe(time.perf_counter() - started)
        else:
            [(deltas, _active)] = self._evaluator.run(t)
        return self._apply_instant(t, deltas)

    def _apply_instant(self, t: Timestamp,
                       deltas: list[Delta]) -> list[Emission]:
        """Fold one instant's root deltas into state, log and emissions.

        Split from :meth:`_process_instant` so a shared group can evaluate
        all member plans in one pass and hand each member its own root
        batch.
        """
        self._deltas_processed += len(deltas)
        # Cancel opposite-signed deltas within the instant: the reference
        # semantics only sees the *net* change R(τ) − R(τ−).  Rows rarely
        # repeat within an instant, so the net is first taken as one
        # dict build (one hash per row) and summed only when some row
        # did repeat.
        net = dict(deltas)
        if len(net) != len(deltas) or 0 in net.values():
            net = {}
            for record, mult in deltas:
                net[record] = net.get(record, 0) + mult
            net = {r: m for r, m in net.items() if m}
        if not net:
            self._last_instant = t
            return []
        # All or nothing: a refused retraction leaves the state, the log,
        # the emissions and the clock as they were.
        self._state.apply_signed(net)
        self._last_instant = t
        self._log_state(t)
        r2s = self.r2s
        if r2s is None:
            return []
        if r2s is R2SKind.ISTREAM:
            emitted = [Emission(r, t) for r, m in net.items() if m > 0
                       for _ in range(m)]
        elif r2s is R2SKind.DSTREAM:
            emitted = [Emission(r, t) for r, m in net.items() if m < 0
                       for _ in range(-m)]
        else:
            emitted = [Emission(r, t) for r, m in self._state.items()
                       for _ in range(m)]
        self._emissions.extend(emitted)
        return emitted

    def _log_state(self, t: Timestamp) -> None:
        """Log the working state as instant ``t``'s: one entry per instant,
        however the instant's arrivals were split into folds.

        A fold at the instant the log already ends at replaces the tail
        (the Store's rule, :meth:`repro.dsms.components.Store.write`), or
        drops it when the state is back where the instant started — one
        fold of the whole instant would have logged nothing.  An entry is
        the one copy of its instant, compact and never mutated again,
        which the Store holds by reference too (see :attr:`state`).
        """
        log = self._log
        if log and log[-1][0] == t:
            if self._state == (log[-2][1] if len(log) > 1 else EMPTY_BAG):
                log.pop()
            else:
                log[-1] = (t, self._state.copy())
        else:
            log.append((t, self._state.copy()))

    # -- inspection ----------------------------------------------------------

    def current(self) -> Bag:
        """The maintained relation state right now (a private copy)."""
        return self._state.copy()

    @property
    def state(self) -> Bag:
        """The maintained relation state right now, *not* copied: the
        change-log's newest entry (the shared empty Bag before the first
        change).

        Logged Bags are never mutated (the fold keeps a private working
        state and logs one copy of it per instant), so this may be kept —
        the DSMS Store holds it by reference — but must not be changed.
        """
        return self._log[-1][1] if self._log else EMPTY_BAG

    def emissions(self) -> list[Emission]:
        """All output elements produced so far (R2S queries)."""
        return list(self._emissions)

    def emitted_stream(self) -> Stream[Record]:
        """The output as a :class:`Stream` (sorted within each instant so
        it compares stably against the reference)."""
        out: Stream[Record] = Stream(schema=self.output_schema)
        by_time: dict[Timestamp, list[Record]] = defaultdict(list)
        for emission in self._emissions:
            by_time[emission.timestamp].append(emission.record)
        for t in sorted(by_time):
            for record in sorted(by_time[t], key=repr):
                out.append(record, t)
        return out

    def as_relation(self) -> TimeVaryingRelation:
        """The maintained state's change-log as a time-varying relation
        (the log holds one state per instant, see :meth:`_log_state`)."""
        return TimeVaryingRelation.from_snapshots(
            self._log, schema=self.output_schema)

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
