"""Kernel operators for incremental view maintenance over CDC deltas.

Each operator consumes and emits :class:`~repro.views.delta.Delta`
z-set entries (signed, weighted rows) and implements the standard delta
rules of incremental view maintenance.  A refresh arrives as one batch
per source, and every operator keeps it one: ``process_batch`` walks the
batch and hands its whole output downstream in a single ``emit_batch``;
``process_element`` is a batch of one, never a second path.

* filter / project — stateless, weight-preserving (and fusible, so a
  ``σ → π`` prefix collapses into one kernel node);
* aggregate — the *affected-keys* strategy (Elghandour et al.): a batch
  of deltas is grouped by key first, and only the touched groups are
  re-emitted as a retract + insert pair.  Each group is one flat state
  list folded by per-kind steps — COUNT keeps an int, SUM/AVG a count and
  a total, MIN/MAX a value multiset — behind a kernel
  :class:`~repro.exec.state.StateBackend`;
* distinct — per-row multiplicity with emission only on 0↔positive
  support transitions;
* set ops — per-row (left, right) multiplicity pairs: union adds,
  difference is the monus, intersection the minimum — one operator, all
  three kinds, fully incremental under deletes;
* join — per-side key-indexed multiplicity maps; a delta on one side
  joins the other side's *current* index, which yields exactly
  Δ(A⋈B) = ΔA⋈B + (A+ΔA)⋈ΔB when the sides process sequentially (a
  one-side batch never changes the index it probes).

Every operator implements ``snapshot()``/``restore()`` (chaos recovery)
and ``initial_output()`` — the deltas its output contains over *empty*
input.  Only the global aggregate is non-trivial there: SQL says an
ungrouped aggregate over an empty relation is the single empty-aggregate
row (COUNT = 0), so view plans are *primed* sink-first at open time (see
:mod:`repro.views.compile`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from repro.core.errors import PlanError, StateError
from repro.core.operators import AggregateKind
from repro.core.records import Record, Schema, trusted_record
from repro.exec.operator import Operator, OperatorContext
from repro.exec.state import StateBackend
from repro.views.delta import Delta


def _key_getter(indexes: list[int]) -> Callable[[tuple], tuple]:
    """A key tuple from a row's values tuple, by position."""
    if len(indexes) == 1:
        index = indexes[0]
        return lambda values: (values[index],)
    if indexes:
        return itemgetter(*indexes)
    return lambda values: ()


class DeltaOperator(Operator):
    """Base: a kernel operator over :class:`Delta` batches."""

    def process_element(self, value: Any, input_index: int = 0) -> None:
        self.process_batch([value], input_index)

    def initial_output(self) -> list[Delta]:
        """This operator's output over empty input (priming deltas)."""
        return []


class DeltaFilterOp(DeltaOperator):
    """σ over deltas: forward when the predicate holds for the row."""

    fusible = True

    def __init__(self, predicate: Callable[[Record], bool]) -> None:
        self._predicate = predicate

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        predicate = self._predicate
        out = [delta for delta in batch if predicate(delta.row)]
        if out:
            self.emit_batch(out)


class DeltaProjectOp(DeltaOperator):
    """π over deltas: rewrite the row, keep the weight."""

    fusible = True

    def __init__(self, evaluators: list[Callable[[Record], Any]],
                 out_schema: Schema) -> None:
        self._evaluators = evaluators
        self._schema = out_schema

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        schema, evaluators = self._schema, self._evaluators
        out = []
        append = out.append
        for delta in batch:
            row = delta.row
            append(Delta(trusted_record(
                schema, tuple([evaluate(row) for evaluate in evaluators])),
                delta.weight))
        if out:
            self.emit_batch(out)


#: How an aggregate's argument folds into its group's state list.
#: COUNT(*) needs no step: it reads the group's row count.
_COUNT, _SUM, _MINMAX = range(3)
_FOLD_STEP = {
    AggregateKind.COUNT: _COUNT,
    AggregateKind.SUM: _SUM,
    AggregateKind.AVG: _SUM,
    AggregateKind.MIN: _MINMAX,
    AggregateKind.MAX: _MINMAX,
}

#: A group's state list: its base-row count, the output row it currently
#: contributes (``None`` while it contributes none), then the per-kind
#: slots — one non-null count for COUNT, a count and a total for
#: SUM/AVG, a value → multiplicity dict for MIN/MAX.
_ROWS, _OUT = 0, 1


class DeltaAggregateOp(DeltaOperator):
    """Grouped aggregation with affected-keys incremental refresh.

    A batch touches only the groups its deltas mention; each touched
    group is looked up once, folded over the compiled per-kind steps and
    emits (old row retract, new row insert), skipping the pair entirely
    when the aggregate landed on the same value.

    A group disappears when its base-row count reaches zero — except the
    global ``()`` group of an ungrouped aggregate, whose output is then
    the SQL empty-aggregate row (COUNT = 0, other aggregates NULL).
    NULL arguments are skipped: COUNT counts non-null values and the
    other aggregates over zero non-null values are NULL.
    """

    def __init__(self, group_indexes: list[int],
                 evaluators: list[Callable[[Record], Any] | None],
                 kinds: list[AggregateKind], out_schema: Schema) -> None:
        self._key_of = _key_getter(group_indexes)
        self._schema = out_schema
        #: The compiled fold: ``(step, evaluator, slot)`` per aggregate
        #: with an argument; the output: ``(kind, slot)`` per aggregate,
        #: COUNT(*) reading the row count.
        self._folds: list[tuple[int, Callable[[Record], Any], int]] = []
        self._outputs: list[tuple[AggregateKind, int]] = []
        template: list[Any] = [0, None]
        for kind, evaluator in zip(kinds, evaluators):
            if evaluator is None:  # COUNT(*)
                self._outputs.append((kind, _ROWS))
                continue
            step, slot = _FOLD_STEP[kind], len(template)
            self._folds.append((step, evaluator, slot))
            self._outputs.append((kind, slot))
            template.extend([None] if step is _MINMAX else
                            [0] * (2 if step is _SUM else 1))
        self._multisets = [slot for step, _, slot in self._folds
                           if step is _MINMAX]
        #: Slots that count rows and so must never go negative.
        self._counts = [_ROWS] + [slot for step, _, slot in self._folds
                                  if step is not _MINMAX]
        self._template = template
        self._empty_row = (None if group_indexes
                           else self._output_row((), self._fresh()))
        template[_OUT] = self._empty_row
        self._state: StateBackend | None = None

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._state = ctx.new_state()

    def initial_output(self) -> list[Delta]:
        return [] if self._empty_row is None else [Delta(self._empty_row, 1)]

    def _fresh(self) -> list[Any]:
        group = self._template.copy()
        for slot in self._multisets:
            group[slot] = {}
        return group

    def _output_row(self, key: tuple, group: list[Any]) -> Record:
        values = list(key)
        append = values.append
        for kind, slot in self._outputs:
            value = group[slot]
            if kind is AggregateKind.COUNT:
                append(value)
            elif not value:  # no non-null value: NULL
                append(None)
            elif kind is AggregateKind.SUM:
                append(group[slot + 1])
            elif kind is AggregateKind.AVG:
                append(group[slot + 1] / value)
            elif kind is AggregateKind.MIN:
                append(min(value))
            else:
                append(max(value))
        return trusted_record(self._schema, tuple(values))

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        # Affected-keys scoping: fold each delta into its group, every
        # touched group fetched from state once per batch.
        state, key_of, folds = self._state, self._key_of, self._folds
        touched: dict[tuple, list[Any]] = {}
        for delta in batch:
            row, weight = delta.row, delta.weight
            key = key_of(row._values)
            group = touched.get(key)
            if group is None:
                group = state.get(key)
                if group is None:
                    group = self._fresh()
                touched[key] = group
            group[_ROWS] += weight
            for step, evaluator, slot in folds:
                value = evaluator(row)
                if value is None:
                    continue
                if step is _MINMAX:
                    multiset = group[slot]
                    held = multiset.get(value, 0) + weight
                    if held > 0:
                        multiset[value] = held
                    elif held == 0:
                        del multiset[value]
                    else:
                        raise StateError(
                            f"aggregate group {key!r} retracts value "
                            f"{value!r} it does not hold")
                else:
                    group[slot] += weight
                    if step is _SUM:
                        group[slot + 1] += value * weight
        out: list[Delta] = []
        counts = self._counts
        for key, group in touched.items():
            if any(group[slot] < 0 for slot in counts):
                raise StateError(
                    f"aggregate group {key!r} driven below zero rows")
            old_row = group[_OUT]
            if group[_ROWS]:
                new_row = group[_OUT] = self._output_row(key, group)
                state.put(key, group)
            else:
                state.delete(key)
                new_row = self._empty_row
            if old_row == new_row:
                continue
            if old_row is not None:
                out.append(Delta(old_row, -1))
            if new_row is not None:
                out.append(Delta(new_row, 1))
        if out:
            self.emit_batch(out)

    def snapshot(self) -> Any:
        # The output row is derived state: dropped here, rebuilt on
        # restore.  Multisets are the only mutable slots to copy.
        image = []
        for key, group in self._state.items():
            group = group.copy()
            group[_OUT] = None
            for slot in self._multisets:
                group[slot] = dict(group[slot])
            image.append((key, group))
        return image

    def restore(self, state: Any) -> None:
        self._state = self.ctx.new_state()
        groups = []
        for key, group in state:
            group = group.copy()
            for slot in self._multisets:
                group[slot] = dict(group[slot])
            group[_OUT] = self._output_row(key, group)
            groups.append((key, group))
        self._state.put_many(groups)


class DeltaDistinctOp(DeltaOperator):
    """δ over deltas: emit only on 0 ↔ positive support transitions."""

    def __init__(self) -> None:
        self._state: StateBackend | None = None

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._state = ctx.new_state()

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        state = self._state
        out = []
        for delta in batch:
            row = delta.row
            old = state.get(row, 0)
            new = old + delta.weight
            if new < 0:
                raise StateError(f"distinct support of {row!r} below zero")
            if new:
                state.put(row, new)
            else:
                state.delete(row)
            if old == 0 and new > 0:
                out.append(Delta(row, 1))
            elif old > 0 and new == 0:
                out.append(Delta(row, -1))
        if out:
            self.emit_batch(out)

    def snapshot(self) -> Any:
        return list(self._state.items())

    def restore(self, state: Any) -> None:
        self._state = self.ctx.new_state()
        self._state.put_many(state)


class DeltaSetOp(DeltaOperator):
    """Bag union / difference / intersection over two delta inputs.

    State per row: its (left, right) multiplicities.  The output
    multiplicity is a pure function of that pair — sum, monus, or min —
    so any input delta emits exactly the signed change of that function.
    Right-side rows are relabelled to the left schema (positional
    correspondence, as in SQL set operations).
    """

    _FUNCS = {
        "union": lambda l, r: l + r,
        "difference": lambda l, r: max(0, l - r),
        "intersection": lambda l, r: min(l, r),
    }

    def __init__(self, kind: str, left_schema: Schema) -> None:
        if kind not in self._FUNCS:
            raise PlanError(f"bad set-op kind {kind!r}")
        self.kind = kind
        self._fn = self._FUNCS[kind]
        self._schema = left_schema
        self._state: StateBackend | None = None

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._state = ctx.new_state()

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        state, fn = self._state, self._fn
        out = []
        for delta in batch:
            row = (delta.row if input_index == 0
                   else delta.row.with_schema(self._schema))
            left, right = state.get(row, (0, 0))
            old_out = fn(left, right)
            if input_index == 0:
                left += delta.weight
            else:
                right += delta.weight
            if left < 0 or right < 0:
                raise StateError(
                    f"set-op multiplicity of {row!r} below zero")
            if left or right:
                state.put(row, (left, right))
            else:
                state.delete(row)
            change = fn(left, right) - old_out
            if change:
                out.append(Delta(row, change))
        if out:
            self.emit_batch(out)

    def snapshot(self) -> Any:
        return list(self._state.items())

    def restore(self, state: Any) -> None:
        self._state = self.ctx.new_state()
        self._state.put_many(state)


class DeltaJoinOp(DeltaOperator):
    """Incremental equi/cross join over two delta inputs.

    Each side keeps a key → {row: multiplicity} index.  A delta joins
    the *other* side's current index (emitting weight × multiplicity per
    match), then lands in its own index — processing the two sides
    sequentially yields exactly the delta of the join.  A batch comes
    from one side, so the index it probes stays put while it is walked.
    Joined rows share one precomputed ``out_schema``.  Equi-joins skip
    NULL keys, matching the core reference semantics.
    """

    def __init__(self, left_key_indexes: list[int],
                 right_key_indexes: list[int], out_schema: Schema,
                 residual: Callable[[Record], bool] | None = None) -> None:
        if len(left_key_indexes) != len(right_key_indexes):
            raise PlanError("join key arity mismatch")
        self._key_of = (_key_getter(left_key_indexes),
                        _key_getter(right_key_indexes))
        self._equi = bool(left_key_indexes)
        self._schema = out_schema
        self._residual = residual
        self._indexes: tuple[StateBackend, StateBackend] | None = None

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._indexes = (ctx.new_state(), ctx.new_state())

    def process_batch(self, batch: Any, input_index: int = 0) -> None:
        key_of, equi = self._key_of[input_index], self._equi
        schema, residual = self._schema, self._residual
        own = self._indexes[input_index]
        other = self._indexes[1 - input_index]
        left = input_index == 0
        out: list[Delta] = []
        append = out.append
        for delta in batch:
            row, weight = delta.row, delta.weight
            values = row._values
            key = key_of(values)
            if equi and None in key:
                # NULL never equals NULL: the row can't join, but it
                # still lands in no index (it could never be matched).
                continue
            matches = other.get(key)
            if matches:
                for other_row, multiplicity in matches.items():
                    joined = trusted_record(
                        schema, values + other_row._values if left
                        else other_row._values + values)
                    if residual is None or residual(joined):
                        append(Delta(joined, weight * multiplicity))
            entry = own.get(key)
            if entry is None:
                entry = {}
            count = entry.get(row, 0) + weight
            if count < 0:
                raise StateError(f"join index multiplicity of {row!r} "
                                 f"below zero")
            if count:
                entry[row] = count
            else:
                entry.pop(row, None)
            if entry:
                own.put(key, entry)
            else:
                own.delete(key)
        if out:
            self.emit_batch(out)

    def snapshot(self) -> Any:
        return [[(key, dict(rows)) for key, rows in side.items()]
                for side in self._indexes]

    def restore(self, state: Any) -> None:
        self._indexes = (self.ctx.new_state(), self.ctx.new_state())
        for side, entries in zip(self._indexes, state):
            side.put_many((key, dict(rows)) for key, rows in entries)
