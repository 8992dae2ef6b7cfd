"""Generated per-plan kernels: one compiled Python function per plan shape.

DBToaster (the paper's §5.1) compiles view maintenance into specialised
trigger code, and data-centric compilation (Neumann, "Efficiently
Compiling Efficient Query Plans for Modern Hardware", VLDB 2011) fuses an
operator's per-row work into one loop with no call per value.  This
module does that, in Python, for the row loops that run per arrival and
per instant:

* the aggregate instant (:func:`aggregate_kernel`): one function keys
  each delta's values tuple by position, folds every aggregate inline,
  finishes each touched group's values tuple, compares it with the old
  one and emits ``-old``/``+new``;
* the source prefilter (:func:`prefilter_kernel`): one list
  comprehension over an instant's arrivals, with ``column <op> literal``
  conjuncts inlined and any other conjunct called as its closure;
* the stateless spine (:func:`spine_kernel`): one list comprehension per
  maximal Filter/Project chain, its predicates inlined as the
  prefilter's are and its output tuple spelled by position;
* each input of a join (:func:`join_kernel`): one probe-and-fold loop
  that reads the key by position, probes every other input's index,
  tests the residuals inline and emits the joined row — or, when a
  Filter/Project chain sits on the join, that chain's output tuple, so
  no concatenated row is built for it;
* the row coercer (:func:`coercer_kernel`): one function per record
  layout that reads a mapping's fields in order with the declared type
  checks inlined, and hands any row it does not take to
  :meth:`Schema.coerce`;
* the DSMS arrival door (:func:`door_kernel`): one function per stream
  layout and binding flags that takes a run of arrivals through the
  progress check, the coercer's lines, the recovery log and each
  reader's open queue run, calling nothing per row but a queue's
  ``offer`` at a run's or a mark's edge.

A kernel's source depends only on the plan's *shape* — positions,
aggregate kinds, comparison operators, a layout's field and type names —
never on literals, types or compiled evaluators, which are bound when
the kernel is built.  So a plan kernel renders into a :class:`Kernel`,
its factory and the values it binds, and :meth:`Kernel.bind` makes the
callable; a plan of the same shape with other literals in its slots
(see :func:`repro.cql.lexer.shape`) binds the same rendered kernel to
its own values, rendering nothing.  Each source is compiled once per
process into a factory, cached under the source text in a bounded LRU
(:data:`CACHE_SIZE`), so building a kernel whose shape is cached costs
rendering the source and one dict lookup.  Each compiled source is registered with
:mod:`linecache` under a pseudo-filename that spells its shape (an
aggregate's keys and kinds, a spine's predicates and outputs, a join
input's key and emitted columns, a coercer's or a door's layout), so a
traceback or a profile line through a kernel names the plan node it
runs and shows the generated line.  This is the only module under ``repro`` that compiles
code.
"""

from __future__ import annotations

import linecache
from collections import OrderedDict
from functools import lru_cache, partial
from itertools import count
from operator import attrgetter, length_hint
from sys import getsizeof
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.core.errors import StateError
from repro.core.operators import AggregateKind
from repro.core.records import Schema
from repro.cql.expressions import (
    column_vs_literal,
    compile_expr,
    compile_predicate,
)
from repro.plan.exprs import (
    Column,
    Expr,
    Literal,
    bind_literals,
    literal_values,
    split_conjuncts,
)


class _MinMaxAccumulator:
    """Multiset of values with min/max on demand (supports retraction)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        # An exact dict of value → copies held, each positive.
        self._counts: dict[Any, int] = {}

    def copy(self) -> "_MinMaxAccumulator":
        out = _MinMaxAccumulator()
        out._counts = self._counts.copy()
        return out

    def __sizeof__(self) -> int:
        # What :meth:`copy` allocates: this object and its dict.
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
        # Non-null count per argument aggregate (COUNT(*) reads ``rows``).
        self.counts = [0] * n_aggs
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


# ---------------------------------------------------------------------------
# The factory cache
# ---------------------------------------------------------------------------

#: How many compiled factories the process keeps; the least recently
#: used one goes (with its linecache entry) when a new one would pass it.
CACHE_SIZE = 64

#: Source text -> (factory, pseudo-filename), least recently used first.
_factories: OrderedDict[str, tuple[Callable, str]] = OrderedDict()

#: Numbers the rare pseudo-filename two cached sources would share.
_clashes = count(2)

#: The names generated code reads besides its factory's arguments.
_RUNTIME = {
    "StateError": StateError,
    "length_hint": length_hint,
    "_GroupState": _GroupState,
    "_MinMaxAccumulator": _MinMaxAccumulator,
}


def _factory(kind: str, source: str, name: str) -> Callable:
    """The ``factory`` function ``source`` defines, compiled on first
    use and cached under the source text; its pseudo-filename is
    ``<kind name>``, where ``name`` spells the shape the source renders
    (a cached source of another rendering of the same shape, as a
    mutant makes, has the filename first, so this one is numbered)."""
    entry = _factories.get(source)
    if entry is not None:
        _factories.move_to_end(source)
        return entry[0]
    filename = f"<{kind} {name}>"
    if any(filename == cached for _, cached in _factories.values()):
        filename = f"<{kind} {name} #{next(_clashes)}>"
    namespace = dict(_RUNTIME)
    exec(compile(source, filename, "exec"), namespace)
    # mtime None: linecache.checkcache() keeps the entry.
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    _factories[source] = (namespace["factory"], filename)
    while len(_factories) > CACHE_SIZE:
        _, (_, evicted) = _factories.popitem(last=False)
        linecache.cache.pop(evicted, None)
    return namespace["factory"]


def _unpack(names: Sequence[str], sequence: str) -> list[str]:
    """A line binding ``names`` from ``sequence``; none for no names."""
    if not names:
        return []
    return [f"{', '.join(names)}, = {sequence}"]


def _block(lines: Sequence[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


#: A value a kernel binds: ``(name, expr, make)``, the value being
#: ``make(expr)`` — a literal's value, or the closure compiled from an
#: expression.
Bound = tuple[str, Expr, Callable[[Expr], Any]]

#: ``make`` for a literal bound as a constant.
_value = attrgetter("value")


class Kernel:
    """A rendered kernel: its compiled factory and the values it binds.

    ``values`` are those of the plan it was rendered from; ``rebound``
    lists, as ``(index, expr, make)``, each one whose expression holds a
    slotted literal, so that a plan of the same shape binds its own
    value there, ``make(expr)`` with that plan's literals in the slots."""

    __slots__ = ("factory", "values", "rebound")

    def __init__(self, factory: Callable, bound: Sequence[Bound]) -> None:
        self.factory = factory
        self.values = [make(expr) for _, expr, make in bound]
        self.rebound = tuple((index, expr, make) for index, (_, expr, make)
                             in enumerate(bound) if literal_values(expr, {}))

    def bind(self, literals: Mapping[int, Any] | None = None) -> Callable:
        """The kernel for the plan whose slot values are ``literals``
        (None: the plan it was rendered from)."""
        values = self.values
        if literals is not None and self.rebound:
            values = list(values)
            for index, expr, make in self.rebound:
                values[index] = make(bind_literals(expr, literals))
        return self.factory(values)


class Kernels(NamedTuple):
    """What :func:`~repro.cql.executor.compile_plan` binds a plan's
    kernels from: the table of its shape's rendered kernels, keyed by
    kind and site, shared by every plan of the shape; the plan's own
    ``literals``, slot -> value; its ``sites``, ``id(node) ->`` the node's
    pre-order position, which is the same in every plan of one shape;
    and the kernels ``bound`` for the plan so far, by the same keys, so
    that compiling it again binds nothing."""

    table: dict[tuple, Any]
    literals: dict[int, Any]
    sites: dict[int, int]
    bound: dict[tuple, Any]


# ---------------------------------------------------------------------------
# The aggregate instant
# ---------------------------------------------------------------------------


def _count_step(slot: int, value: str) -> list[str]:
    return [f"if {value} is not None:",
            f"    group.counts[{slot}] += mult"]


def _sum_step(slot: int, value: str) -> list[str]:
    return [f"if {value} is not None:",
            f"    group.counts[{slot}] += mult",
            f"    group.sums[{slot}] += {value} * mult"]


def _minmax_step(slot: int, value: str, refusable: bool = False) \
        -> list[str]:
    """A MIN/MAX fold step: the value goes into the slot's accumulator
    first, whose add refuses a retraction it does not hold before
    anything of the slot changes.  ``refusable`` renders the undo's form
    (see :func:`_aggregate_source`): the accumulator held in ``refused``
    refused this delta, so this step and the rest of the delta never
    ran (the fold it undoes made every accumulator it reaches)."""
    held = ["    if accumulator is refused:",
            "        refused = None",
            "        continue"] if refusable else [
        "    if accumulator is None:",
        f"        accumulator = group.minmax[{slot}] = _MinMaxAccumulator()"]
    return [f"if {value} is not None:",
            f"    accumulator = group.minmax[{slot}]",
            *held,
            f"    accumulator.add({value}, mult)",
            f"    group.counts[{slot}] += mult"]


#: Per aggregate kind with an argument, the emitter of its fold step:
#: ``(slot, value) -> source lines`` that fold the argument held in the
#: local ``value`` into ``group``, ``mult`` times, skipping NULL.
#: COUNT(*) has no step: it is the group's ``rows``.
STEPS: dict[AggregateKind, Callable[[int, str], list[str]]] = {
    AggregateKind.COUNT: _count_step,
    AggregateKind.SUM: _sum_step,
    AggregateKind.AVG: _sum_step,
    AggregateKind.MIN: _minmax_step,
    AggregateKind.MAX: _minmax_step,
}


def _finished(kind: AggregateKind, slot: int) -> str:
    """An argument aggregate's output value from its group's locals: NULL
    over no non-NULL value, except COUNT's 0."""
    count = f"count{slot}"
    if kind is AggregateKind.COUNT:
        return count
    if kind is AggregateKind.SUM:
        value = f"sums[{slot}]"
    elif kind is AggregateKind.AVG:
        value = f"sums[{slot}] / {count}"
    elif kind is AggregateKind.MIN:
        value = f"minmax[{slot}].minimum()"
    else:
        value = f"minmax[{slot}].maximum()"
    return f"({value} if {count} else None)"


def _aggregate_source(keys: Sequence[int], aggregates: Sequence[tuple],
                      n_evaluators: int) -> str:
    """The factory source for one aggregate shape.

    ``keys`` are the group columns' input positions (none: the global
    group); ``aggregates`` is ``(kind, read)`` per output aggregate, where
    ``read`` is the argument's source expression (None for COUNT(*)).

    A group is keyed by its column's bare value when there is one
    column, by the tuple of them when there are more, and the global
    group by ``()`` — the key :func:`repro.runtime.partitioning.key_router`
    reads at the same positions.

    An instant is all or nothing: a refusal — a MIN/MAX accumulator's
    add mid-fold, or a touched group's check after the fold — folds the
    instant's folded deltas back out, newest first, with the rendered
    ``undo``, drops the groups the instant created (those with no
    current row) and re-raises, so the accumulators, the rows and the
    answer stay as they were.  The accepted path does no extra work per
    delta: ``undo`` learns how far the fold got from the deltas'
    iterator, and which accumulator refused from the fold's local.
    """
    grouped = bool(keys)
    bare = len(keys) == 1
    slots = [slot for slot, (_, read) in enumerate(aggregates)
             if read is not None]
    minmax = {AggregateKind.MIN, AggregateKind.MAX}
    refusable = any(aggregates[slot][0] in minmax for slot in slots)

    def fold(undo: bool) -> list[str]:
        lines: list[str] = []
        for slot in slots:
            kind, read = aggregates[slot]
            step = _minmax_step(slot, "value", True) \
                if undo and kind in minmax else STEPS[kind](slot, "value")
            lines += [f"value = {read}", *step]
        return lines

    if bare:
        key = f"values[{keys[0]}]"
        label = "(key,)"
    else:
        key = _tuple([f"values[{position}]" for position in keys])
        label = "key"
    body = []
    if grouped:
        start = [
            "if not deltas:",
            "    return []",
            "touched = {}",
        ]
        body += [
            f"key = {key}",
            "group = touched.get(key)",
            "if group is None:",
            "    group = groups.get(key)",
            "    if group is None:",
            f"        group = groups[key] = _GroupState({len(aggregates)})",
            "    touched[key] = group",
        ]
    else:
        # The global group materialises its zero row at the first instant
        # the input subtree is active — matching the reference evaluator,
        # whose aggregate has a change point wherever its child does.
        start = [
            "if not deltas and (groups or not op._child_active):",
            "    return []",
            "group = groups.get(())",
            "if group is None:",
            f"    group = groups[()] = _GroupState({len(aggregates)})",
            "touched = {(): group}",
        ]
    body += ["group.rows += mult", *fold(False)]
    counts = [f"count{slot}" for slot in slots]
    load = [
        "rows = group.rows",
        *(["counts = group.counts"] if slots else []),
        *[f"count{slot} = counts[{slot}]" for slot in slots],
    ]
    check = [
        f"if rows <= 0 and ({' or '.join(['rows', *counts])}):",
        "    raise StateError(",
        f"        f\"aggregate group {{{label}!r}} retracts rows it does not "
        f"hold\")",
    ]
    if slots:
        check += [
            f"if {' or '.join(f'{count} < 0' for count in counts)}:",
            "    raise StateError(",
            f"        f\"aggregate group {{{label}!r}} retracts more non-NULL "
            f"values \"",
            "        f\"than it holds\")",
        ]
    emit = ["old_row = current_rows.get(key)"]
    if grouped:
        emit += [
            "if not rows:",
            "    if old_row is not None:",
            "        out.append((old_row, -1))",
            "        del current_rows[key]",
            "    del groups[key]",
            "    continue",
        ]
    kinds = {aggregates[slot][0] for slot in slots}
    if kinds & {AggregateKind.SUM, AggregateKind.AVG}:
        emit.append("sums = group.sums")
    if kinds & minmax:
        emit.append("minmax = group.minmax")
    group_columns = ["key"] if bare else [
        f"key[{index}]" for index in range(len(keys))]
    finished = group_columns + [
        "rows" if read is None else _finished(kind, slot)
        for slot, (kind, read) in enumerate(aggregates)]
    emit += [
        f"finished = ({', '.join(finished)},)",
        "if old_row is not None:",
        "    if old_row == finished:",
        "        continue",
        "    out.append((old_row, -1))",
        "out.append((finished, 1))",
        "current_rows[key] = finished",
    ]
    refuse = ["except StateError:",
              "    undo(groups, current_rows, touched, deltas, len(deltas),",
              "         None)",
              "    raise"]
    # The answer moves only once every touched group has passed its
    # check: a query or view whose change-log holds these rows reads a
    # refused instant's answer as it was.  The global group is the only
    # group touched, so its check comes first in the one loop.
    if grouped:
        loops = [
            "        try:",
            "            for key, group in touched.items():",
            *_block(load + check, 4),
            *_block(refuse, 2),
            "        for key, group in touched.items():",
            *_block(load + emit, 3),
        ]
    else:
        loops = [
            "        try:",
            "            for key, group in touched.items():",
            *_block(load + check + emit, 4),
            *_block(refuse, 2),
        ]
    if refusable:
        deltas = "iterator"
        fold_start = ["        accumulator = None",
                      "        iterator = iter(deltas)"]
        fold_refused = [
            "        except StateError:",
            "            undo(groups, op._current_rows.data, touched, deltas,",
            "                 len(deltas) - length_hint(iterator), accumulator)",
            "            raise",
        ]
    else:
        deltas, fold_start, fold_refused = "deltas", [], []
    evaluators = [f"evaluate{index}" for index in range(n_evaluators)]
    lines = [
        "def factory(evaluators):",
        *_block(_unpack(evaluators, "evaluators"), 1),
        "    def undo(groups, current_rows, touched, deltas, folded, refused):",
        "        for position in range(folded - 1, -1, -1):",
        "            values, mult = deltas[position]",
        "            mult = -mult",
        f"            group = groups[{key if grouped else '()'}]",
        "            group.rows += mult",
        *_block(fold(True), 3),
        "        for key in touched:",
        "            if key not in current_rows:",
        "                del groups[key]",
        "    def aggregate(op, t, child_deltas):",
        "        (deltas,) = child_deltas",
        "        groups_state = op._groups",
        "        groups = groups_state.data",
        *_block(start, 2),
        *fold_start,
        "        try:",
        f"            for values, mult in {deltas}:",
        *_block(body, 4),
        *fold_refused,
        "        finally:",
        "            if groups_state.marking:",
        "                groups_state.mark(touched)",
        "        rows_state = op._current_rows",
        "        if rows_state.marking:",
        "            rows_state.mark(touched)",
        "        current_rows = rows_state.data",
        "        out = []",
        *loops,
        "        return out",
        "    return aggregate",
    ]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=CACHE_SIZE)
def _rendered_aggregate(keys: tuple[int, ...], shape: tuple[tuple, ...],
                        n_evaluators: int, steps: tuple[Callable, ...]) -> str:
    """:func:`_aggregate_source`, rendered once per shape in the process
    rather than once per engine that compiles it.  ``steps`` are the
    :data:`STEPS` emitters the shape folds with, in the key only: a
    patched emitter (a mutant) renders its own source."""
    return _aggregate_source(keys, shape, n_evaluators)


def aggregate_kernel(group_by: Sequence[str], aggregates: Sequence,
                     in_schema: Schema) -> Kernel:
    """The generated ``process`` of an aggregate: ``kernel(op, t,
    child_deltas) -> deltas`` over ``op``'s ``_groups``,
    ``_current_rows`` and ``_child_active``.

    ``aggregates`` are the plan's :class:`~repro.plan.ir.AggregateExpr`;
    a bare-column argument is read by position, any other is evaluated
    by its compiled closure, bound by :meth:`Kernel.bind`.
    """
    evaluators: list[Bound] = []
    shape, labels = [], []
    for spec in aggregates:
        if spec.arg is None:
            read, label = None, "*"
        elif isinstance(spec.arg, Column):
            position = in_schema.index_of(spec.arg.name)
            read, label = f"values[{position}]", f"[{position}]"
        else:
            read = f"evaluate{len(evaluators)}(values)"
            label = f"e{len(evaluators)}"
            evaluators.append((label, spec.arg,
                               partial(compile_expr, schema=in_schema)))
        shape.append((spec.kind, read))
        labels.append(f"{spec.kind.name}({label})")
    keys = tuple(in_schema.index_of(column) for column in group_by)
    source = _rendered_aggregate(
        keys, tuple(shape), len(evaluators),
        tuple(STEPS[kind] for kind, read in shape if read is not None))
    name = ", ".join(labels)
    if keys:
        name = f"by {', '.join(f'[{key}]' for key in keys)}: {name}"
    return Kernel(_factory("aggregate", source, name), evaluators)


# ---------------------------------------------------------------------------
# Row tests and output tuples: the prefilter, the spine and the join
# ---------------------------------------------------------------------------

#: Python's spelling of each comparison :func:`column_vs_literal` finds.
_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
            "ge": ">="}

#: ``column(position) -> (source, label)``: how a kernel reads a column of
#: the row it tests — the source expression, and how its shape names it.
ColumnReader = Callable[[int], tuple[str, str]]


def _at(row: str) -> ColumnReader:
    """Columns read by position from the one tuple ``row``."""
    return lambda position: (f"{row}[{position}]", f"[{position}]")


def _conjuncts(predicates: Sequence[Expr], schema: Schema,
               column: ColumnReader, row: str,
               bound: list[Bound]) -> tuple[list[str], list[str]]:
    """The source terms that all hold exactly when every predicate holds
    for a row of ``schema``, and their shape labels.

    Each predicate is split into its AND-ed conjuncts.  A ``column <op>
    literal`` conjunct is inlined with the NULL semantics of
    :func:`~repro.cql.expressions.compile_predicate` (a NULL column is
    false); any other is called as its compiled closure on ``row``.  A
    predicate that is not an AND passes on a ``True`` result, as
    ``compile_predicate`` has it, and the conjuncts of an AND on truthy
    ones, which is when SQL's three-valued AND is ``True``.  Literals and
    closures are appended to ``bound`` under the names the terms use.
    """
    terms, labels = [], []
    for predicate in predicates:
        conjuncts = split_conjuncts(predicate)
        whole = len(conjuncts) == 1
        for conjunct in conjuncts:
            index = len(bound)
            simple = column_vs_literal(conjunct, schema)
            if simple is not None:
                position, comparison, _ = simple
                read, label = column(position)
                symbol = _SYMBOLS[comparison.__name__]
                test = f"(v{index} {symbol} c{index})"
                terms.append(f"(v{index} := {read}) is not None and "
                             + (f"{test} is True" if whole else test))
                labels.append(f"{label} {symbol} c{index}")
                bound.append((f"c{index}", conjunct.right, _value))
            else:
                terms.append(f"p{index}({row})")
                labels.append(f"p{index}")
                bound.append((f"p{index}", conjunct, partial(
                    compile_predicate if whole else compile_expr,
                    schema=schema)))
    return terms, labels


def _outputs(outputs: Sequence[Expr], schema: Schema, column: ColumnReader,
             row: str, bound: list[Bound]) \
        -> tuple[list[str], list[str]]:
    """The source of each output value of a row of ``schema``, and its
    shape label: a column is read in place, a literal bound as a
    constant and any other expression called as its compiled closure on
    ``row``."""
    items, labels = [], []
    for expr in outputs:
        index = len(bound)
        if isinstance(expr, Column):
            item, label = column(schema.index_of(expr.name))
        elif isinstance(expr, Literal):
            item = label = f"c{index}"
            bound.append((item, expr, _value))
        else:
            item, label = f"e{index}({row})", f"e{index}"
            bound.append((f"e{index}", expr,
                          partial(compile_expr, schema=schema)))
        items.append(item)
        labels.append(label)
    return items, labels


def _tuple(items: Sequence[str]) -> str:
    """The source of a tuple display of ``items``."""
    return f"({''.join(f'{item}, ' for item in items)})"


def _listed(labels: Sequence[str]) -> str:
    """Shape labels as a parenthesised list, for a pseudo-filename."""
    return f"({', '.join(labels)})"


def _comprehension(head: str, terms: Sequence[str]) -> list[str]:
    """A ``return [head ... if term and ...]`` statement, one term a line."""
    return [f"return [{head}",
            *[f"        {'and' if position else 'if'} {term}"
              for position, term in enumerate(terms)],
            "        ]"]


def _render(bound: list[Bound], name: str,
            body: list[str], kind: str, shape: str) -> Kernel:
    """The kernel ``name`` that ``body`` defines, from the factory source
    around it, which binds ``bound``'s values."""
    lines = [
        "def factory(bound):",
        *_block(_unpack([slot for slot, _, _ in bound], "bound"), 1),
        *_block(body, 1),
        f"    return {name}",
    ]
    return Kernel(_factory(kind, "\n".join(lines) + "\n", shape), bound)


def prefilter_kernel(predicates: Sequence[Expr], schema: Schema) -> Kernel:
    """The generated batch filter of a window source: ``kernel(rows) ->
    the values tuples every predicate holds for``, in order (see
    :func:`_conjuncts` for how each predicate is tested).  Its
    pseudo-filename spells the tests, e.g. ``<prefilter [2] > c0>``."""
    bound: list[Bound] = []
    terms, labels = _conjuncts(predicates, schema, _at("values"), "values",
                               bound)
    body = ["def prefilter(rows):",
            *_block(_comprehension("values for values in rows", terms), 1)]
    return _render(bound, "prefilter", body, "prefilter",
                   " and ".join(labels))


# ---------------------------------------------------------------------------
# The stateless spine
# ---------------------------------------------------------------------------


def spine_kernel(predicates: Sequence[Expr], outputs: Sequence[Expr] | None,
                 schema: Schema) -> Kernel:
    """The generated instant of a Filter/Project chain: ``kernel(deltas)
    -> deltas``, keeping the deltas whose row every predicate holds for
    (see :func:`_conjuncts`) and, with ``outputs``, replacing each kept
    row by the tuple of its output values (see :func:`_outputs`); the
    kept deltas themselves without.  ``predicates`` and ``outputs`` are
    over the chain's input layout ``schema``.  The pseudo-filename spells
    both, e.g. ``<spine where [2] > c0 emit ([0], [1])>``."""
    bound: list[Bound] = []
    if outputs is None:
        terms, tests = _conjuncts(predicates, schema, _at("pair[0]"),
                                  "pair[0]", bound)
        head, shape = "pair for pair in deltas", []
    else:
        terms, tests = _conjuncts(predicates, schema, _at("values"),
                                  "values", bound)
        items, labels = _outputs(outputs, schema, _at("values"), "values",
                                 bound)
        head = f"({_tuple(items)}, mult) for values, mult in deltas"
        shape = [f"emit {_listed(labels)}"]
    if tests:
        shape.insert(0, "where " + " and ".join(tests))
    body = ["def spine(deltas):", *_block(_comprehension(head, terms), 1)]
    return _render(bound, "spine", body, "spine", " ".join(shape))


# ---------------------------------------------------------------------------
# The join probe
# ---------------------------------------------------------------------------


def _join_letter(index: int, inputs: int) -> str:
    """How a probe's shape names input ``index`` of ``inputs``: ``l`` and
    ``r`` for a binary join's two, else ``a``, ``b``, ``c``, ..."""
    return "lr"[index] if inputs == 2 else chr(ord("a") + index)


def _join_column(probing: int, position: int,
                 widths: Sequence[int]) -> tuple[str, str]:
    """Joined-row column ``position`` inside input ``probing``'s probe:
    read from ``values`` (the probing row) or ``match<j>`` (input ``j``'s
    matching row), labelled by its input's letter and its offset in that
    input's row (see :func:`_join_letter`)."""
    index, offset = 0, position
    while offset >= widths[index]:
        offset -= widths[index]
        index += 1
    row = "values" if index == probing else f"match{index}"
    return f"{row}[{offset}]", f"{_join_letter(index, len(widths))}{offset}"


def join_kernel(side: int, keys: Sequence[Sequence[int]],
                predicates: Sequence[Expr],
                outputs: Sequence[Expr] | None, schema: Schema,
                widths: Sequence[int]) -> Kernel:
    """The generated probe-and-fold of one input of an n-input equi-join:
    ``kernel(op, deltas, out)`` probes every other input's index with
    each of input ``side``'s deltas, appends what it joins to ``out`` and
    folds the delta into its own index (``op._state<side>``).

    ``keys[i]`` are the key columns' positions in input ``i``'s rows:
    the inputs share one key, and every index is keyed by the one key
    column's bare value, by the tuple of them for several and by ``()``
    for none (a binary cross join) — as :func:`_aggregate_source` keys a
    group.  A NULL component joins nothing and is not indexed (SQL
    three-valued logic: it can never satisfy the originating equality).
    A delta at key ``k`` reads every other input's entry at ``k``; if
    any is empty it joins nothing, else it joins each combination of
    their rows, nested in input order, with multiplicity ``mult`` times
    their counts.  A joined row passes when every predicate holds for it
    (the joins' residuals, then any filters fused above the join; see
    :func:`_conjuncts`), over the joined layout ``schema``: the inputs'
    rows concatenated in input order, ``widths`` columns each.  It is
    emitted as that concatenation or — with ``outputs`` — as the tuple
    of its output values read from the input rows in place.  An input
    refuses a retraction it does not hold before its index changes.  The
    pseudo-filename names the input, its key and emitted columns (see
    :func:`_join_letter`), e.g. ``<join left on (l0) emit (l1, r1)>`` or
    ``<join b of 3 on (b0) emit (a1, b1, c1)>``.
    """
    inputs = len(widths)
    others = [index for index in range(inputs) if index != side]
    if inputs == 2:
        name = ("left", "right")[side]
        function, holder = f"probe_{name}", f"{name} side"
    else:
        letter = _join_letter(side, inputs)
        name, function = f"{letter} of {inputs}", f"probe_{letter}"
        holder = f"input {letter}"

    def column(position: int) -> tuple[str, str]:
        return _join_column(side, position, widths)

    bound: list[Bound] = []
    terms, tests = _conjuncts(predicates, schema, column, "joined", bound)
    own = sum(widths[:side])
    shape = [f"{name} on "
             f"{_listed([column(own + key)[1] for key in keys[side]])}"]
    if tests:
        shape.append("where " + " and ".join(tests))
    if outputs is not None:
        items, labels = _outputs(outputs, schema, column, "joined", bound)
        emit = _tuple(items)
        shape.append(f"emit {_listed(labels)}")
    # A closure takes the joined row: build it once per match, only then.
    closures = any(slot[0] in "pe" for slot, _, _ in bound)
    concatenation = " + ".join("values" if index == side
                               else f"match{index}"
                               for index in range(inputs))
    if outputs is None:
        emit = "joined" if closures else concatenation
    weight = " * ".join(["mult", *(f"count{index}" for index in others)])
    probe = [*([f"joined = {concatenation}"] if closures else [])]
    if terms:
        probe += [f"if {' and '.join(terms)}:",
                  f"    append(({emit}, {weight}))"]
    else:
        probe.append(f"append(({emit}, {weight}))")
    # Each other input's entry at the key, looked up in input order (an
    # empty one ends the probe), then their rows, nested in input order.
    for index in reversed(others):
        probe = [f"for match{index}, count{index} in "
                 f"matches{index}.items():", *_block(probe, 1)]
    for index in reversed(others):
        probe = [f"matches{index} = index{index}.get(key)",
                 f"if matches{index}:", *_block(probe, 1)]
    names = [f"k{index}" for index in range(len(keys[side]))]
    read = [f"{name} = values[{key}]"
            for name, key in zip(names, keys[side])]
    if names:
        read += [f"if {' or '.join(f'{name} is None' for name in names)}:",
                 "    continue"]
    body = [
        *read,
        f"key = {names[0] if len(names) == 1 else _tuple(names)}",
        *probe,
        "entry = own.get(key)",
        "count = mult if entry is None else entry.get(values, 0) + mult",
        "if count < 0:",
        "    raise StateError(",
        "        f\"join retracts {values!r}, which its \"",
        f"        f\"{holder} does not hold\")",
        "keys.append(key)",
        "if entry is None:",
        "    if count:",
        "        own[key] = {values: count}",
        "elif count:",
        "    entry[values] = count",
        "else:",
        "    entry.pop(values, None)",
        "    if not entry:",
        "        del own[key]",
        "held += mult",
    ]
    kernel = [
        f"def {function}(op, deltas, out):",
        f"    state = op._state{side}",
        "    own = state.data",
        *[f"    index{index} = op._state{index}.data" for index in others],
        "    append = out.append",
        "    keys = []",
        "    held = 0",
        "    try:",
        "        for values, mult in deltas:",
        *_block(body, 3),
        "    finally:",
        "        state.tally += held",
        "        if state.marking:",
        "            state.mark(keys)",
    ]
    return _render(bound, function, kernel, "join", " ".join(shape))


# ---------------------------------------------------------------------------
# The row coercer and the arrival door
# ---------------------------------------------------------------------------


def _layout(schema: Schema) -> str:
    """A layout as its kernels' sources and pseudo-filenames spell it:
    field names, and type names where declared, e.g. ``(id: int, room)``."""
    return "(" + ", ".join(name if expected is None
                           else f"{name}: {expected.__name__}"
                           for name, expected in zip(schema.fields,
                                                     schema.types)) + ")"


def _typed(schema: Schema) -> list[int]:
    """The positions of ``schema``'s declared types (bound as ``t<i>``)."""
    return [i for i, expected in enumerate(schema.types)
            if expected is not None]


def _coercion(schema: Schema, take: Callable[[str], str]) -> list[str]:
    """The source lines that coerce the local ``row`` into a values tuple
    of ``schema`` and ``take`` it (``take(expr)`` renders the statement
    that does, e.g. ``return expr``): a ``dict`` is read field by field
    with the declared type checks inlined (against the bound ``t<i>``),
    one of ``schema``'s own Records is taken as the plain tuple of its
    values (a Record never enters the engine: it equals no plain tuple),
    and every other row goes to the bound ``coerce``
    (:meth:`Schema.coerce`), which takes it or raises."""
    names = [f"v{i}" for i in range(len(schema.fields))]
    read = [f"{name} = row[{field!r}]"
            for name, field in zip(names, schema.fields)]
    built = [take(f"({''.join(f'{name}, ' for name in names)})")]
    checks = [f"not isinstance(v{i}, t{i}) and v{i} is not None"
              for i in _typed(schema)]
    if checks:
        built = [f"if {' or '.join(f'({check})' for check in checks)}:",
                 f"    {take('coerce(row)')}",
                 "else:", *_block(built, 1)]
    if read:
        built = ["try:", *_block(read, 1),
                 "except KeyError:", f"    {take('coerce(row)')}",
                 "else:", *_block(built, 1)]
    return [
        "if isinstance(row, dict):",
        *_block(built, 1),
        "elif getattr(row, '_schema', None) is schema:",
        f"    {take('tuple(row)')}",
        "else:",
        f"    {take('coerce(row)')}",
    ]


def coercer_kernel(schema: Schema) -> Callable[[Any], tuple]:
    """The generated row coercer of ``schema``: ``coerce(row) -> values
    tuple``, returning what :meth:`Schema.coerce` returns.

    A mapping (a ``dict``) is read field by field with the declared type
    checks inlined, and one of ``schema``'s own Records is taken as the
    plain tuple of its values.  Every other row — a missing key, a wrong type, a Record of any
    other schema — goes to :meth:`Schema.coerce`, which takes it or
    raises, so refusals and their messages have one source.  The source
    spells the layout — field names, and type names where declared — in
    its first line, and its pseudo-filename is named after it, e.g.
    ``<coercer (id: int, room, temp)>``; the types are bound here.
    """
    layout = _layout(schema)
    typed = _typed(schema)
    lines = [
        f"# layout {layout!r}",
        "def factory(schema, coerce, types):",
        *_block(_unpack([f"t{i}" for i in typed], "types"), 1),
        "    def coercer(row):",
        *_block(_coercion(schema, lambda value: f"return {value}"), 2),
        "    return coercer",
    ]
    factory = _factory("coercer", "\n".join(lines) + "\n", layout)
    return factory(schema, schema.coerce, [schema.types[i] for i in typed])


#: The door's binding flags, in the order :func:`door_kernel` passes
#: them, and the word each adds to a door's pseudo-filename.
_DOOR_FLAGS = ("logged", "viewed", "policed")


def _door_source(schema: Schema, logged: bool, viewed: bool,
                 policed: bool) -> str:
    """The factory source of the door of ``schema``'s layout for a
    binding with (or without) recovery's arrival log (``logged``), a
    views base table (``viewed``) and readers whose policy can refuse
    (``policed``); see :func:`door_kernel`."""
    layout = _layout(schema)
    typed = _typed(schema)

    def assign(value: str) -> str:
        return f"values = {value}"

    def admit(run: bool) -> list[str]:
        """The readers' part: for each tuple of ``coerced`` (``run``) or
        for the one tuple in ``values``."""

        def per_row(body: list[str]) -> list[str]:
            return ["for values in coerced:", *_block(body, 1)] if run \
                else body

        lines = [
            "admitted = 0",
            "if state.enabled:",
            *_block(per_row(["engine.stall_detector.note_arrival(stream)",
                             "for unit in units:",
                             "    admitted += unit.offer(values, t, stream)"]),
                    1),
            "    return admitted",
            "for queue, each, unit in plain:",
            *_block(per_row([
                "depth = queue.pending",
                "if (depth < queue.calm and queue._open_t == t",
                "        and queue._open_stream == stream):",
                "    queue._open.append(values)",
                "    queue.pending = depth + 1",
                "    admitted += each",
                "elif queue.offer(values, t, stream):",
                "    admitted += each",
                "else:",
                "    unit.dropped(stream)"]), 1),
        ]
        if policed:
            # Rows outer, units inner, as a loop of ``ingest`` offers them.
            lines += per_row(["for unit in policed:",
                              "    admitted += unit.offer(values, t, stream)"])
        return [*lines, "return admitted"]

    def logging(run: bool) -> list[str]:
        if not logged:
            return []
        append = ["engine._arrival_log.append(('ingest', stream, values, t))"]
        return ["recovery.start()",
                *(["for values in coerced:", *_block(append, 1)] if run
                  else append)]

    def committing(deltas: str) -> list[str]:
        if not viewed:
            return []
        return ["views = engine.views",
                f"views._commit(table, {deltas},",
                "              t if t > views.clock else None)"]

    lines = [
        f"# layout {layout!r}",
        "def factory(schema, coerce, types):",
        *_block(_unpack([f"t{i}" for i in typed], "types"), 1),
        "    def build(engine, stream, table, units, plain, policed, behind,",
        "              state):",
        "        watermarks = engine._watermarks",
        *(["        recovery = engine.recovery"] if logged else []),
        "        def door(row, t, rows=None, replay=False):",
        "            if rows is None and t >= engine._frontier:",
        *_block(_coercion(schema, assign), 4),
        "                engine._frontier = watermarks[stream] = t",
        *_block(logging(False), 4),
        *_block(committing("[(values, 1)]"), 4),
        *_block(admit(False), 4),
        "            if replay:",
        "                coerced = rows",
        "            else:",
        "                if rows is None:",
        "                    rows = (row,)",
        "                ahead = t >= engine._frontier",
        "                if not ahead:",
        "                    behind(t)",
        "                coerced = []",
        "                append = coerced.append",
        "                for row in rows:",
        *_block(_coercion(schema, assign), 5),
        "                    append(values)",
        "                if ahead:",
        "                    engine._frontier = watermarks[stream] = t",
        "                else:",
        "                    mark = watermarks.get(stream)",
        "                    if mark is None or t > mark:",
        "                        watermarks[stream] = t",
        *_block(logging(True), 4),
        *_block(committing("[(values, 1) for values in coerced]"), 3),
        *_block(admit(True), 3),
        "        return door",
        "    return build",
    ]
    return "\n".join(lines) + "\n"


def door_kernel(schema: Schema) -> Callable[..., Callable]:
    """The generated arrival door of a DSMS stream of ``schema``'s
    layout: ``build(engine, stream, table, units, plain, policed,
    behind, state) -> door``, where ``door(row, t)`` admits one arrival
    of ``stream`` at ``t`` and ``door(None, t, rows)`` a run of them (a
    sequence of rows); each returns how many ``(row, query)`` admissions
    it made.

    The source depends on the layout and on three flags of the binding
    — whether ``engine.recovery`` logs arrivals, whether the stream
    feeds a views base table (``table``) and whether any reader's policy
    can refuse (``policed``) — and never on how many readers there are.
    ``build`` renders and compiles a flag combination's source on first
    use, so the engine rebuilds a door after a register or cancel by
    calling it, rendering and compiling nothing for a combination it has
    seen.  A run, in order:

    * the progress check — an arrival at or past ``engine._frontier`` is
      in order; one behind it calls ``behind(t)``, which refuses it if it
      is late for a reading unit;
    * every row coerced into a values tuple (:func:`_coercion`, the
      coercer's lines) before any is admitted, so a bad row refuses the
      run with :meth:`Schema.coerce`'s ``SchemaError`` and leaves no
      trace;
    * the frontier and the stream's watermark (``engine._watermarks``)
      stored, and with recovery one arrival-log entry per row;
    * the run committed to ``table``, if any: at ``t`` when it is ahead
      of the views' clock, which only moves forward, and now otherwise —
      which the service stamps past every view that already reached the
      clock, so the next refresh pulls it;
    * the readers: each NoShedding unit (``plain``: its queue, the
      number of its members reading the stream and the unit) takes each
      row into its queue's open run inline — the depth read, the
      append, the depth stored — while the row joins that run below the
      queue's :attr:`~repro.dsms.queues.InputQueue.calm` depth; the
      queue's ``offer`` takes the edges, a new run or a queue at its
      pressure mark or capacity, and a bounced row goes to the unit's
      ``dropped``.  No book is kept per row: the queue's runs count what
      it admitted.  Every other unit (``policed``) gets
      ``SchedulingUnit.offer`` per row, which decides on a Record.
      While obs is on (``state.enabled``) every row notes the stall
      detector and goes to the ``offer`` of every reading unit
      (``units``), which observes the queue depth.

    One in-order row — every in-order ``ingest`` — takes the same steps
    with its tuple in a local, building no list and looping over no
    rows; one behind the frontier is a run of one.  ``door(None, t,
    rows, True)`` re-admits rows the door validated and logged before
    (a crash replay): it skips the check, the coercion, the watermark
    and the log.  The pseudo-filename spells the layout and the flags
    set, e.g. ``<door (id, room, temp)>`` or ``<door (id, room, temp)
    logged>``.
    """
    layout = _layout(schema)
    types = [schema.types[i] for i in _typed(schema)]
    #: Flags -> the build function of their source, made on first use.
    builders: dict[tuple[bool, bool, bool], Callable] = {}

    def build(engine: Any, stream: str, table: Any, units: Sequence,
              plain: Sequence, policed: Sequence, behind: Callable,
              state: Any) -> Callable:
        flags = (engine.recovery is not None, table is not None,
                 bool(policed))
        made = builders.get(flags)
        if made is None:
            name = " ".join([layout, *(word for word, flag
                                       in zip(_DOOR_FLAGS, flags) if flag)])
            made = builders[flags] = _factory(
                "door", _door_source(schema, *flags), name)(
                    schema, schema.coerce, types)
        return made(engine, stream, table, units, plain, policed, behind,
                    state)

    return build
