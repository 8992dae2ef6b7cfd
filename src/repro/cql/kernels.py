"""Generated per-plan kernels: one compiled Python function per plan shape.

DBToaster (the paper's §5.1) compiles view maintenance into specialised
trigger code, and data-centric compilation (Neumann, "Efficiently
Compiling Efficient Query Plans for Modern Hardware", VLDB 2011) fuses an
operator's per-row work into one loop with no call per value.  This
module does that, in Python, for the three row loops that run per
arrival:

* the aggregate instant (:func:`aggregate_kernel`): one function keys
  each delta's values tuple by position, folds every aggregate inline,
  finishes each touched group's values tuple, compares it with the old
  one and emits ``-old``/``+new``;
* the source prefilter (:func:`prefilter_kernel`): one list
  comprehension over an instant's arrivals, with ``column <op> literal``
  conjuncts inlined and any other conjunct called as its closure;
* the row coercer (:func:`coercer_kernel`): one function per record
  layout that reads a mapping's fields in order with the declared type
  checks inlined, and hands any row it does not take to
  :meth:`Schema.coerce`.

A kernel's source depends only on the plan's *shape* — positions,
aggregate kinds, comparison operators, a layout's field and type names —
never on literals, types or compiled evaluators, which are bound when
the kernel is built.  Each source is compiled once per process into a factory,
cached under the source text in a bounded LRU (:data:`CACHE_SIZE`), so
building a kernel whose shape is cached costs rendering the source and
one dict lookup.  Each compiled source is registered with
:mod:`linecache` under a per-shape pseudo-filename (a coercer's names
its layout), so a traceback or a profile through a kernel shows the
generated line.  This is the only module under ``repro`` that compiles
code.
"""

from __future__ import annotations

import linecache
from collections import Counter, OrderedDict
from itertools import count
from sys import getsizeof
from typing import Any, Callable, Sequence

from repro.core.errors import StateError
from repro.core.operators import AggregateKind
from repro.core.records import Schema
from repro.cql.expressions import (
    column_vs_literal,
    compile_expr,
    compile_predicate,
)
from repro.plan.exprs import Column, Expr, split_conjuncts


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

#: Numbers the pseudo-filenames, one per compiled source.
_compiled = count(1)

#: The names generated code reads besides its factory's arguments.
_RUNTIME = {
    "StateError": StateError,
    "_GroupState": _GroupState,
    "_MinMaxAccumulator": _MinMaxAccumulator,
}


def _factory(kind: str, source: str, name: str | None = None) -> Callable:
    """The ``factory`` function ``source`` defines, compiled on first
    use and cached under the source text; its pseudo-filename is
    ``<kind name>``, or ``<kind kernel N>`` without a ``name``."""
    entry = _factories.get(source)
    if entry is not None:
        _factories.move_to_end(source)
        return entry[0]
    filename = (f"<{kind} kernel {next(_compiled)}>" if name is None
                else f"<{kind} {name}>")
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


def _minmax_step(slot: int, value: str) -> list[str]:
    return [f"if {value} is not None:",
            f"    group.counts[{slot}] += mult",
            f"    accumulator = group.minmax[{slot}]",
            "    if accumulator is None:",
            f"        accumulator = group.minmax[{slot}] = "
            f"_MinMaxAccumulator()",
            f"    accumulator.add({value}, mult)"]


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
    """
    grouped = bool(keys)
    slots = [slot for slot, (_, read) in enumerate(aggregates)
             if read is not None]
    fold: list[str] = []
    for slot in slots:
        kind, read = aggregates[slot]
        fold += [f"value = {read}", *STEPS[kind](slot, "value")]
    body = []
    if grouped:
        key = ", ".join(f"values[{position}]" for position in keys)
        start = [
            "if not deltas:",
            "    return []",
            "touched = {}",
        ]
        body += [
            f"key = ({key},)",
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
    body += ["group.rows += mult", *fold]
    counts = [f"count{slot}" for slot in slots]
    check = [
        "rows = group.rows",
        *(["counts = group.counts"] if slots else []),
        *[f"count{slot} = counts[{slot}]" for slot in slots],
        f"if rows <= 0 and ({' or '.join(['rows', *counts])}):",
        "    raise StateError(",
        "        f\"aggregate group {key!r} retracts rows it does not hold\")",
        "old_row = current_rows.get(key)",
    ]
    if grouped:
        check += [
            "if not rows:",
            "    if old_row is not None:",
            "        out.append((old_row, -1))",
            "        del current_rows[key]",
            "    del groups[key]",
            "    continue",
        ]
    if slots:
        check += [
            f"if {' or '.join(f'{count} < 0' for count in counts)}:",
            "    raise StateError(",
            "        f\"aggregate group {key!r} retracts more non-NULL values \"",
            "        f\"than it holds\")",
        ]
    kinds = {aggregates[slot][0] for slot in slots}
    if kinds & {AggregateKind.SUM, AggregateKind.AVG}:
        check.append("sums = group.sums")
    if kinds & {AggregateKind.MIN, AggregateKind.MAX}:
        check.append("minmax = group.minmax")
    finished = [f"key[{index}]" for index in range(len(keys))] + [
        "rows" if read is None else _finished(kind, slot)
        for slot, (kind, read) in enumerate(aggregates)]
    emit = [
        f"finished = ({', '.join(finished)},)",
        "if old_row is not None:",
        "    if old_row == finished:",
        "        continue",
        "    out.append((old_row, -1))",
        "out.append((finished, 1))",
        "current_rows[key] = finished",
    ]
    evaluators = [f"evaluate{index}" for index in range(n_evaluators)]
    lines = [
        "def factory(evaluators):",
        *_block(_unpack(evaluators, "evaluators"), 1),
        "    def aggregate(op, t, child_deltas):",
        "        (deltas,) = child_deltas",
        "        groups_state = op._groups",
        "        groups = groups_state.data",
        *_block(start, 2),
        "        try:",
        "            for values, mult in deltas:",
        *_block(body, 4),
        "        finally:",
        "            groups_state.mark(touched)",
        "        rows_state = op._current_rows",
        "        rows_state.mark(touched)",
        "        current_rows = rows_state.data",
        "        out = []",
        "        for key, group in touched.items():",
        *_block(check + emit, 3),
        "        return out",
        "    return aggregate",
    ]
    return "\n".join(lines) + "\n"


def aggregate_kernel(group_by: Sequence[str], aggregates: Sequence,
                     in_schema: Schema) -> Callable:
    """The generated ``process`` of an aggregate: ``kernel(op, t,
    child_deltas) -> deltas`` over ``op``'s ``_groups``,
    ``_current_rows`` and ``_child_active``.

    ``aggregates`` are the plan's :class:`~repro.plan.ir.AggregateExpr`;
    a bare-column argument is read by position, any other is evaluated
    by its compiled closure, bound here.
    """
    evaluators: list[Callable[[tuple], Any]] = []
    shape = []
    for spec in aggregates:
        if spec.arg is None:
            read = None
        elif isinstance(spec.arg, Column):
            read = f"values[{in_schema.index_of(spec.arg.name)}]"
        else:
            read = f"evaluate{len(evaluators)}(values)"
            evaluators.append(compile_expr(spec.arg, in_schema))
        shape.append((spec.kind, read))
    keys = [in_schema.index_of(column) for column in group_by]
    source = _aggregate_source(keys, shape, len(evaluators))
    return _factory("aggregate", source)(evaluators)


# ---------------------------------------------------------------------------
# The source prefilter
# ---------------------------------------------------------------------------

#: Python's spelling of each comparison :func:`column_vs_literal` finds.
_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
            "ge": ">="}


def prefilter_kernel(predicates: Sequence[Expr],
                     schema: Schema) -> Callable[[list], list]:
    """The generated batch filter of a window source: ``kernel(rows) ->
    the values tuples every predicate holds for``, in order.

    Each predicate is split into its AND-ed conjuncts.  A ``column <op>
    literal`` conjunct is inlined with the NULL semantics of
    :func:`~repro.cql.expressions.compile_predicate` (a NULL column is
    false); any other is called as its compiled closure.  A predicate
    that is not an AND passes on a ``True`` result, as
    ``compile_predicate`` has it, and the conjuncts of an AND on truthy
    ones, which is when SQL's three-valued AND is ``True``.  Literals and
    closures are bound here, so the source depends on positions and
    operators alone.
    """
    terms, names, bound = [], [], []
    for predicate in predicates:
        conjuncts = split_conjuncts(predicate)
        whole = len(conjuncts) == 1
        for conjunct in conjuncts:
            index = len(names)
            simple = column_vs_literal(conjunct, schema)
            if simple is not None:
                position, comparison, literal = simple
                test = f"(v{index} {_SYMBOLS[comparison.__name__]} c{index})"
                terms.append(f"(v{index} := values[{position}]) "
                             f"is not None and "
                             + (f"{test} is True" if whole else test))
                names.append(f"c{index}")
                bound.append(literal)
            else:
                terms.append(f"p{index}(values)")
                names.append(f"p{index}")
                bound.append(compile_predicate(conjunct, schema) if whole
                             else compile_expr(conjunct, schema))
    lines = [
        "def factory(bound):",
        *_block(_unpack(names, "bound"), 1),
        "    def prefilter(rows):",
        "        return [values for values in rows",
        *[f"                {'and' if position else 'if'} {term}"
          for position, term in enumerate(terms)],
        "                ]",
        "    return prefilter",
    ]
    return _factory("prefilter", "\n".join(lines) + "\n")(bound)


# ---------------------------------------------------------------------------
# The row coercer
# ---------------------------------------------------------------------------


def coercer_kernel(schema: Schema) -> Callable[[Any], tuple]:
    """The generated row coercer of ``schema``: ``coerce(row) -> values
    tuple``, returning what :meth:`Schema.coerce` returns.

    A mapping (a ``dict``) is read field by field with the declared type
    checks inlined, and one of ``schema``'s own Records is taken as it
    is.  Every other row — a missing key, a wrong type, a Record of any
    other schema — goes to :meth:`Schema.coerce`, which takes it or
    raises, so refusals and their messages have one source.  The source
    spells the layout — field names, and type names where declared — in
    its first line, and its pseudo-filename is named after it, e.g.
    ``<coercer (id: int, room, temp)>``; the types are bound here.
    """
    fields, types = schema.fields, schema.types
    layout = "(" + ", ".join(name if expected is None
                             else f"{name}: {expected.__name__}"
                             for name, expected in zip(fields, types)) + ")"
    typed = [i for i, expected in enumerate(types) if expected is not None]
    names = [f"v{i}" for i in range(len(fields))]
    read = [f"{name} = row[{field!r}]" for name, field in zip(names, fields)]
    if read:
        read = ["try:", *_block(read, 1),
                "except KeyError:", "    return coerce(row)"]
    for i in typed:
        read += [f"if not isinstance(v{i}, t{i}) and v{i} is not None:",
                 "    return coerce(row)"]
    lines = [
        f"# layout {layout!r}",
        "def factory(schema, coerce, types):",
        *_block(_unpack([f"t{i}" for i in typed], "types"), 1),
        "    def coercer(row):",
        "        if isinstance(row, dict):",
        *_block(read, 3),
        f"            return ({''.join(f'{name}, ' for name in names)})",
        "        if getattr(row, '_schema', None) is schema:",
        "            return row._values",
        "        return coerce(row)",
        "    return coercer",
    ]
    factory = _factory("coercer", "\n".join(lines) + "\n", layout)
    return factory(schema, schema.coerce, [types[i] for i in typed])
