"""Continuous-view maintenance strategies (paper Section 5.1).

Winter et al.'s *continuous views* observation: maintenance work can be
split between the *insert* path and the *query* path, and the right split
depends on the workload mix.  We implement the whole spectrum for grouped
aggregate views over an insert/delete stream:

* :class:`RecomputeView` — no materialisation: queries scan the base
  (the lazy extreme; what a plain DBMS does).
* :class:`EagerView` — PipelineDB-style: every update immediately folds
  into the materialised result (the eager extreme; queries are O(groups)).
* :class:`LazyView` — updates append to a log; queries first apply all
  pending updates, then read.
* :class:`SplitView` — "meet me halfway": updates append to a small delta
  partition (cheap); queries merge snapshot + delta on the fly; when the
  delta exceeds a threshold it is folded into the snapshot.

Every strategy maintains the same grouped aggregate (count / sum / avg /
min per group) and exposes ``update_work`` / ``query_work`` counters in
*touched rows*, which the C6 benchmark sweeps across insert:query mixes.

Every strategy keeps its grouped state in plain dicts and implements
``snapshot()`` / ``restore()``, so a view can be checkpointed and rolled
back like any other stateful operator.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping

from repro.core.errors import StateError

#: A group's accumulator: (row count, value sum, value multiset for MIN).
GroupKey = Hashable


class _Accumulator:
    """Count/sum/min/max accumulator with (weighted) deletion support."""

    __slots__ = ("count", "total", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.values: dict[Any, int] = {}

    def add(self, value: Any, count: int = 1) -> None:
        self.count += count
        self.total += value * count
        self.values[value] = self.values.get(value, 0) + count

    def remove(self, value: Any, count: int = 1) -> None:
        if self.values.get(value, 0) < count:
            raise StateError(f"deleting value {value!r} not in group")
        self.count -= count
        self.total -= value * count
        self.values[value] -= count
        if not self.values[value]:
            del self.values[value]

    def merge(self, other: "_Accumulator") -> None:
        self.count += other.count
        self.total += other.total
        for value, count in other.values.items():
            self.values[value] = self.values.get(value, 0) + count

    def copy(self) -> "_Accumulator":
        clone = _Accumulator()
        clone.count = self.count
        clone.total = self.total
        clone.values = dict(self.values)
        return clone

    def to_state(self) -> tuple[int, Any, dict[Any, int]]:
        """A plain-data image for checkpointing."""
        return (self.count, self.total, dict(self.values))

    @classmethod
    def from_state(cls, state: tuple[int, Any, dict[Any, int]]
                   ) -> "_Accumulator":
        acc = cls()
        acc.count, acc.total, values = state
        acc.values = dict(values)
        return acc

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "avg": self.total / self.count if self.count else None,
            "min": min(self.values) if self.values else None,
            "max": max(self.values) if self.values else None,
        }


def _row_key(row: Mapping[str, Any]) -> tuple:
    return tuple(sorted(row.items()))


class ViewStrategy:
    """Common interface: a grouped aggregate view over one base table."""

    def __init__(self, group_fn: Callable[[Mapping[str, Any]], GroupKey],
                 value_fn: Callable[[Mapping[str, Any]], Any]) -> None:
        self._group_fn = group_fn
        self._value_fn = value_fn
        self.update_work = 0
        self.query_work = 0

    def insert(self, row: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def delete(self, row: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def query(self) -> dict[GroupKey, dict[str, Any]]:
        """The current view contents: group → aggregate dict."""
        raise NotImplementedError

    @property
    def total_work(self) -> int:
        return self.update_work + self.query_work

    # -- checkpointing --------------------------------------------------------

    def _counters_state(self) -> dict[str, int]:
        return {"update_work": self.update_work,
                "query_work": self.query_work}

    def _restore_counters(self, state: Mapping[str, int]) -> None:
        self.update_work = state["update_work"]
        self.query_work = state["query_work"]


class RecomputeView(ViewStrategy):
    """No materialisation: keep the base rows, recompute per query."""

    def __init__(self, group_fn, value_fn) -> None:
        super().__init__(group_fn, value_fn)
        #: row key → multiplicity
        self._rows: dict[tuple, int] = {}

    def insert(self, row) -> None:
        key = _row_key(row)
        self._rows[key] = self._rows.get(key, 0) + 1
        self.update_work += 1

    def delete(self, row) -> None:
        key = _row_key(row)
        have = self._rows.get(key, 0)
        if not have:
            raise StateError(f"deleting absent row {row!r}")
        if have == 1:
            del self._rows[key]
        else:
            self._rows[key] = have - 1
        self.update_work += 1

    def query(self) -> dict[GroupKey, dict[str, Any]]:
        groups: dict[GroupKey, _Accumulator] = {}
        for row_items, multiplicity in self._rows.items():
            row = dict(row_items)
            group = self._group_fn(row)
            acc = groups.get(group)
            if acc is None:
                acc = groups[group] = _Accumulator()
            acc.add(self._value_fn(row), multiplicity)
            self.query_work += multiplicity
        return {k: acc.snapshot() for k, acc in groups.items()}

    def snapshot(self) -> Any:
        return {"rows": list(self._rows.items()),
                **self._counters_state()}

    def restore(self, state: Any) -> None:
        self._rows = dict(state["rows"])
        self._restore_counters(state)


class EagerView(ViewStrategy):
    """Immediate incremental maintenance (PipelineDB-style)."""

    def __init__(self, group_fn, value_fn) -> None:
        super().__init__(group_fn, value_fn)
        #: group key → :class:`_Accumulator`
        self._groups: dict[GroupKey, _Accumulator] = {}

    def insert(self, row) -> None:
        group = self._group_fn(row)
        acc = self._groups.get(group)
        if acc is None:
            acc = _Accumulator()
            self._groups[group] = acc
        acc.add(self._value_fn(row))
        self.update_work += 1

    def delete(self, row) -> None:
        group = self._group_fn(row)
        accumulator = self._groups.get(group)
        if accumulator is None:
            raise StateError(f"deleting from absent group {group!r}")
        accumulator.remove(self._value_fn(row))
        if not accumulator.count:
            del self._groups[group]
        self.update_work += 1

    def query(self) -> dict[GroupKey, dict[str, Any]]:
        out = {k: acc.snapshot() for k, acc in self._groups.items()}
        self.query_work += len(out)
        return out

    def snapshot(self) -> Any:
        return {"groups": [(k, acc.to_state())
                           for k, acc in self._groups.items()],
                **self._counters_state()}

    def restore(self, state: Any) -> None:
        self._groups = {k: _Accumulator.from_state(s)
                        for k, s in state["groups"]}
        self._restore_counters(state)


class LazyView(ViewStrategy):
    """Deferred maintenance: updates buffer, queries catch up then read."""

    def __init__(self, group_fn, value_fn) -> None:
        super().__init__(group_fn, value_fn)
        self._groups: dict[GroupKey, _Accumulator] = {}
        self._pending: list[tuple[str, dict[str, Any]]] = []

    def insert(self, row) -> None:
        self._pending.append(("insert", dict(row)))
        self.update_work += 0  # append is (amortised) free

    def delete(self, row) -> None:
        self._pending.append(("delete", dict(row)))
        self.update_work += 0  # append is (amortised) free, like insert

    def _catch_up(self) -> None:
        for op, row in self._pending:
            group = self._group_fn(row)
            acc = self._groups.get(group)
            if op == "insert":
                if acc is None:
                    acc = _Accumulator()
                    self._groups[group] = acc
                acc.add(self._value_fn(row))
            else:
                if acc is None:
                    raise StateError(
                        f"deleting from absent group {group!r}")
                acc.remove(self._value_fn(row))
                if not acc.count:
                    del self._groups[group]
            self.query_work += 1
        self._pending.clear()

    def query(self) -> dict[GroupKey, dict[str, Any]]:
        self._catch_up()
        out = {k: acc.snapshot() for k, acc in self._groups.items()}
        self.query_work += len(out)
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def snapshot(self) -> Any:
        return {"groups": [(k, acc.to_state())
                           for k, acc in self._groups.items()],
                "pending": [(op, dict(row)) for op, row in self._pending],
                **self._counters_state()}

    def restore(self, state: Any) -> None:
        self._groups = {k: _Accumulator.from_state(s)
                        for k, s in state["groups"]}
        self._pending = [(op, dict(row)) for op, row in state["pending"]]
        self._restore_counters(state)


class SplitView(ViewStrategy):
    """Winter et al.'s split maintenance ("meet me halfway").

    Inserts append to a *delta partition* (cheap, append-only); queries
    merge the materialised snapshot with an on-the-fly aggregation of the
    delta.  When the delta exceeds ``merge_threshold`` rows it is folded
    into the snapshot (amortised maintenance), keeping query cost bounded.
    Deletes try the delta partition first — indexed by row, so removal is
    O(1) rather than a list scan — then fall back to the snapshot (the
    strategy's documented asymmetry: continuous views target insert-heavy
    streams).
    """

    def __init__(self, group_fn, value_fn,
                 merge_threshold: int = 64) -> None:
        super().__init__(group_fn, value_fn)
        if merge_threshold <= 0:
            raise StateError("merge threshold must be positive")
        self.merge_threshold = merge_threshold
        self._snapshot: dict[GroupKey, _Accumulator] = {}
        #: row key → [row dict, multiplicity]; insertion-ordered so merges
        #: fold rows in arrival order, exactly like the old append log.
        self._delta: dict[tuple, list] = {}
        self._delta_rows = 0
        self.merges = 0

    def insert(self, row) -> None:
        key = _row_key(row)
        entry = self._delta.get(key)
        if entry is None:
            self._delta[key] = [dict(row), 1]
        else:
            entry[1] += 1
        self._delta_rows += 1
        self.update_work += 0  # append-only
        if self._delta_rows >= self.merge_threshold:
            self._merge()

    def delete(self, row) -> None:
        # Try the delta partition first (O(1) via the row index), then the
        # snapshot.
        key = _row_key(row)
        entry = self._delta.get(key)
        if entry is not None:
            if entry[1] == 1:
                del self._delta[key]
            else:
                entry[1] -= 1
            self._delta_rows -= 1
            self.update_work += 1
            return
        group = self._group_fn(row)
        accumulator = self._snapshot.get(group)
        if accumulator is None:
            raise StateError(f"deleting from absent group {group!r}")
        accumulator.remove(self._value_fn(row))
        if not accumulator.count:
            del self._snapshot[group]
        self.update_work += 1

    def _merge(self) -> None:
        for row, multiplicity in self._delta.values():
            group = self._group_fn(row)
            acc = self._snapshot.get(group)
            if acc is None:
                acc = _Accumulator()
                self._snapshot[group] = acc
            acc.add(self._value_fn(row), multiplicity)
            self.update_work += multiplicity
        self._delta.clear()
        self._delta_rows = 0
        self.merges += 1

    def query(self) -> dict[GroupKey, dict[str, Any]]:
        overlay: dict[GroupKey, _Accumulator] = {}
        for group, accumulator in self._snapshot.items():
            overlay[group] = accumulator.copy()
            self.query_work += 1
        for row, multiplicity in self._delta.values():
            group = self._group_fn(row)
            if group not in overlay:
                overlay[group] = _Accumulator()
            overlay[group].add(self._value_fn(row), multiplicity)
            self.query_work += multiplicity
        return {k: acc.snapshot() for k, acc in overlay.items()
                if acc.count}

    @property
    def delta_size(self) -> int:
        return self._delta_rows

    def snapshot(self) -> Any:
        return {"snapshot": [(k, acc.to_state())
                             for k, acc in self._snapshot.items()],
                "delta": [(dict(row), count)
                          for row, count in self._delta.values()],
                "merges": self.merges,
                **self._counters_state()}

    def restore(self, state: Any) -> None:
        self._snapshot = {k: _Accumulator.from_state(s)
                          for k, s in state["snapshot"]}
        self._delta = {}
        self._delta_rows = 0
        for row, count in state["delta"]:
            self._delta[_row_key(row)] = [dict(row), count]
            self._delta_rows += count
        self.merges = state["merges"]
        self._restore_counters(state)
