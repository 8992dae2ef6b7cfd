"""The experiment harness: tables, timing, and EXPERIMENTS.md rows.

Benchmarks print the same table shapes EXPERIMENTS.md records; the
:class:`ExperimentTable` renders aligned columns and can assert *shape*
properties (who wins, monotone trends) without pinning absolute numbers —
the contract DESIGN.md sets for a simulator-substrate reproduction.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Mapping, Sequence

import repro.obs as obs


class ExperimentTable:
    """Collects rows and renders an aligned text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:,.3f}" if value < 100 else f"{value:,.1f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(self.columns[i]),
                      *(len(row[i]) for row in cells)) if cells
                  else len(self.columns[i])
                  for i in range(len(self.columns))]
        header = " | ".join(c.ljust(w)
                            for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [" | ".join(cell.rjust(w)
                           for cell, w in zip(row, widths))
                for row in cells]
        return "\n".join([f"== {self.title} ==", header, rule, *body])

    def show(self) -> None:
        print()
        print(self.render())

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready shape: title, columns, rows."""
        return {"title": self.title, "columns": list(self.columns),
                "rows": [list(row) for row in self.rows]}


def obs_snapshot() -> dict[str, Any]:
    """The observability state a benchmark result carries.

    Captures the global registry (every metric the instrumented layers
    published) and, when tracing is enabled, the completed trace trees.
    """
    snapshot: dict[str, Any] = {
        "enabled": obs.is_enabled(),
        "metrics": obs.get_registry().snapshot(),
    }
    tracer = obs.get_tracer()
    if tracer.traces:
        snapshot["traces"] = [trace.as_dict() for trace in tracer.traces]
    return snapshot


def bench_result(name: str, table: ExperimentTable | None = None,
                 **fields: Any) -> dict[str, Any]:
    """Assemble one benchmark's result payload, ``obs`` section included."""
    result: dict[str, Any] = {"name": name}
    if table is not None:
        result["table"] = table.as_dict()
    result.update(fields)
    result["obs"] = obs_snapshot()
    return result


def write_bench_json(result: Mapping[str, Any],
                     directory: str | pathlib.Path = ".") -> pathlib.Path:
    """Write a :func:`bench_result` payload to ``BENCH_<name>.json``.

    The ``obs`` section is refreshed at write time if absent, so callers
    that build plain dicts still get a metrics snapshot attached.
    """
    payload = dict(result)
    if "name" not in payload:
        raise ValueError("benchmark result needs a 'name'")
    payload.setdefault("obs", obs_snapshot())
    path = pathlib.Path(directory) / f"BENCH_{payload['name']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=str) + "\n", encoding="utf-8")
    return path


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once; return (result, elapsed seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def best_times(*fns: Callable[[], Any], repeats: int = 5) -> list[float]:
    """The best of ``repeats`` timed runs of each of ``fns``, after one
    untimed warm-up run each.  The runs interleave, one of each per
    round, so that a slow spell of the machine hits every leg alike and
    no leg of a few milliseconds is decided by a cold or a slow run."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            best[index] = min(best[index], timed(fn)[1])
    return best


def assert_monotone(values: Sequence[float], increasing: bool = True,
                    tolerance: float = 0.0) -> None:
    """Shape assertion: a series trends in one direction."""
    for a, b in zip(values, values[1:]):
        if increasing and b < a - tolerance:
            raise AssertionError(f"series not increasing: {values}")
        if not increasing and b > a + tolerance:
            raise AssertionError(f"series not decreasing: {values}")


def assert_dominates(winner: Sequence[float], loser: Sequence[float],
                     factor: float = 1.0) -> None:
    """Shape assertion: ``winner`` is at most ``loser / factor``
    pointwise (smaller is better)."""
    for w, l in zip(winner, loser):
        if w * factor > l:
            raise AssertionError(
                f"expected dominance by x{factor}: {w} vs {l}")
