"""Delta-debugging shrinker for failing differential cases.

Given a failing (query, stream) pair and the oracle, the shrinker

1. minimises the stream contents with the classic ddmin algorithm over
   the flattened element list,
2. simplifies surviving row values (constants towards 0 / 'a' / NULL),
3. tries a fixed set of query-text simplifications (dropping the R2S
   wrapper, DISTINCT, WHERE/HAVING clauses, shrinking window params),

keeping every transformation only if the *same divergence kind* still
reproduces — so shrinking cannot wander off to a different bug.  The
result can be emitted as a standalone pytest file via :func:`emit_repro`.
"""

from __future__ import annotations

import functools
import pathlib
import re
from typing import Any, Callable

from repro.difftest.generators import Case, CoreWindowCase
from repro.difftest.oracle import Divergence, run_case, run_core_window_case

#: An oracle predicate: returns the Divergence a case produces (or None).
Oracle = Callable[[Case], Divergence | None]


def _flatten(case: Case) -> list[tuple[str, dict[str, Any], int]]:
    return [(name, row, t)
            for name, rows in case.streams.items() for row, t in rows]


def _rebuild(case: Case,
             elements: list[tuple[str, dict[str, Any], int]]) -> Case:
    streams: dict[str, list[tuple[dict[str, Any], int]]] = {
        name: [] for name in case.streams}
    for name, row, t in elements:
        streams[name].append((row, t))
    return Case(query=case.query, streams=streams, seed=case.seed)


def _same_failure(case: Case, kind: str, oracle: Oracle) -> bool:
    divergence = oracle(case)
    return divergence is not None and divergence.kind == kind


def _ddmin(elements: list, test: Callable[[list], bool]) -> list:
    """Classic ddmin: greedily remove chunks while the test still fails."""
    granularity = 2
    while len(elements) >= 2:
        chunk = max(1, len(elements) // granularity)
        reduced = False
        start = 0
        while start < len(elements):
            candidate = elements[:start] + elements[start + chunk:]
            if candidate != elements and test(candidate):
                elements = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(elements):
                break
            granularity = min(len(elements), granularity * 2)
    return elements


def _simplify_rows(case: Case, kind: str, oracle: Oracle) -> Case:
    """Push surviving field values towards canonical small constants."""
    elements = _flatten(case)
    for index, (name, row, t) in enumerate(elements):
        for field_name, value in list(row.items()):
            if value in (0, "a", None):
                continue
            for replacement in (0 if isinstance(value, int) else "a",):
                candidate_row = dict(row)
                candidate_row[field_name] = replacement
                candidate = elements.copy()
                candidate[index] = (name, candidate_row, t)
                if _same_failure(_rebuild(case, candidate), kind, oracle):
                    elements = candidate
                    row = candidate_row
                    break
    return _rebuild(case, elements)


#: Textual query simplifications, tried in order, each kept only when the
#: divergence survives.  Regexes stay deliberately conservative: a missed
#: simplification only costs minimality, never correctness.
_QUERY_REWRITES: list[tuple[str, str]] = [
    (r"\b(ISTREAM|DSTREAM|RSTREAM)\s+", ""),
    (r"\bDISTINCT\s+", ""),
    (r"\s+HAVING\s+.+$", ""),
    (r"\s+WHERE\s+(?P<p>[^,]+?)(?=\s+GROUP BY|$)", ""),
    (r"\[Range \d+( Slide \d+)?\]", "[Range 1]"),
    (r"\[Rows [2-9]\]", "[Rows 1]"),
    (r"\[Partition By room Rows \d+\]", "[Rows 1]"),
]


def _simplify_query(case: Case, kind: str, oracle: Oracle) -> Case:
    for pattern, replacement in _QUERY_REWRITES:
        candidate_text = re.sub(pattern, replacement, case.query)
        candidate_text = re.sub(r"\s+", " ", candidate_text).strip()
        if candidate_text == case.query:
            continue
        candidate = Case(query=candidate_text, streams=case.streams,
                         seed=case.seed)
        if _same_failure(candidate, kind, oracle):
            case = candidate
    return case


def shrink_case(case: Case, divergence: Divergence,
                oracle: Oracle | None = None) -> tuple[Case, Divergence]:
    """Minimise ``case`` while preserving ``divergence.kind``.

    The default oracle re-runs only the config that diverged (the
    reference checks alone for a divergence without one), so a shrunk
    case cannot draw another config.  Returns the shrunk case and its
    (re-computed) divergence.
    """
    kind = divergence.kind
    if oracle is None:
        oracle = functools.partial(run_case, configs=_pinned(divergence))
    if not _same_failure(case, kind, oracle):
        # Not reproducible (e.g. flaky external state): return unchanged.
        return case, divergence
    elements = _ddmin(
        _flatten(case),
        lambda candidate: _same_failure(
            _rebuild(case, candidate), kind, oracle))
    case = _rebuild(case, elements)
    case = _simplify_rows(case, kind, oracle)
    case = _simplify_query(case, kind, oracle)
    final = oracle(case)
    assert final is not None and final.kind == kind
    return case, final


def _pinned(divergence: Divergence) -> list:
    return [] if divergence.config is None else [divergence.config]


# ---------------------------------------------------------------------------
# Standalone repro emission
# ---------------------------------------------------------------------------

_REPRO_TEMPLATE = '''"""Auto-generated differential-test counterexample.

Shrunk by repro.difftest.shrinker; run with
``PYTHONPATH=src python -m pytest {filename} -q``.
It fails while the divergence below reproduces and passes once fixed.

Original divergence: {divergence}
"""

from repro.difftest import Case, Config, run_case


def test_shrunk_counterexample():
    case = Case(
        query={query!r},
        streams={streams!r},
    )
    divergence = run_case(case, configs={configs!r})
    assert divergence is None, f"evaluators diverge: {{divergence}}"
'''


def emit_repro(case: Case, divergence: Divergence,
               path: str | pathlib.Path) -> pathlib.Path:
    """Write a standalone pytest file reproducing ``case`` under the
    config that diverged."""
    return _write(_REPRO_TEMPLATE, path, divergence, query=case.query,
                  streams=case.streams, configs=_pinned(divergence))


def _write(template: str, path: str | pathlib.Path, divergence: Divergence,
           **fields: Any) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(template.format(filename=path.name,
                                    divergence=str(divergence), **fields),
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Core-window cases (sparse-vs-dense leg)
# ---------------------------------------------------------------------------


def shrink_core_case(case: CoreWindowCase, divergence: Divergence
                     ) -> tuple[CoreWindowCase, Divergence]:
    """ddmin the stream rows of a failing core-window case."""
    kind = divergence.kind

    def fails(rows: list) -> bool:
        result = run_core_window_case(
            CoreWindowCase(window=case.window, rows=rows, seed=case.seed))
        return result is not None and result.kind == kind

    if not fails(case.rows):
        return case, divergence
    rows = _ddmin(list(case.rows), fails)
    shrunk = CoreWindowCase(window=case.window, rows=rows, seed=case.seed)
    final = run_core_window_case(shrunk)
    assert final is not None and final.kind == kind
    return shrunk, final


def _window_expr(window: Any) -> str:
    """A valid constructor expression for ``window`` (reprs are for humans
    and use display names like ``range=`` that the constructors reject)."""
    from repro.core import windows as w

    if isinstance(window, w.SteppedRangeWindow):
        return f"SteppedRangeWindow({window.range}, {window.slide})"
    if isinstance(window, w.RangeWindow):
        return f"RangeWindow({window.range})"
    if isinstance(window, w.SlidingWindow):
        return (f"SlidingWindow({window.size}, {window.slide}, "
                f"{window.offset})")
    if isinstance(window, w.TumblingWindow):
        return f"TumblingWindow({window.size}, {window.offset})"
    if isinstance(window, w.LandmarkWindow):
        return f"LandmarkWindow({window.landmark})"
    if isinstance(window, w.SessionWindow):
        return f"SessionWindow({window.gap})"
    if isinstance(window, w.CountWindow):
        return f"CountWindow({window.rows})"
    if isinstance(window, w.NowWindow):
        return "NowWindow()"
    if isinstance(window, w.UnboundedWindow):
        return "UnboundedWindow()"
    raise ValueError(f"no constructor expression for {window!r}")


_CORE_REPRO_TEMPLATE = '''"""Auto-generated core S2R counterexample (sparse-vs-dense leg).

Shrunk by repro.difftest.shrinker; run with
``PYTHONPATH=src python -m pytest {filename} -q``.

Original divergence: {divergence}
"""

from repro.core.windows import *  # noqa: F401,F403 — window repr below
from repro.difftest import CoreWindowCase, run_core_window_case


def test_shrunk_core_counterexample():
    case = CoreWindowCase(
        window={window},
        rows={rows!r},
    )
    divergence = run_core_window_case(case)
    assert divergence is None, f"S2R change-log diverges: {{divergence}}"
'''


def emit_core_repro(case: CoreWindowCase, divergence: Divergence,
                    path: str | pathlib.Path) -> pathlib.Path:
    """Write a standalone pytest file reproducing a core-window case."""
    return _write(_CORE_REPRO_TEMPLATE, path, divergence,
                  window=_window_expr(case.window), rows=case.rows)


_VIEW_REPRO_TEMPLATE = '''"""Auto-generated dynamic-table counterexample.

View cases are emitted whole (the event script's meaning depends on DAG
order, so ddmin slicing would mostly produce invalid cases); run with
``PYTHONPATH=src python -m pytest {filename} -q``.

Original divergence: {divergence}
"""

from repro.difftest.generators import ViewCase
from repro.difftest.oracle import run_view_case


def test_view_counterexample():
    case = ViewCase(
        views={views!r},
        initial={initial!r},
        events={events!r},
    )
    divergence = run_view_case(case)
    assert divergence is None, f"view maintenance diverges: {{divergence}}"
'''


def emit_view_repro(case, divergence: Divergence,
                    path: str | pathlib.Path) -> pathlib.Path:
    """Write a standalone pytest file reproducing a dynamic-table case."""
    return _write(_VIEW_REPRO_TEMPLATE, path, divergence, views=case.views,
                  initial=case.initial, events=case.events)
