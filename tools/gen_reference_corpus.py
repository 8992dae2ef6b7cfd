"""Write the golden reference corpus ``tests/cql/golden/reference_corpus.json``.

    PYTHONPATH=src python3 tools/gen_reference_corpus.py

The corpus pins the denotational reference — the ground truth every
differential check compares against — by a sha256 digest per case:

* ``cql/<seed>/naive`` and ``cql/<seed>/optimized``: the output of
  ``reference_evaluate`` for the ``difftest`` case ``gen_case`` draws
  from ``random.Random(seed)`` (seeds 0-299), over its unoptimised and
  its optimised plan;
* ``views/<seed>``: every view of the ``gen_view_case`` DAG drawn from
  ``random.Random(seed)`` (seeds 0-99), recomputed from the base tables
  after the initial rows and after each ``apply`` step of its script.

A digest hashes a canonical form: per change point (a stream's
timestamp, a relation's change point, a view case's step), the sorted
``repr``s of the ``(record, count)`` pairs in force.  A reference that
raises hashes the error's type and message instead.
``tests/cql/test_reference_corpus.py`` replays the corpus, so a rewrite
of the reference must reproduce every digest exactly.  Regenerate it
only on purpose, when the reference semantics change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "cql" / "golden" / "reference_corpus.json"

CQL_SEEDS = range(300)
VIEW_SEEDS = range(100)


def _bag_form(bag) -> list[str]:
    return sorted(repr(pair) for pair in bag.items())


def _digest(points: list) -> str:
    text = json.dumps(points, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _output_form(output) -> list:
    """Per change point, the sorted ``(record, count)`` reprs: a stream
    grouped by timestamp, a relation by its change points."""
    from repro.core.relation import Bag
    from repro.core.stream import Stream

    if isinstance(output, Stream):
        stamped: dict = {}
        for element in output:
            stamped.setdefault(element.timestamp, Bag()).add(element.value)
        return [[t, _bag_form(bag)] for t, bag in sorted(stamped.items())]
    return [[t, _bag_form(bag)] for t, bag in output.snapshots()]


def cql_digests(seed: int) -> dict[str, str]:
    """The digests of one ``gen_case``'s naive and optimised reference."""
    from repro.core.errors import ReproError
    from repro.cql import reference_evaluate
    from repro.difftest.generators import (
        build_engine,
        build_streams,
        gen_case,
    )

    case = gen_case(random.Random(seed), seed=seed)
    engine = build_engine()
    streams = build_streams(case)
    out = {}
    for label, optimize in (("naive", False), ("optimized", True)):
        try:
            plan = engine.plan(case.query, optimize=optimize)
            form = _output_form(
                reference_evaluate(plan, engine.catalog, streams))
        except ReproError as exc:
            form = f"{type(exc).__name__}: {exc}"
        out[f"cql/{seed}/{label}"] = _digest(form)
    return out


def view_digest(seed: int) -> dict[str, str]:
    """The digest of one ``gen_view_case``: every view recomputed from
    base after the initial rows and after each ``apply`` step."""
    from repro.core.errors import ReproError
    from repro.core.records import Record
    from repro.core.relation import Bag
    from repro.difftest.generators import (
        VIEW_BASES,
        build_view_plans,
        gen_view_case,
    )
    from repro.views import recompute

    case = gen_view_case(random.Random(seed), seed=seed)
    plans = build_view_plans(case)
    bases = {name: Bag() for name in VIEW_BASES}
    for name, rows in case.initial.items():
        for row in rows:
            bases[name].add(Record.from_mapping(VIEW_BASES[name], row))
    steps = [None] + [event for event in case.events if event[0] == "apply"]
    points: list = []
    for step in steps:
        if step is not None:
            _, table, inserts, deletes = step
            schema = VIEW_BASES[table]
            for row in inserts:
                bases[table].add(Record.from_mapping(schema, row))
            for row in deletes:
                bases[table].discard(Record.from_mapping(schema, row))
        contents = dict(bases)
        point = []
        for name, plan in plans.items():
            try:
                contents[name] = recompute(plan, contents)
                point.append([name, _bag_form(contents[name])])
            except ReproError as exc:
                point.append([name, f"{type(exc).__name__}: {exc}"])
                break
        points.append(point)
    return {f"views/{seed}": _digest(points)}


def digests() -> dict[str, str]:
    """Every digest of the corpus, keyed as the corpus file keys them."""
    out: dict[str, str] = {}
    for seed in CQL_SEEDS:
        out.update(cql_digests(seed))
    for seed in VIEW_SEEDS:
        out.update(view_digest(seed))
    return out


def main() -> None:
    entries = digests()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{OUT.relative_to(ROOT)}: {len(entries)} digests")


if __name__ == "__main__":
    main()
