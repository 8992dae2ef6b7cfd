"""Seeded generators for differential-testing cases.

Two kinds of cases are generated:

* :class:`Case` — a CQL query text plus raw ``(row, timestamp)`` pairs per
  input stream.  Kept as plain JSON-able data so the shrinker can slice it
  and the repro emitter can embed it literally in a pytest file.
* :class:`CoreWindowCase` — a window object from ``core/windows.py`` plus a
  record stream, for the sparse-vs-dense S2R leg that covers the window
  kinds CQL's surface syntax cannot express (tumbling, sliding, landmark,
  session).

Stream profiles deliberately stress the executor's weak spots: bursty
same-instant ties, duplicate-heavy rows, zero-timestamp pile-ups and
NULL-heavy values.  Timestamps are always ``>= 0`` — the semantics layer
rejects negative time, and the oracle separately asserts all three
evaluators agree on that rejection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core import Schema, Stream
from repro.core.windows import (
    LandmarkWindow,
    NowWindow,
    RangeWindow,
    SessionWindow,
    SlidingWindow,
    SteppedRangeWindow,
    TumblingWindow,
    UnboundedWindow,
)
from repro.cql import CQLEngine

OBS_SCHEMA = Schema(["id", "room", "temp"])
ALERTS_SCHEMA = Schema(["id", "level"])
ROOMS_SCHEMA = Schema(["room", "floor"])
ROOMS_ROWS = ({"room": "a", "floor": 1}, {"room": "b", "floor": 2})

#: (stream row-domain) — small domains so joins and duplicates hit often.
_ROOMS = ("a", "b")
_TEMPS = (None, None, 0, 1, 5, 30)


@dataclass
class Case:
    """One CQL differential case: a query plus raw stream contents."""

    query: str
    streams: dict[str, list[tuple[dict[str, Any], int]]]
    seed: int | None = None

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.streams.values())


@dataclass
class CoreWindowCase:
    """One core S2R case: a window assigner plus raw stream contents."""

    window: Any
    rows: list[tuple[dict[str, Any], int]] = field(default_factory=list)
    seed: int | None = None


def build_engine() -> CQLEngine:
    """A CQL engine with the fixed difftest catalog registered."""
    engine = CQLEngine()
    engine.register_stream("Obs", OBS_SCHEMA)
    engine.register_stream("Alerts", ALERTS_SCHEMA)
    engine.register_relation("Rooms", ROOMS_SCHEMA, ROOMS_ROWS)
    return engine


def build_streams(case: Case) -> dict[str, Stream]:
    """Materialise a case's raw pairs as event-time streams."""
    schemas = {"Obs": OBS_SCHEMA, "Alerts": ALERTS_SCHEMA}
    return {name: Stream.of_records(schemas[name], rows)
            for name, rows in case.streams.items()}


# ---------------------------------------------------------------------------
# Query generation
# ---------------------------------------------------------------------------


def _window(rng: random.Random, partition_ok: bool = True) -> str:
    r = rng.randint(1, 10)
    s = rng.randint(1, 10)
    options = [
        "",                              # unbounded
        "[Now]",
        f"[Range {r}]",
        f"[Range {r} Slide {s}]",
        f"[Rows {rng.randint(1, 4)}]",
    ]
    if partition_ok:
        options.append(f"[Partition By room Rows {rng.randint(1, 3)}]")
    return rng.choice(options)


def _r2s(rng: random.Random) -> str:
    return rng.choice(["", "ISTREAM ", "DSTREAM ", "RSTREAM "])


def _aggregate(rng: random.Random) -> str:
    return rng.choice([
        "COUNT(*) AS n", "COUNT(temp) AS n", "SUM(temp) AS n",
        "AVG(temp) AS n", "MIN(temp) AS n", "MAX(temp) AS n",
    ])


def gen_query(rng: random.Random) -> str:
    """One random CQL query over the fixed catalog.

    Shapes cover projection with scalar expressions, filters, all
    ``AggregateKind``s (global, grouped, HAVING, DISTINCT), stream-stream
    and stream-relation joins, every set operation, and all three R2S
    operators — the surface the oracle must agree on.
    """
    shape = rng.randrange(9)
    w1 = _window(rng)
    w2 = _window(rng, partition_ok=False)
    r2s = _r2s(rng)
    agg = _aggregate(rng)
    if shape == 0:
        return f"SELECT {r2s}id, temp FROM Obs {w1}"
    if shape == 1:
        # The dialect has no IS NULL; COALESCE sentinels and 3VL NOT probe
        # the same NULL paths through the shared expression compiler.
        predicate = rng.choice(
            ["temp > 1", "COALESCE(temp, 0 - 1) < 0",
             "COALESCE(temp, 0 - 1) >= 0", "NOT temp > 1",
             "room = 'a'", "temp + 1 >= 2"])
        return f"SELECT {r2s}id, room FROM Obs {w1} WHERE {predicate}"
    if shape == 2:
        expr = rng.choice(
            ["temp + 1 AS t1", "temp * 2 AS t1", "COALESCE(temp, 0) AS t1",
             "ABS(temp - 5) AS t1"])
        return f"SELECT {r2s}id, {expr} FROM Obs {w1}"
    if shape == 3:
        return f"SELECT {r2s}{agg} FROM Obs {w1}"
    if shape == 4:
        having = (" HAVING COUNT(*) >= 2" if rng.random() < 0.5 else "")
        return (f"SELECT {r2s}room, {agg} FROM Obs {w1} "
                f"GROUP BY room{having}")
    if shape == 5:
        return (f"SELECT {r2s}O.id, A.level FROM Obs O {w1}, "
                f"Alerts A {w2} WHERE O.id = A.id")
    if shape == 6:
        return (f"SELECT {r2s}O.id, R.floor FROM Obs O {w1}, "
                f"Rooms R WHERE O.room = R.room")
    if shape == 7:
        kind = rng.choice(["UNION ALL", "EXCEPT ALL", "INTERSECT ALL",
                           "UNION", "EXCEPT", "INTERSECT"])
        left = f"SELECT id FROM Obs {w1}"
        right = f"SELECT id FROM Alerts {w2}"
        if r2s:
            return f"{r2s.strip()} ({left} {kind} {right})"
        return f"{left} {kind} {right}"
    return f"SELECT {r2s}DISTINCT room, temp FROM Obs {w1}"


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------


def _gen_rows(rng: random.Random, rowfn, count: int,
              profile: str) -> list[tuple[dict[str, Any], int]]:
    if profile == "bursty":
        gaps = [0, 0, 0, 0, 1, 1, 2, 9]
    elif profile == "zero-heavy":
        gaps = [0, 0, 0, 0, 0, 0, 1, 3]
    elif profile == "sparse":
        gaps = [1, 2, 3, 5, 7, 11]
    else:  # mixed
        gaps = [0, 0, 1, 1, 2, 5, 9]
    t = 0
    rows: list[tuple[dict[str, Any], int]] = []
    for _ in range(count):
        t += rng.choice(gaps)
        row = rowfn()
        rows.append((row, t))
        # Duplicate-heavy: sometimes repeat the identical row at the same
        # instant (bag semantics must preserve the multiplicity).
        if profile == "duplicate-heavy" and rng.random() < 0.5:
            rows.append((dict(row), t))
    return rows


def gen_streams(rng: random.Random) -> dict[str, list[tuple[dict, int]]]:
    profile = rng.choice(
        ["bursty", "zero-heavy", "sparse", "mixed", "duplicate-heavy"])
    obs = _gen_rows(
        rng,
        lambda: {"id": rng.randint(0, 2), "room": rng.choice(_ROOMS),
                 "temp": rng.choice(_TEMPS)},
        rng.randint(0, 10), profile)
    alerts = _gen_rows(
        rng,
        lambda: {"id": rng.randint(0, 2), "level": rng.randint(0, 3)},
        rng.randint(0, 5), profile)
    return {"Obs": obs, "Alerts": alerts}


def gen_case(rng: random.Random, seed: int | None = None) -> Case:
    return Case(query=gen_query(rng), streams=gen_streams(rng), seed=seed)


# ---------------------------------------------------------------------------
# Core-window cases (window kinds CQL cannot express)
# ---------------------------------------------------------------------------


def gen_core_window(rng: random.Random) -> Any:
    size = rng.randint(1, 9)
    slide = rng.randint(1, 9)
    offset = rng.randint(0, 9)
    return rng.choice([
        TumblingWindow(size, offset),
        SlidingWindow(size, slide, offset),
        RangeWindow(size),
        SteppedRangeWindow(size, slide),
        NowWindow(),
        UnboundedWindow(),
        LandmarkWindow(rng.randint(0, 6)),
        SessionWindow(rng.randint(1, 5)),
    ])


def gen_core_window_case(rng: random.Random,
                         seed: int | None = None) -> CoreWindowCase:
    rows = _gen_rows(
        rng,
        lambda: {"id": rng.randint(0, 2), "v": rng.randint(0, 4)},
        rng.randint(0, 8),
        rng.choice(["bursty", "zero-heavy", "sparse", "mixed"]))
    return CoreWindowCase(window=gen_core_window(rng), rows=rows, seed=seed)


# ---------------------------------------------------------------------------
# Dynamic-table cases (kernel-views leg)
# ---------------------------------------------------------------------------

#: Base tables for view cases.  All columns hold small ints (or NULL), so
#: any generated predicate, join key or aggregate argument is type-safe.
FACT_SCHEMA = Schema(["k", "g", "v"])
DIM_SCHEMA = Schema(["g", "w"])
VIEW_BASES: dict[str, Schema] = {"fact": FACT_SCHEMA, "dim": DIM_SCHEMA}

_VIEW_SHAPES = ("filter", "project", "aggregate", "distinct", "join",
                "setop")
_VIEW_AGGS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_SETOP_KINDS = ("union", "difference", "intersection")


@dataclass
class ViewCase:
    """One dynamic-table differential case.

    ``views`` are plain-data specs (see :func:`build_view_ir`) forming a
    multi-level DAG over the two fixed base tables; ``events`` is a script
    of ``apply`` / ``tick`` / ``refresh`` / ``suspend`` / ``resume`` /
    ``crash`` / ``create`` steps.  A view some ``create`` event names is
    installed by that event — after commits, ticks, suspensions and
    changelog GC have run — and every other view up front.  Everything
    is JSON-able so a failing case embeds literally in a repro file.
    """

    views: list[dict[str, Any]]
    initial: dict[str, list[dict[str, Any]]]
    events: list[list[Any]]
    seed: int | None = None


def build_view_ir(spec: dict[str, Any], schemas: dict[str, Schema]):
    """Reconstruct the logical plan a view spec describes.

    Deterministic: the oracle and the service both call this, in DAG
    order, so both sides agree on every view's definition.  The root is
    always a Project renaming outputs to ``c0..cn`` — downstream views
    then scan a flat, unambiguous schema.
    """
    from repro.core.operators import AggregateKind
    from repro.plan.exprs import Binary, BinOp, Column, Literal
    from repro.plan.ir import (
        Aggregate,
        AggregateExpr,
        Distinct,
        Filter,
        Join,
        Project,
        SetOp,
    )
    from repro.views import make_scan

    shape = spec["shape"]
    params = spec["params"]
    sources = spec["sources"]

    def scan(name: str, alias: str):
        return make_scan(name, alias, schemas[name])

    if shape == "filter":
        core = Filter(scan(sources[0], "s"),
                      Binary(BinOp.GT, Column(f"s.{params['col']}"),
                             Literal(params["cutoff"])))
    elif shape == "project":
        exprs = [Column(f"s.{c}") for c in params["cols"]]
        names = [f"p{i}" for i in range(len(exprs))]
        if params.get("bump") is not None:
            exprs.append(Binary(BinOp.ADD, Column(f"s.{params['bump']}"),
                                Literal(1)))
            names.append(f"p{len(exprs) - 1}")
        core = Project(scan(sources[0], "s"), tuple(exprs), tuple(names))
    elif shape == "aggregate":
        group = params["group"]
        aggregates = tuple(
            AggregateExpr(AggregateKind[kind],
                          None if col is None else Column(f"s.{col}"),
                          f"a{i}")
            for i, (kind, col) in enumerate(params["aggs"]))
        core = Aggregate(scan(sources[0], "s"),
                         () if group is None else (f"s.{group}",),
                         () if group is None else ("g0",),
                         aggregates)
    elif shape == "distinct":
        exprs = tuple(Column(f"s.{c}") for c in params["cols"])
        names = tuple(f"d{i}" for i in range(len(exprs)))
        core = Distinct(Project(scan(sources[0], "s"), exprs, names))
    elif shape == "join":
        core = Join(scan(sources[0], "l"), scan(sources[1], "r"),
                    left_keys=(f"l.{params['left_key']}",),
                    right_keys=(f"r.{params['right_key']}",))
    elif shape == "setop":
        arity = len(params["left_cols"])
        names = tuple(f"x{i}" for i in range(arity))
        left = Project(scan(sources[0], "l"),
                       tuple(Column(f"l.{c}") for c in params["left_cols"]),
                       names)
        right = Project(scan(sources[1], "r"),
                        tuple(Column(f"r.{c}")
                              for c in params["right_cols"]),
                        names)
        core = SetOp(params["kind"], left, right)
    else:
        raise ValueError(f"unknown view shape {shape!r}")

    fields = core.schema.fields
    return Project(core, tuple(Column(f) for f in fields),
                   tuple(f"c{i}" for i in range(len(fields))))


def build_view_plans(case: ViewCase) -> dict[str, Any]:
    """All view plans of a case, in definition order, plus their schemas."""
    schemas = dict(VIEW_BASES)
    plans: dict[str, Any] = {}
    for spec in case.views:
        plan = build_view_ir(spec, schemas)
        plans[spec["name"]] = plan
        schemas[spec["name"]] = plan.schema
    return plans


def scanned_views(case_views: list[dict[str, Any]], installed: list[str],
                  name: str) -> list[str]:
    """The views ``name`` scans once installed after ``installed``.

    Its definition's view sources — unless an already-installed view has
    the identical definition: the service's sharing memo then turns the
    newcomer into a scan of that twin (the first one installed).
    """
    specs = {spec["name"]: spec for spec in case_views}

    def definition(view: str):
        spec = specs[view]
        return spec["shape"], spec["sources"], spec["params"]

    for other in installed:
        if other != name and definition(other) == definition(name):
            return [other]
    return [src for src in specs[name]["sources"] if src not in VIEW_BASES]


def _gen_view_spec(rng: random.Random, name: str, pool: list[str],
                   must_use: str | None,
                   schemas: dict[str, Schema]) -> dict[str, Any]:
    shape = rng.choice(_VIEW_SHAPES)
    first = must_use if must_use is not None else rng.choice(pool)
    cols = list(schemas[first].fields)
    params: dict[str, Any]
    sources = [first]
    if shape == "filter":
        params = {"col": rng.choice(cols), "cutoff": rng.randint(-1, 3)}
    elif shape == "project":
        keep = rng.sample(cols, rng.randint(1, len(cols)))
        params = {"cols": keep,
                  "bump": rng.choice(cols) if rng.random() < 0.5 else None}
    elif shape == "aggregate":
        group = rng.choice(cols) if rng.random() < 0.7 else None
        aggs = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(_VIEW_AGGS)
            col = (None if kind == "COUNT" and rng.random() < 0.5
                   else rng.choice(cols))
            aggs.append([kind, col])
        params = {"group": group, "aggs": aggs}
    elif shape == "distinct":
        params = {"cols": rng.sample(cols, rng.randint(1, len(cols)))}
    elif shape == "join":
        second = rng.choice(pool)
        sources.append(second)
        params = {"left_key": rng.choice(cols),
                  "right_key": rng.choice(list(schemas[second].fields))}
    else:  # setop
        second = rng.choice(pool)
        sources.append(second)
        other = list(schemas[second].fields)
        arity = rng.randint(1, min(2, len(cols), len(other)))
        params = {"kind": rng.choice(_SETOP_KINDS),
                  "left_cols": rng.sample(cols, arity),
                  "right_cols": rng.sample(other, arity)}
    lag = rng.choice([0, 1, 2, "downstream"])
    return {"name": name, "lag": lag, "shape": shape,
            "sources": sources, "params": params}


def _fact_row(rng: random.Random) -> dict[str, Any]:
    return {"k": rng.randint(0, 4), "g": rng.randint(0, 2),
            "v": rng.choice([None, 0, 1, 2, 3])}


def _dim_row(rng: random.Random) -> dict[str, Any]:
    return {"g": rng.choice([None, 0, 1, 2]), "w": rng.randint(0, 3)}


_VIEW_ROWFN = {"fact": _fact_row, "dim": _dim_row}


def gen_view_case(rng: random.Random,
                  seed: int | None = None) -> ViewCase:
    """A seeded multi-level view DAG plus a refresh/mutation script.

    Level 2 always consumes a level-1 view and level 3 a level-2 view,
    so every case exercises a genuinely cascading (3-deep) refresh.  A
    suffix of the definition list (closed under "is consumed by", since
    views only scan earlier ones) is installed mid-stream by ``create``
    events rather than up front.
    """
    schemas = dict(VIEW_BASES)
    views: list[dict[str, Any]] = []
    pool = list(VIEW_BASES)
    counter = 0
    levels: list[list[str]] = []
    for level in range(3):
        level_names = []
        for _ in range(1 if level == 2 else rng.randint(1, 2)):
            counter += 1
            name = f"v{counter}"
            must_use = rng.choice(levels[level - 1]) if level else None
            spec = _gen_view_spec(rng, name, pool, must_use, schemas)
            schemas[name] = build_view_ir(spec, schemas).schema
            views.append(spec)
            pool.append(name)
            level_names.append(name)
        levels.append(level_names)

    initial = {name: [_VIEW_ROWFN[name](rng)
                      for _ in range(rng.randint(0, 4))]
               for name in VIEW_BASES}

    contents = {name: [dict(row) for row in initial[name]]
                for name in VIEW_BASES}
    steps = rng.randint(8, 14)
    late = [spec["name"] for spec in views[rng.randint(1, len(views)):]]
    create_at = sorted(rng.randrange(1, steps) for _ in late)
    view_names: list[str] = []
    scans: dict[str, list[str]] = {}
    for spec in views[:len(views) - len(late)]:
        scans[spec["name"]] = scanned_views(views, view_names, spec["name"])
        view_names.append(spec["name"])

    def upstream_views(sources: list[str]) -> set[str]:
        out: set[str] = set()
        for source in sources:
            out |= {source} | upstream_views(scans[source])
        return out

    suspended: set[str] = set()
    events: list[list[Any]] = []
    crash_at = rng.randrange(steps) if rng.random() < 0.35 else None
    for step in range(steps):
        while create_at and create_at[0] == step:
            create_at.pop(0)
            name = late.pop(0)
            scans[name] = scanned_views(views, view_names, name)
            held = upstream_views(scans[name]) & suspended
            if held & set(scans[name]) and rng.random() < 0.5:
                # A suspended direct source: this attempt is refused and
                # must leave nothing behind for the retry to trip on.
                events.append(["create", name])
            for holder in sorted(held):
                suspended.discard(holder)
                events.append(["resume", holder])
            events.append(["create", name])
            view_names.append(name)
        if step == crash_at:
            events.append(["crash", rng.choice(view_names),
                           rng.randrange(8)])
            continue
        roll = rng.random()
        if roll < 0.55:
            table = rng.choice(list(VIEW_BASES))
            inserts = [_VIEW_ROWFN[table](rng)
                       for _ in range(rng.randint(0, 3))]
            deletes = []
            rows = contents[table]
            if rows and rng.random() < 0.5:
                picked = rng.sample(range(len(rows)),
                                    rng.randint(1, min(2, len(rows))))
                deletes = [rows[i] for i in picked]
                contents[table] = [row for i, row in enumerate(rows)
                                   if i not in picked]
            if not inserts and not deletes:
                inserts = [_VIEW_ROWFN[table](rng)]
            contents[table].extend(dict(row) for row in inserts)
            events.append(["apply", table, inserts, deletes])
        elif roll < 0.80:
            events.append(["tick"])
        elif roll < 0.90:
            events.append(["refresh", rng.choice(view_names)])
        else:
            if suspended and rng.random() < 0.6:
                name = rng.choice(sorted(suspended))
                suspended.discard(name)
                events.append(["resume", name])
            else:
                name = rng.choice(view_names)
                suspended.add(name)
                events.append(["suspend", name])
    # Leave no view suspended at the end: the final tick must be able to
    # bring the whole DAG to the clock.
    for name in sorted(suspended):
        events.append(["resume", name])
    events.append(["tick"])
    return ViewCase(views=views, initial=initial, events=events, seed=seed)
