"""SQL against the DSL: a seeded differential over the query shapes.

Each case is a streaming-SQL query and the same program written on
:class:`~repro.dsl.StreamEnvironment`, the reference.  ``run_sql`` runs
the query as a CQL standing query (at parallelism 1 or 3); the DSL runs
its job graph serially.  The generator draws rows with shared
timestamps, out-of-order arrivals and timestamps exactly on window
boundaries and session ends, and crosses ``TUMBLE``/``HOP``/``SESSION``
(``EMIT FINAL``), running (``EMIT CHANGES``) and stateless queries with
``COUNT``/``SUM``/``MIN``/``MAX``/``AVG``, optional ``WHERE`` and
``HAVING``.

Two conventions of the SQL path are the reference's too:

* ``run_sql`` replays rows in timestamp order, every row of an instant
  together, so the DSL reads them sorted, and its watermark trails by
  one tick: every row of an instant is in before a window or a session
  closes there.
* A running aggregate's output is the ISTREAM of its relation: per
  instant, the net change of the projected group rows.  So the DSL's
  per-row refinements fold into one row per changed group and instant,
  an unchanged group emits nothing, and the global group (no
  ``GROUP BY``) reports its empty row (``COUNT`` 0) from the first
  instant any row arrives.
"""

import random
from collections import Counter

import pytest

from repro.core import Schema, SlidingWindow, TumblingWindow
from repro.dsl import AggregateFunction, StreamEnvironment
from repro.sql import run_sql

SCHEMA = Schema(["room", "dev", "temp"], [str, str, int])
KINDS = ["COUNT(*)", "COUNT(temp)", "SUM(temp)", "MIN(temp)", "MAX(temp)",
         "AVG(temp)"]
SHAPES = ["tumble", "hop", "session", "running", "stateless"]
CASES = 240


class Aggregates(AggregateFunction):
    """Every aggregate of a query at once: the accumulator is the row
    count and the non-NULL ``temp`` values, combined whole."""

    def __init__(self, kinds):
        self.kinds = kinds

    def create_accumulator(self):
        return (0, ())

    def add(self, accumulator, row):
        rows, temps = accumulator
        temp = row["temp"]
        return rows + 1, temps if temp is None else temps + (temp,)

    def merge(self, left, right):
        return left[0] + right[0], left[1] + right[1]

    def get_result(self, accumulator):
        rows, temps = accumulator
        values = {"COUNT(*)": rows, "COUNT(temp)": len(temps)}
        if temps:
            values.update({"SUM(temp)": sum(temps), "MIN(temp)": min(temps),
                           "MAX(temp)": max(temps),
                           "AVG(temp)": sum(temps) / len(temps)})
        return rows, tuple(values.get(kind) for kind in self.kinds)


def gen_rows(rng, size):
    rows, t = [], rng.randrange(3)
    for _ in range(rng.randrange(15)):
        step = rng.choice(["same", "same", "near", "near", "boundary",
                           "gap"])
        if step == "near":
            t += rng.randint(1, 4)
        elif step == "boundary":   # exactly on the next window boundary
            t += size - t % size
        elif step == "gap":        # exactly on a session's end
            t += size
        temp = None if rng.random() < 0.1 else rng.randint(-2, 9)
        rows.append(({"room": rng.choice("ab"), "dev": rng.choice("xy"),
                      "temp": temp}, t))
    if rows and rng.random() < 0.5:
        for _ in range(rng.randint(1, len(rows))):   # out-of-order arrivals
            i = rng.randrange(len(rows))
            j = min(len(rows) - 1, i + rng.randint(1, 3))
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def gen_case(rng):
    shape = rng.choice(SHAPES)
    size = rng.choice([2, 3, 5, 10])
    case = {
        "shape": shape, "size": size,
        "slide": rng.choice([s for s in (1, 2, 3, 5) if s <= size]),
        "group": rng.choice([(), ("room",), ("room", "dev")]),
        "kinds": rng.sample(KINDS, rng.randint(1, 3)),
        "where": rng.choice([None, rng.randint(0, 6)]),
        "having": rng.choice([None, None, rng.randint(1, 3)]),
        "rows": gen_rows(rng, size),
        "parallelism": rng.choice([1, 3]),
    }
    group = case["group"]
    if shape == "stateless":
        columns = ["room", "dev", "temp"]
        case["select"] = rng.sample(columns, rng.randint(1, 3))
    else:
        kept = [c for c in group if rng.random() < 0.8]
        bounds = ([b for b in ("window_start", "window_end")
                   if rng.random() < 0.5] if shape != "running" else [])
        case["select"] = kept + bounds + [
            f"a{i}" for i in range(len(case["kinds"]))]
    return case


def sql_text(case):
    shape, group = case["shape"], case["group"]
    where = ("" if case["where"] is None
             else f" WHERE temp > {case['where']}")
    if shape == "stateless":
        return f"SELECT {', '.join(case['select'])} FROM Obs{where}"
    aggregates = {f"a{i}": f"{kind} AS a{i}"
                  for i, kind in enumerate(case["kinds"])}
    items = [aggregates.get(name, name) for name in case["select"]]
    window = {"tumble": f"TUMBLE({case['size']})",
              "hop": f"HOP({case['size']}, {case['slide']})",
              "session": f"SESSION({case['size']})"}.get(shape)
    grouping = [*group, *([window] if window else [])]
    text = f"SELECT {', '.join(items)} FROM Obs{where}"
    if grouping:
        text += f" GROUP BY {', '.join(grouping)}"
    if case["having"] is not None:
        text += f" HAVING COUNT(*) >= {case['having']}"
    if shape == "running":
        text += " EMIT CHANGES"
    return text


def dsl_reference(case):
    """The case's program on the DSL, as a multiset of output tuples."""
    shape, group, select = case["shape"], case["group"], case["select"]
    rows = sorted(case["rows"], key=lambda pair: pair[1])
    env = StreamEnvironment()
    stream = env.from_collection(rows, watermark_lag=1)
    if case["where"] is not None:
        stream = stream.filter(lambda row: row["temp"] is not None
                               and row["temp"] > case["where"])
    if shape == "stateless":
        stream.map(lambda row: tuple(row[c] for c in select)).sink("out")
        return Counter(env.execute().values("out"))
    aggregate = Aggregates(case["kinds"])
    having = case["having"] or 0

    def output(key, result, window=None):
        count, values = result
        if count < having:
            return None
        named = dict(zip(group, key))
        named.update((f"a{i}", v) for i, v in enumerate(values))
        if window is not None:
            named.update(window_start=window.start, window_end=window.end)
        return tuple(named[name] for name in select)

    if shape == "running":
        (stream.map(lambda row: (
            tuple(row[c] for c in group),
            aggregate.add(aggregate.create_accumulator(), row)))
         .key_by(lambda pair: pair[0])
         .reduce(lambda left, right: (left[0],
                                      aggregate.merge(left[1], right[1])))
         .sink("out"))
        elements = env.execute().sink_outputs["out"]
        return running_changelog(case, rows, elements, aggregate, output)
    keyed = stream.key_by(lambda row: tuple(row[c] for c in group))
    if shape == "session":
        windowed = keyed.session_window(case["size"])
    elif shape == "hop":
        windowed = keyed.window(SlidingWindow(case["size"], case["slide"]))
    else:
        windowed = keyed.window(TumblingWindow(case["size"]))
    windowed.aggregate(aggregate).sink("out")
    finals = (output(key, result, window)
              for key, result, window in env.execute().values("out"))
    return Counter(row for row in finals if row is not None)


def running_changelog(case, rows, elements, aggregate, output):
    """The ISTREAM of a running aggregate, from the DSL's per-row
    refinements: each instant's net change of the projected rows."""
    latest: dict = {}
    for element in elements:
        # The job sorts each instant's output by repr: a group's last
        # refinement there is the one that has counted the most rows.
        key, (_, accumulator) = element.value
        at = latest.setdefault(element.timestamp, {})
        if key not in at or at[key][0] < accumulator[0]:
            at[key] = accumulator
    if not case["group"]:
        # The global group reports from the first instant any row arrives.
        for _, t in rows:
            latest.setdefault(t, {}).setdefault((), None)
    current: dict = {}
    emitted = Counter()
    for t in sorted(latest):
        change = Counter()
        for key, accumulator in latest[t].items():
            if accumulator is None:
                if key in current:
                    continue
                accumulator = aggregate.create_accumulator()
            new = output(key, aggregate.get_result(accumulator))
            old = current.get(key)
            if old is not None:
                change[old] -= 1
            if new is not None:
                change[new] += 1
            current[key] = new
        emitted.update({row: n for row, n in change.items() if n > 0})
    return emitted


SEEDS = 8


def cases(seed):
    rng = random.Random(seed)
    return [gen_case(rng) for _ in range(CASES // SEEDS)]


@pytest.mark.parametrize("seed", range(SEEDS))
def test_run_sql_equals_the_dsl_program(seed):
    for index, case in enumerate(cases(seed)):
        text = sql_text(case)
        got = Counter(tuple(r.values) for r in run_sql(
            text, SCHEMA, "Obs", case["rows"],
            parallelism=case["parallelism"]))
        assert got == dsl_reference(case), (
            f"seed {seed} case {index}: {text} at parallelism "
            f"{case['parallelism']} over {case['rows']}")


def test_the_cases_cover_every_shape_and_boundary():
    drawn = [case for seed in range(SEEDS) for case in cases(seed)]
    assert {case["shape"] for case in drawn} == set(SHAPES)
    assert {kind for case in drawn for kind in case["kinds"]} == set(KINDS)
    assert {case["parallelism"] for case in drawn} == {1, 3}
    assert any(case["rows"] != sorted(case["rows"], key=lambda p: p[1])
               for case in drawn)
    assert any(len({t for _, t in case["rows"]}) < len(case["rows"])
               for case in drawn)
    assert any(t and t % case["size"] == 0
               for case in drawn for _, t in case["rows"])
