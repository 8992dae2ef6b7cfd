"""The reference relabels rows only where field names reach a result.

Operators of :mod:`repro.cql.reference` read their input rows' values,
so a scanned table's rows keep the labels they came with; the root's
result, a join's row and a set operation's sides are the bags whose
Records must carry the plan's field names (Records compare by them).
``tests/cql/test_reference_corpus.py`` pins that the results are
unchanged.
"""

import pytest

from repro.core import Bag, Record, Schema
from repro.cql import CQLEngine
from repro.cql.reference import recompute

BASE = Schema(["g", "v"])


def plan_of(text):
    engine = CQLEngine()
    for name in ("base", "other"):
        engine.register_relation(name, BASE)
    return engine.plan(text)


def relabels(monkeypatch, action):
    made = []
    relabel = Record.with_schema

    def counted(self, schema):
        made.append(self)
        return relabel(self, schema)

    monkeypatch.setattr(Record, "with_schema", counted)
    result = action()
    monkeypatch.undo()
    return result, len(made)


def rows(n):
    return Bag([Record(BASE, (i % 3, i)) for i in range(n)])


def test_an_aggregate_over_a_scan_relabels_nothing(monkeypatch):
    plan = plan_of("SELECT g, COUNT(*) AS n FROM base GROUP BY g")
    result, made = relabels(monkeypatch,
                            lambda: recompute(plan, {"base": rows(30)}))
    assert made == 0
    assert sorted(row.values for row in result) == [(0, 10), (1, 10),
                                                    (2, 10)]
    assert all(row.schema == plan.schema for row in result)


@pytest.mark.parametrize("text", [
    "SELECT * FROM base WHERE v > 3",
    "SELECT DISTINCT g FROM base",
    "SELECT b.g, o.v FROM base b, other o WHERE b.g = o.g AND o.v > b.v",
    "SELECT g, v FROM base UNION ALL SELECT g, v FROM other",
    "SELECT g, v FROM base EXCEPT ALL SELECT g, v FROM other",
])
def test_a_result_carries_the_plans_labels(text):
    plan = plan_of(text)
    contents = {"base": rows(12), "other": Bag(
        [Record(Schema(["g", "v"]), (i % 2, i + 4)) for i in range(6)])}
    result = recompute(plan, contents)
    assert result
    assert all(row.schema.fields == plan.schema.fields for row in result)
