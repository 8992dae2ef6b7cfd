"""Monotonicity-aware strategy decisions (repro.plan.monotone)."""

import random

import pytest

from repro.core import Schema
from repro.cql import CQLEngine
from repro.cql.executor import (
    AppendOnlyDistinctOp,
    AppendOnlyJoinOp,
    ContinuousQuery,
    DistinctOp,
    JoinOp,
)
from repro.difftest.generators import build_engine, gen_case
from repro.plan import explain
from repro.plan.exprs import WindowSpec, WindowSpecKind
from repro.plan.ir import Distinct, Join, StreamScan, WindowOp
from repro.plan.monotone import (
    IncrementalStrategy,
    append_only_inputs,
    incremental_strategy,
    strategy_notes,
)


def scan(alias="O"):
    return StreamScan("Obs", alias, Schema([f"{alias}.id"]))


def window(kind, child=None):
    return WindowOp(child or scan(), WindowSpec(kind, range_=10))


class TestStrategy:
    def test_unbounded_window_is_append_only(self):
        plan = window(WindowSpecKind.UNBOUNDED)
        assert incremental_strategy(plan) is IncrementalStrategy.APPEND_ONLY

    def test_sliding_window_retracts(self):
        plan = window(WindowSpecKind.RANGE)
        assert incremental_strategy(plan) is IncrementalStrategy.RETRACTING

    def test_join_inputs_decide_the_join_strategy(self):
        growing = Join(window(WindowSpecKind.UNBOUNDED),
                       window(WindowSpecKind.UNBOUNDED, scan("P")),
                       ("O.id",), ("P.id",), None)
        assert append_only_inputs(growing)
        sliding = Join(window(WindowSpecKind.RANGE),
                       window(WindowSpecKind.UNBOUNDED, scan("P")),
                       ("O.id",), ("P.id",), None)
        assert not append_only_inputs(sliding)

    def test_strategy_notes_cover_stateful_ops(self):
        plan = Distinct(Join(
            window(WindowSpecKind.UNBOUNDED),
            window(WindowSpecKind.UNBOUNDED, scan("P")),
            ("O.id",), ("P.id",), None))
        notes = dict((node.op_name, strategy)
                     for node, strategy in strategy_notes(plan))
        assert notes["distinct"] is IncrementalStrategy.APPEND_ONLY
        assert notes["equijoin"] is IncrementalStrategy.APPEND_ONLY


#: Each strategy's compiled operator class, by logical operator name.
COMPILED = {
    ("equijoin", IncrementalStrategy.APPEND_ONLY): AppendOnlyJoinOp,
    ("equijoin", IncrementalStrategy.RETRACTING): JoinOp,
    ("cross", IncrementalStrategy.APPEND_ONLY): AppendOnlyJoinOp,
    ("cross", IncrementalStrategy.RETRACTING): JoinOp,
    ("distinct", IncrementalStrategy.APPEND_ONLY): AppendOnlyDistinctOp,
    ("distinct", IncrementalStrategy.RETRACTING): DistinctOp,
}


def mismatches(engine, text):
    """Each stateful node whose EXPLAIN strategy names another operator
    class than the one the executor compiled for it."""
    plan = engine.plan(text)
    query = ContinuousQuery(plan, engine.catalog)
    found = []
    for node, strategy in strategy_notes(plan):
        ops = query._phys_by_logical[id(node)]
        want = COMPILED[node.op_name, strategy]
        if not ops or any(type(op) is not want for op in ops):
            found.append((text, node.describe(), strategy.value,
                          [type(op).__name__ for op in ops]))
    return found


class TestExplainMatchesTheExecutor:
    """EXPLAIN's strategy note and the compiled operator agree: a base
    relation takes deletes, so a subtree reading one retracts."""

    @pytest.fixture
    def engine(self):
        engine = CQLEngine()
        engine.register_stream("S", Schema(["id", "v"]))
        engine.register_relation("R", Schema(["id", "name"]), [])
        return engine

    @pytest.mark.parametrize("text, line, compiled", [
        ("SELECT S.v, R.name FROM S [Range Unbounded], R "
         "WHERE S.id = R.id", "EquiJoin(S.id=R.id)  [retracting]", JoinOp),
        ("SELECT DISTINCT R.name FROM R", "distinct  [retracting]",
         DistinctOp),
    ])
    def test_a_relation_input_explains_and_runs_retracting(
            self, engine, text, line, compiled):
        assert line in explain(engine.plan(text))
        classes = [type(op) for _, op in engine.register_query(
            text).operators()]
        assert compiled in classes
        assert not {AppendOnlyJoinOp, AppendOnlyDistinctOp} & set(classes)
        assert mismatches(engine, text) == []

    def test_every_generated_case_explains_what_it_compiles(self):
        rng = random.Random(0)
        found = []
        for _ in range(500):
            found += mismatches(build_engine(), gen_case(rng).query)
        assert found == []
