"""The engine's plan memo: one plan per (text, optimize), bounded.

``CQLEngine.plan`` keeps each plan it builds under the exact text and
the effective ``optimize`` flag, least recently used out first past
``PLAN_CACHE_SIZE``; the kernels bound for a plan live and die with its
entry.  These tests pin the bound (nothing grows with the number of
texts planned), that only a successful plan is kept, and that a warm
plan is the plan a fresh engine builds.
"""

import itertools
import random

import pytest

from repro.core import ParseError, PlanError, Schema
from repro.cql import CQLEngine, parser
from repro.cql import engine as cql_engine
from repro.difftest import build_engine, gen_case
from repro.plan.signature import plan_signature

OBS = Schema(["id", "room", "temp"])

#: Texts in the style of a standing-query fleet: templates over windows
#: and filter thresholds.
TEMPLATES = (
    "SELECT COUNT(*) AS n {frm}",
    "SELECT DISTINCT room {frm}",
    "SELECT room, COUNT(*) AS n {frm} GROUP BY room",
    "SELECT id, room {frm}",
    "SELECT MAX(temp) AS hottest {frm}",
    "SELECT AVG(temp) AS mean {frm}",
    "SELECT ISTREAM id, temp + 1 AS t {frm}",
)
FLEET = [template.format(
             frm=f"FROM Obs [Range {window}] WHERE temp > {threshold}")
         for threshold, window, template
         in itertools.product((10, 25), (5, 20), TEMPLATES)]


def make_engine():
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    return engine


def parses(monkeypatch):
    """Count ``parse_query`` calls the engine makes from here on."""
    made = []

    def counted(text):
        made.append(text)
        return parser.parse_query(text)

    monkeypatch.setattr(cql_engine, "parse_query", counted)
    return made


class TestBound:
    def test_ten_times_the_bound_of_texts_keeps_at_most_the_bound(self):
        engine = make_engine()
        bound = cql_engine.PLAN_CACHE_SIZE
        for width in range(1, 10 * bound + 1):
            engine.plan(f"SELECT id FROM Obs [Range {width}]")
            engine.plan(f"SELECT id FROM Obs [Range {width}]",
                        optimize=False)
        assert len(engine._plans) == bound
        # The bound kernels go with their plans.
        assert set(engine._kernels) == {id(plan) for plan
                                        in engine._plans.values()}

    def test_the_least_recently_used_plan_goes_first(self, monkeypatch):
        engine = make_engine()
        bound = cql_engine.PLAN_CACHE_SIZE
        texts = [f"SELECT id FROM Obs [Range {width}]"
                 for width in range(1, bound + 2)]
        first = engine.plan(texts[0])
        for text in texts[1:bound]:
            engine.plan(text)
        assert engine.plan(texts[0]) is first   # now the most recent
        made = parses(monkeypatch)
        engine.plan(texts[bound])               # evicts texts[1]
        assert engine.plan(texts[0]) is first
        engine.plan(texts[1])
        assert made == [texts[bound], texts[1]]


class TestValidity:
    def test_a_warm_text_is_planned_once(self, monkeypatch):
        engine = make_engine()
        made = parses(monkeypatch)
        plans = [engine.plan(FLEET[0]) for _ in range(3)]
        assert made == [FLEET[0]]
        assert plans[1] is plans[0] and plans[2] is plans[0]

    def test_the_key_is_the_exact_text(self, monkeypatch):
        engine = make_engine()
        made = parses(monkeypatch)
        spaced = FLEET[0].replace(" FROM", "  FROM")
        assert engine.plan(spaced) is not engine.plan(FLEET[0])
        assert made == [spaced, FLEET[0]]

    def test_a_text_on_an_unknown_source_plans_once_it_is_declared(self):
        engine = make_engine()
        text = "SELECT level FROM Alerts [Range 5]"
        with pytest.raises(PlanError, match="Alerts"):
            engine.plan(text)
        engine.register_stream("Alerts", Schema(["id", "level"]))
        assert engine.plan(text).schema.fields == ("level",)

    def test_a_parse_error_is_raised_on_every_attempt(self, monkeypatch):
        engine = make_engine()
        made = parses(monkeypatch)
        text = "SELECT id FROM Obs [Range 5]; SELECT room FROM Obs"
        for _ in range(3):
            with pytest.raises(ParseError, match="trailing"):
                engine.plan(text)
        assert made == [text] * 3
        assert not engine._plans

    def test_optimize_false_and_the_default_are_separate_entries(self):
        engine = make_engine()
        text = FLEET[2]
        optimized = engine.plan(text)
        naive = engine.plan(text, optimize=False)
        assert naive is not optimized
        assert engine.plan(text, optimize=True) is optimized
        assert engine.plan(text, optimize=False) is naive
        fresh = make_engine()
        for plan, flag in ((optimized, True), (naive, False)):
            assert plan_signature(plan, detail=True) == plan_signature(
                fresh.plan(text, optimize=flag), detail=True)
        # An engine that does not optimise by default keys its default
        # as False.
        unoptimizing = CQLEngine(optimize=False)
        unoptimizing.register_stream("Obs", OBS)
        assert unoptimizing.plan(text) is unoptimizing.plan(
            text, optimize=False)


class TestWarmPlansAreFreshPlans:
    """A memoised plan, after queries compiled from it ran, is the plan a
    fresh engine builds for the text."""

    @staticmethod
    def run_then_replan(engine, text):
        first = engine.plan(text)
        query = engine.register_query(text)
        for t in range(1, 6):
            for stream in query._stream_sources:
                schema = engine.catalog.stream(stream).schema
                query.push(stream, dict.fromkeys(schema.fields, t), t)
        warm = engine.plan(text)
        assert warm is first
        return warm

    @pytest.mark.parametrize("text", FLEET)
    def test_a_fleet_text(self, text):
        warm = self.run_then_replan(make_engine(), text)
        assert plan_signature(warm, detail=True) == plan_signature(
            make_engine().plan(text), detail=True)

    def test_the_difftest_generators_texts(self):
        rng = random.Random(0)
        checked = 0
        for _ in range(150):
            text = gen_case(rng).query
            try:
                build_engine().plan(text)
            except PlanError:
                continue
            engine = build_engine()
            warm = self.run_then_replan(engine, text)
            assert plan_signature(warm, detail=True) == plan_signature(
                build_engine().plan(text), detail=True)
            engine.plan(text, optimize=False)
            assert plan_signature(engine.plan(text, optimize=False),
                                  detail=True) == plan_signature(
                build_engine().plan(text, optimize=False), detail=True)
            checked += 1
        assert checked > 100
