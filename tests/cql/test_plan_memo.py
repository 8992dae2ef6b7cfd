"""The engine's plan memo: one plan per (text, optimize), and one
parse, plan and optimize per literal-free shape, both bounded.

``CQLEngine.plan`` keeps each plan it builds under the exact text and
the effective ``optimize`` flag, and each shape's first plan under the
text's shape (its tokens with the comparison literals lifted into typed
slots, see ``repro.cql.lexer.shape``); a text of a known shape is bound
from the shape's plan.  Each memo drops its least recently used entry
past ``PLAN_CACHE_SIZE``; the kernels of a plan live and die with its
entry.  These tests pin the bounds (nothing grows with the number of
texts planned), that only a successful plan is kept, that a warm plan
is the plan a fresh engine builds, and that a plan bound from a shape
is the plan a fresh engine builds for its text — over the whole golden
parse corpus.
"""

import itertools
import json
import pathlib
import random

import pytest

from repro.core import ParseError, PlanError, Schema
from repro.cql import CQLEngine, parser
from repro.cql import engine as cql_engine
from repro.cql.ast import SetStatement
from repro.cql.lexer import shape, tokenize
from repro.difftest import build_engine, gen_case, literal_sibling
from repro.plan.ir import literals_of
from repro.plan.signature import plan_signature

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / \
    "parse_corpus.json"

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

    def counted(text, *args):
        made.append(text)
        return parser.parse_query(text, *args)

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
        # Each width is a shape of its own.
        assert len(engine._shapes) == bound
        # The kernels go with their plans.
        assert set(engine._kernels) == {id(plan) for plan
                                        in engine._plans.values()}

    def test_the_least_recently_used_plan_goes_first(self, monkeypatch):
        engine = make_engine()
        bound = cql_engine.PLAN_CACHE_SIZE
        texts = [f"SELECT id FROM Obs [Range {width}]"
                 for width in range(1, bound + 2)]
        first = engine.plan(texts[0])
        second, *_ = [engine.plan(text) for text in texts[1:bound]]
        assert engine.plan(texts[0]) is first   # now the most recent
        made = parses(monkeypatch)
        # Evicts texts[1]'s plan, and texts[0]'s shape: an exact hit
        # does not touch the shape memo.
        engine.plan(texts[bound])
        assert engine.plan(texts[0]) is first
        again = engine.plan(texts[1])           # bound from its shape
        assert again is not second
        assert plan_signature(again, detail=True) == plan_signature(
            second, detail=True)
        engine.plan(" " + texts[0])             # its shape is planned again
        assert made == [texts[bound], " " + texts[0]]


class TestValidity:
    def test_a_warm_text_is_planned_once(self, monkeypatch):
        engine = make_engine()
        made = parses(monkeypatch)
        plans = [engine.plan(FLEET[0]) for _ in range(3)]
        assert made == [FLEET[0]]
        assert plans[1] is plans[0] and plans[2] is plans[0]

    @pytest.mark.parametrize("text", [
        FLEET[2], FLEET[6],
        "SELECT O.room, A.level FROM Obs O [Range 5], Alerts A [Range 5] "
        "WHERE O.id = A.id"])
    def test_two_registrations_of_a_text_share_one_output_schema(self,
                                                                  text):
        """A plan node derives its layout once, so every query compiled
        from the memoised plan reads one Schema object, whose record
        class is resolved once."""
        engine = make_engine()
        engine.register_stream("Alerts", Schema(["id", "level"]))
        first, second = (engine.register_query(text) for _ in range(2))
        assert first is not second
        assert first.output_schema is second.output_schema
        assert first.plan.schema is first.plan.schema

    def test_the_key_is_the_shape(self, monkeypatch):
        """Whitespace and comparison-literal variants of a text are one
        shape: parsed once, each bound to a plan of its own that is the
        plan a fresh engine builds for it."""
        engine = make_engine()
        made = parses(monkeypatch)
        spaced = FLEET[0].replace(" FROM", "  FROM")
        other = FLEET[0].replace("> 10", "> 25")
        plans = [engine.plan(text) for text in (spaced, FLEET[0], other)]
        assert made == [spaced]
        assert len({id(plan) for plan in plans}) == 3
        for text, plan in zip((spaced, FLEET[0], other), plans):
            assert plan_signature(plan, detail=True) == plan_signature(
                make_engine().plan(text), detail=True)
        assert "25" in plan_signature(plans[2], detail=True)

    @pytest.mark.parametrize("base, variant", [
        ("[Range 5]", "[Range 7]"),
        ("temp > 10", "TRUE"),
        ("> 10", "> 10.5"),
        ("> 10", "> '10'"),
        ("temp > 10 + 0", "temp > 11 + 0"),
        ("temp > 10", "1"),
    ], ids=["window", "where-true", "float", "string", "arithmetic",
            "whole-predicate"])
    def test_what_stays_in_the_key(self, monkeypatch, base, variant):
        """A window, a literal that is a whole predicate, a slot's type
        and a literal an arithmetic operator takes are all the shape's:
        a text that differs from a planned one there is planned anew."""
        engine = make_engine()
        first = FLEET[0].replace("temp > 10", "temp > 10 + 0") \
            if "+" in base else FLEET[0]
        engine.plan(first)
        made = parses(monkeypatch)
        text = first.replace(base, variant)
        plan = engine.plan(text)
        assert made == [text]
        assert plan_signature(plan, detail=True) == plan_signature(
            make_engine().plan(text), detail=True)

    def test_a_select_item_literal_stays_in_the_key(self):
        """An unaliased select item names its column after its text, so
        its literals are not slots."""
        tokens = tokenize("SELECT temp > 10 FROM Obs WHERE id = 3")
        key, literals, _ = shape(tokens)
        assert literals == (3,) and "10" in key

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


# ---------------------------------------------------------------------------
# Bound plans over the golden parse corpus
# ---------------------------------------------------------------------------


def _blocks(statement):
    if isinstance(statement, SetStatement):
        return _blocks(statement.left) + _blocks(statement.right)
    return [statement]


def inferred_engine(text):
    """An engine whose catalog declares what ``text`` reads: each FROM
    source a stream when it is windowed, else a relation, with the
    columns the text names on it (an unqualified one on the first)."""
    fields, streams = {}, set()
    for block in _blocks(parser.parse_query(text)):
        bindings = {source.binding: source.name for source in block.sources}
        for source in block.sources:
            fields.setdefault(source.name, set())
            if source.window is not None:
                streams.add(source.name)
        exprs = [item.expr for item in block.items] + list(block.group_by)
        exprs += [expr for expr in (block.where, block.having) if expr]
        for expr in exprs:
            for column in expr.columns():
                alias, _, name = column.name.rpartition(".")
                fields[bindings.get(alias, block.sources[0].name)].add(name)
    engine = CQLEngine()
    for name, names in fields.items():
        schema = Schema(sorted(names) or ["x"])
        if name in streams:
            engine.register_stream(name, schema)
        else:
            engine.register_relation(name, schema)
    return engine


def listing_engine():
    engine = CQLEngine()
    engine.register_stream("RoomObservation", Schema(["id", "room"]))
    engine.register_relation("Person", Schema(["id", "name"]))
    return engine


#: Engine builders, each given the text: a corpus text is planned on
#: the first catalog it plans on.
BUILDERS = (lambda _: build_engine(), lambda _: listing_engine(),
            inferred_engine)


def corpus_cases():
    """Each corpus text that plans, with a builder of an engine it plans
    on."""
    cases = []
    for text in json.loads(CORPUS.read_text(encoding="utf-8")):
        for builder in BUILDERS:
            try:
                builder(text).plan(text)
            except (ParseError, PlanError, KeyError):
                continue
            cases.append((text, builder))
            break
    return cases


class TestBoundPlansAreFreshPlans:
    """A text planned after a literal sibling of it is bound from the
    sibling's shape, yet is the plan a fresh engine builds for it."""

    def test_every_corpus_text_that_plans(self, monkeypatch):
        cases = corpus_cases()
        assert len(cases) >= 1_200
        slotted = 0
        for text, builder in cases:
            engine, fresh = builder(text), builder(text)
            want = {optimize: plan_signature(
                fresh.plan(text, optimize=optimize), detail=True)
                for optimize in (True, False)}
            made = parses(monkeypatch)
            for optimize in (True, False):
                engine.plan(literal_sibling(text), optimize=optimize)
                bound = engine.plan(text, optimize=optimize)
                assert plan_signature(bound, detail=True) == want[optimize]
                # Every slot reaches a predicate, where bind fills it.
                assert len(literals_of(bound)) == len(
                    shape(tokenize(text))[1]), text
            assert made == [literal_sibling(text)] * 2, text
            assert engine.explain(text) == fresh.explain(text), text
            slotted += bool(shape(tokenize(text))[1])
        assert slotted >= 300
