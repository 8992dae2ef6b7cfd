"""A repeated query text registers at lookup cost, and a literal
sibling of one at the cost of a tokenize.

Counts, not clocks: registering a text the engine has planned before
tokenizes, parses, plans, optimises and renders nothing — the engine's
plan memo holds the plan, and the kernels rendered for it by the first
query compiled from its shape — while a cold text does exactly the work
it always did.  A text that differs from a planned one only in its
comparison literals is tokenised once and bound from its shape's plan
and kernels.  Two queries compiled from one memoised plan still own
their operators, state and answers, isolated, shared, fissioned and
crashed.
"""

import itertools
import sys
from collections import Counter

import pytest

import repro.obs as obs
from repro.chaos import CrashFuse, install_crash
from repro.core import ParseError, Schema, Stream
from repro.cql import CQLEngine, kernels, lexer, parser, planner
from repro.cql.executor import InstantEvaluator
from repro.dsms import DSMSEngine
from repro.obs.metrics import Counter as ObsCounter
from repro.plan import rules
from repro.plan.signature import plan_signature

OBS = Schema(["id", "room", "temp"])
ROOMS = Schema(["room", "floor"])
ROOM_ROWS = [{"room": "a", "floor": 1}, {"room": "b", "floor": 2}]

#: The functions a registration spends its parse, plan and render time
#: in: the lexer, parser, planner and optimizer, the factory compiler and
#: the kernel source renderers.
WORK = {function.__code__: name for name, function in [
    ("tokenize", lexer.tokenize),
    ("parse_query", parser.parse_query),
    ("plan_statement", planner.plan_statement),
    ("optimize", rules.optimize),
    ("_factory", kernels._factory),
    ("_aggregate_source", kernels._aggregate_source),
    ("_conjuncts", kernels._conjuncts),
    ("_join_column", kernels._join_column),
]}

GROUPED = ("SELECT room, COUNT(temp) AS n FROM Obs [Range 5] WHERE temp > 1 "
           "GROUP BY room")
JOINED = ("SELECT O.id, R.floor FROM Obs O [Range 5], Rooms R "
          "WHERE O.room = R.room AND R.floor > 1")
SPINE = "SELECT id, temp + 1 AS t FROM Obs [Range 3] WHERE temp > 0"
STREAM_JOIN = ("SELECT ISTREAM O.id, A.level FROM Obs O [Range 4], "
               "Alerts A [Rows 2] WHERE O.id = A.id AND O.temp > A.level")

#: Each text with its comparison literals changed (or, with none, its
#: spacing): a text of the same shape.
SIBLING = {
    GROUPED: GROUPED.replace("temp > 1", "temp > 3"),
    JOINED: JOINED.replace("R.floor > 1", "R.floor > 2"),
    SPINE: SPINE.replace("temp > 0", "temp > 4"),
    STREAM_JOIN: STREAM_JOIN.replace(" WHERE", "  WHERE"),
}

#: What registering each text cold costs, one entry per call (the
#: counts the engine made before plans were memoised).
COLD = {
    GROUPED: {"tokenize": 1, "parse_query": 1, "plan_statement": 1,
              "optimize": 1, "_factory": 2, "_aggregate_source": 1,
              "_conjuncts": 1},
    JOINED: {"tokenize": 1, "parse_query": 1, "plan_statement": 1,
             "optimize": 1, "_factory": 3, "_conjuncts": 3,
             "_join_column": 6},
    SPINE: {"tokenize": 1, "parse_query": 1, "plan_statement": 1,
            "optimize": 1, "_factory": 2, "_conjuncts": 2},
    STREAM_JOIN: {"tokenize": 1, "parse_query": 1, "plan_statement": 1,
                  "optimize": 1, "_factory": 2, "_conjuncts": 2,
                  "_join_column": 6},
}


def work_done(action):
    """The calls ``action()`` makes into :data:`WORK`, counted by name."""
    made = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in WORK:
            made[WORK[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return dict(made)


def declare(engine):
    engine.register_stream("Obs", OBS)
    engine.register_stream("Alerts", Schema(["id", "level"]))
    engine.register_relation("Rooms", ROOMS, ROOM_ROWS)
    return engine


class TestCallsPerRegistration:
    @pytest.mark.parametrize("text", sorted(COLD))
    def test_a_cold_text_does_the_work_it_always_did(self, text):
        engine = declare(DSMSEngine())
        assert work_done(lambda: engine.register_query("q", text)) \
            == COLD[text]

    @pytest.mark.parametrize("text", sorted(COLD))
    def test_a_warm_text_parses_plans_and_renders_nothing(self, text):
        engine = declare(DSMSEngine())
        first = engine.register_query("first", text)
        assert work_done(lambda: engine.register_query("again", text)) == {}
        again = engine.query("again")
        assert again.query.plan is first.query.plan
        operators = [op for _, op in first.query.operators()]
        assert not any(op is mine for _, mine in again.query.operators()
                       for op in operators)

    def test_cancelling_and_reregistering_a_warm_text_renders_nothing(self):
        engine = declare(DSMSEngine())
        engine.register_query("keep", GROUPED)
        engine.register_query("go", JOINED)
        engine.cancel_query("go")

        def churn():
            for round_ in range(3):
                for text in (GROUPED, JOINED):
                    name = f"{round_}-{text[:12]}"
                    engine.register_query(name, text)
                    engine.cancel_query(name)

        assert work_done(churn) == {}

    @pytest.mark.parametrize("text", sorted(COLD))
    def test_a_literal_sibling_only_tokenizes(self, text):
        engine = declare(DSMSEngine())
        first = engine.register_query("first", SIBLING[text])
        assert work_done(lambda: engine.register_query("sibling", text)) \
            == {"tokenize": 1}
        sibling = engine.query("sibling").query
        assert sibling.plan is not first.query.plan
        operators = [op for _, op in first.query.operators()]
        assert not any(op is mine for _, mine in sibling.operators()
                       for op in operators)
        # Its own literals, not the first text's.
        assert plan_signature(sibling.plan, detail=True) == plan_signature(
            declare(CQLEngine()).plan(text), detail=True)

    def test_engines_do_not_share_their_memo(self):
        declare(DSMSEngine()).register_query("q", GROUPED)
        engine = declare(DSMSEngine())
        assert work_done(lambda: engine.register_query("q", GROUPED)) \
            == COLD[GROUPED]

    def test_text_after_a_semicolon_is_refused_not_dropped(self):
        engine = declare(DSMSEngine())
        with pytest.raises(ParseError, match="unexpected trailing input"):
            engine.register_query("q", f"{GROUPED}; DROP")
        assert engine.queries == []


# ---------------------------------------------------------------------------
# What a cold text costs
# ---------------------------------------------------------------------------

#: A standing-query fleet's eight templates over one window and threshold
#: (the first eight texts the ``query_fleet`` workload registers).
FLEET = [template.format(frm="FROM Obs [Range 5] WHERE temp > 10")
         for template in (
             "SELECT COUNT(*) AS n {frm}",
             "SELECT DISTINCT room {frm}",
             "SELECT room, COUNT(*) AS n {frm} GROUP BY room",
             "SELECT DISTINCT id {frm}",
             "SELECT id, room {frm}",
             "SELECT MAX(temp) AS hottest {frm}",
             "SELECT id, COUNT(*) AS n {frm} GROUP BY id",
             "SELECT AVG(temp) AS mean {frm}")]


def calls_made(action):
    """How many Python function calls ``action()`` makes."""
    made = [0]

    def profiler(frame, event, arg):
        if event == "call":
            made[0] += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return made[0]


#: The ``query_fleet`` workload's pool: its eight templates over three
#: windows and four thresholds, 24 shapes, in its registration order.
POOL = [template.replace("[Range 5]", f"[Range {window}]")
        .replace("temp > 10", f"temp > {threshold}")
        for threshold, window, template
        in itertools.product((10, 15, 20, 25), (5, 10, 20), FLEET)]


class TestFleetRegistration:
    """The fleet's 96 texts on a fresh engine are planned once per shape
    and render each shape's kernels once."""

    def test_parse_plan_and_optimize_run_once_per_shape(self):
        engine = DSMSEngine()
        engine.register_stream("Obs", OBS)

        def register():
            for n, text in enumerate(POOL):
                engine.register_query(f"q{n}", text)

        made = work_done(register)
        assert len(POOL) == 96
        assert made["tokenize"] == 96
        assert made["parse_query"] == made["plan_statement"] \
            == made["optimize"] == 24

    def test_the_fleet_renders_at_most_one_kernel_set_per_shape(self):
        engine = DSMSEngine()
        engine.register_stream("Obs", OBS)
        rendered = [0]
        code = kernels.Kernel.__init__.__code__

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is code:
                rendered[0] += 1

        sys.setprofile(profiler)
        try:
            for n, text in enumerate(POOL):
                engine.register_query(f"q{n}", text)
        finally:
            sys.setprofile(None)
        # 24 prefilters, 15 aggregates and 9 spines, against one of each
        # per text (192) when kernels were keyed by plan.
        assert rendered[0] <= 48


class TestColdRegistrationCost:
    """Counts, not clocks: the Python calls the fleet's texts cost cold,
    on fresh engines with the process's kernel factories warm (rendering
    a shape's source the first time is the factory cache's cost, not the
    frontend's).  The one-pass lexer and the binding-power expression
    parser took parsing from 2 479 calls to ~650, and a cold registration
    from 5 251 to ~2 900."""

    @pytest.fixture(autouse=True)
    def _warm_factories(self):
        for text in FLEET:
            engine = DSMSEngine()
            engine.register_stream("Obs", OBS)
            engine.register_query("warm", text)

    def test_parsing_the_fleet_is_cheap(self):
        assert sum(calls_made(lambda: parser.parse_query(text))
                   for text in FLEET) <= 1_000

    def test_registering_the_fleet_cold_is_cheap(self):
        def register(text):
            engine = DSMSEngine()
            engine.register_stream("Obs", OBS)
            return lambda: engine.register_query("q", text)

        assert sum(calls_made(register(text)) for text in FLEET) <= 3_800

    def test_a_registration_builds_one_evaluator_and_its_cancel_none(self):
        engine = DSMSEngine()
        engine.register_stream("Obs", OBS)
        built = Counter()
        code = InstantEvaluator.__init__.__code__

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is code:
                built[len(frame.f_locals["roots"])] += 1

        sys.setprofile(profiler)
        try:
            for n, text in enumerate(FLEET):
                engine.register_query(f"q{n}", text)
            for n in range(len(FLEET)):
                engine.cancel_query(f"q{n}")
        finally:
            sys.setprofile(None)
        assert built == {1: len(FLEET)}

    def test_a_registration_builds_no_obs_counter(self):
        """A query's tuple-flow tallies are plain ints, published straight
        into the registry: registering keeps no obs counter beside them."""
        engine = DSMSEngine()
        engine.register_stream("Obs", OBS)
        built = Counter()
        code = ObsCounter.__init__.__code__

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is code:
                built[frame.f_locals["name"]] += 1

        sys.setprofile(profiler)
        try:
            for n, text in enumerate(FLEET):
                engine.register_query(f"q{n}", text)
        finally:
            sys.setprofile(None)
        assert built == {}
        engine.ingest("Obs", {"id": 1, "room": "a", "temp": 30}, t=1)
        engine.run_until_idle()
        engine.publish_observability()
        registry = obs.get_registry()
        for n in range(len(FLEET)):
            metrics = engine.query(f"q{n}").metrics
            assert {field: registry.counter(f"dsms.query.{field}",
                                            query=f"q{n}").value
                    for field in metrics.COUNTERS} == {
                field: metrics.as_dict()[field] for field in metrics.COUNTERS}
            assert metrics.ingested == 1


# ---------------------------------------------------------------------------
# Two queries from one plan
# ---------------------------------------------------------------------------

TICKS = 10
#: The tick before which the second query is registered (the first is
#: registered at the start), and the tick after which the first is
#: cancelled: the two see different histories and end at different
#: instants, so their answers differ.  A shared group takes members only
#: before data flows and none of them leaves, so there both run through.
SECOND_AT, CANCEL_AFTER = 4, 7

TEXTS = [
    "SELECT room, COUNT(*) AS n, MAX(temp) AS hot FROM Obs [Range 4] "
    "WHERE temp > 5 GROUP BY room",
    "SELECT O.room, COUNT(*) AS n FROM Obs O [Range 4], Rooms R "
    "WHERE O.room = R.room AND R.floor > 1 GROUP BY O.room",
]


def arrivals(t):
    return [{"id": t * 10 + k, "room": "ab"[(t + k) % 2],
             "temp": (t * 7 + k * 5) % 30} for k in range(3)]


def one_shot(text, first, last):
    """The answer at ``last`` of ``text`` over the arrivals stamped
    ``first`` to ``last``."""
    cql = declare(CQLEngine())
    rows = [(row, t) for t in range(first, last + 1) for row in arrivals(t)]
    return cql.run_one_shot(
        text, {"Obs": Stream.of_records(OBS, rows)}).at(last)


MODES = {
    "isolated": ({}, {}),
    "shared": ({"sharing": True}, {}),
    "fissioned": ({}, {"parallelism": 2}),
    "crashed": ({"recovery_interval": 2}, {}),
}


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_two_queries_from_one_plan_keep_their_own_answers(mode, text):
    engine_kwargs, query_kwargs = MODES[mode]
    engine = declare(DSMSEngine(**engine_kwargs))
    first = engine.register_query("first", text, **query_kwargs)
    shared = mode == "shared"
    second_at, cancel_after = (1, TICKS) if shared else (SECOND_AT,
                                                         CANCEL_AFTER)
    fuse = None
    for t in range(1, TICKS + 1):
        if t == second_at:
            second = engine.register_query("second", text, **query_kwargs)
            assert second.query.plan is first.query.plan
            if mode == "crashed":
                labels = [label for label, _ in second.query.operators()]
                fuse = CrashFuse(at=3)
                install_crash(second.query, labels.index("AggregateOp"),
                              fuse)
        engine.ingest_many("Obs", arrivals(t), t)
        engine.run_until_idle()
        if t == cancel_after and not shared:
            engine.cancel_query("first")
    if shared:
        assert second.query.group is first.query.group
        assert second.query.changelog is not first.query.changelog
    else:
        mine = {id(op) for _, op in first.query.operators()}
        assert not mine & {id(op) for _, op in second.query.operators()}
    if mode == "fissioned":
        assert first.query.parallelism == second.query.parallelism == 2
    if fuse is not None:
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
    assert first.store_state() == one_shot(text, 1, cancel_after)
    assert second.store_state() == one_shot(text, second_at, TICKS)


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_literal_siblings_keep_their_own_literals(mode, text):
    """A text and a literal sibling registered from one shape's plan and
    kernels: each answers with its own threshold."""
    engine_kwargs, query_kwargs = MODES[mode]
    engine = declare(DSMSEngine(**engine_kwargs))
    other = text.replace("> 5", "> 20").replace("> 1", "> 0")
    assert other != text
    handles = [engine.register_query(name, query, **query_kwargs)
               for name, query in (("text", text), ("other", other))]
    for t in range(1, TICKS + 1):
        engine.ingest_many("Obs", arrivals(t), t)
        engine.run_until_idle()
    for handle, query in zip(handles, (text, other)):
        assert handle.store_state() == one_shot(query, 1, TICKS)
    assert handles[0].store_state() != handles[1].store_state()
