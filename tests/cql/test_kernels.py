"""Generated kernels (:mod:`repro.cql.kernels`) against the reference.

Every aggregate runs the generated instant, every filter pushed below
a window the generated prefilter, every Filter/Project chain a generated
spine and every join side a generated probe, so these cases compare a
query's answer at every instant with :mod:`repro.cql.reference` over
NULL-bearing streams, pin the refusal messages the kernels raise, and
count the compiles behind the process-wide factory cache.  Every row
that enters through a door runs the generated coercer of its layout,
compared here with :meth:`Schema.coerce` row by row, refusals word for
word.
"""

import ast
import itertools
import linecache
import random
import traceback
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType

import pytest

import repro
from repro.core import Schema, SchemaError, StateError, Stream
from repro.core.operators import AggregateKind
from repro.core.records import Record
from repro.cql import CQLEngine, ContinuousQuery, kernels, reference_evaluate
from repro.cql.catalog import Catalog
from repro.cql.executor import JoinOp, SpineOp
from repro.cql.expressions import compile_predicate
from repro.dsms import DSMSEngine
from repro.plan.exprs import Binary, BinOp, Column, Literal
from repro.plan.ir import (
    Aggregate,
    AggregateExpr,
    Filter,
    Join,
    Project,
    StreamScan,
    WindowAggregate,
    WindowOp,
    walk,
)
from repro.views import DynamicTable, DynamicTableService, make_scan

OBS = Schema(["id", "room", "temp"])
BADGE = Schema(["id", "door"])


def obs_stream(seed, arrivals=60):
    """Sparse, NULL-bearing arrivals: several share an instant, and gaps
    longer than a window empty groups out."""
    rng = random.Random(seed)
    rows, t = [], 0
    for _ in range(arrivals):
        t += rng.choice([0, 0, 1, 2, 5])
        rows.append(({"id": rng.randrange(6),
                      "room": rng.choice(["a", "b", "c", None]),
                      "temp": rng.choice([None, -3, 0, 7, 12, 25, 40])}, t))
    return Stream.of_records(OBS, rows)


def badge_stream(seed, arrivals=50):
    """Badge arrivals beside :func:`obs_stream`'s: NULL ids and doors."""
    rng = random.Random(1000 + seed)
    rows, t = [], 0
    for _ in range(arrivals):
        t += rng.choice([0, 0, 1, 2, 4])
        rows.append(({"id": rng.choice([0, 1, 2, 3, 4, 5, None]),
                      "door": rng.choice([None, 0, 1, 2])}, t))
    return Stream.of_records(BADGE, rows)


def engine():
    cql = CQLEngine()
    cql.register_stream("Obs", OBS)
    cql.register_stream("Badge", BADGE)
    return cql


def both(text, stream):
    """(reference relation, executed query) for a relation query."""
    reference = reference_evaluate(engine().plan(text), engine().catalog,
                                   {"Obs": stream})
    query = engine().register_query(text)
    query.run_recorded({"Obs": stream})
    return reference, query


def rows_at(relation, t):
    return sorted((tuple(record) for record in relation.at(t)), key=repr)


def value_items(bag):
    return sorted(((tuple(record), n) for record, n in bag.items()),
                  key=repr)


AGGREGATES = [
    "COUNT(*) AS n", "COUNT(temp) AS c", "SUM(temp) AS s", "AVG(temp) AS a",
    "MIN(temp) AS lo", "MAX(temp) AS hi",
    # Expression arguments: evaluated by their compiled closures.
    "COUNT(temp + id) AS c", "SUM(temp * 2 - id) AS s", "AVG(temp - id) AS a",
    "MIN(ABS(temp - 20)) AS lo", "MAX(temp % 7) AS hi",
]


class TestAggregateKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_grouped_matches_reference(self, aggregate, seed):
        reference, query = both(
            f"SELECT room, {aggregate} FROM Obs [Range 3] GROUP BY room",
            obs_stream(seed))
        assert query.as_relation() == reference

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_global_matches_reference(self, aggregate, seed):
        reference, query = both(f"SELECT {aggregate} FROM Obs [Range 3]",
                                obs_stream(seed))
        assert query.as_relation() == reference

    @pytest.mark.parametrize("seed", [4, 5])
    def test_every_kind_over_two_key_columns(self, seed):
        reference, query = both(
            "SELECT room, id, COUNT(*) AS n, COUNT(temp) AS c, "
            "SUM(temp) AS s, AVG(temp) AS a, MIN(temp) AS lo, "
            "MAX(temp) AS hi, SUM(temp + id) AS e FROM Obs [Rows 7] "
            "GROUP BY room, id", obs_stream(seed, 120))
        assert query.as_relation() == reference

    def test_groups_disappear_when_their_rows_expire(self):
        stream = Stream.of_records(OBS, [
            ({"id": 1, "room": "a", "temp": 5}, 1),
            ({"id": 2, "room": "b", "temp": None}, 2),
            ({"id": 3, "room": "b", "temp": 9}, 3)])
        reference, query = both(
            "SELECT room, COUNT(temp) AS c, MIN(temp) AS lo FROM Obs "
            "[Range 3] GROUP BY room", stream)
        assert query.as_relation() == reference
        relation = query.as_relation()
        assert rows_at(relation, 3) == [("a", 1, 5), ("b", 1, 9)]
        assert rows_at(relation, 4) == [("b", 1, 9)]
        assert rows_at(relation, 6) == []
        # The emptied groups left no accumulators behind.
        (aggregate,) = [op for label, op in query.operators()
                        if label.endswith("AggregateOp")]
        assert aggregate.state_size == 0

    def test_the_global_group_keeps_its_zero_row(self):
        stream = Stream.of_records(OBS, [
            ({"id": 1, "room": "a", "temp": None}, 2)])
        reference, query = both(
            "SELECT COUNT(*) AS n, COUNT(temp) AS c, SUM(temp) AS s, "
            "MAX(temp) AS hi FROM Obs [Range 2]", stream)
        assert query.as_relation() == reference
        assert rows_at(query.as_relation(), 2) == [(1, 0, None, None)]
        assert rows_at(query.as_relation(), 4) == [(0, 0, None, None)]

    def test_the_zero_row_appears_when_every_arrival_is_filtered(self):
        stream = Stream.of_records(OBS, [
            ({"id": 1, "room": "a", "temp": 5}, 3)])
        reference, query = both(
            "SELECT COUNT(*) AS n FROM Obs [Range 2] WHERE temp > 100",
            stream)
        assert query.as_relation() == reference
        assert rows_at(query.as_relation(), 3) == [(0,)]

    def test_a_group_whose_row_is_unchanged_emits_nothing(self):
        query = engine().register_query(
            "SELECT room, MAX(temp) AS hi FROM Obs [Range 9] GROUP BY room")
        query.start()
        (aggregate,) = [op for label, op in query.operators()
                        if label.endswith("AggregateOp")]
        query.push("Obs", {"id": 1, "room": "a", "temp": 30}, 1)
        emitted = aggregate.emitted
        query.push("Obs", {"id": 2, "room": "a", "temp": 10}, 2)
        assert aggregate.emitted == emitted
        assert rows_at(query.as_relation(), 2) == [("a", 30)]

    def test_one_shape_serves_operators_with_their_own_bindings(self):
        stream = obs_stream(7)
        cql = engine()
        narrow = cql.register_query(
            "SELECT room, SUM(temp + id) AS s FROM Obs [Range 2] "
            "GROUP BY room")
        wide = cql.register_query(
            "SELECT room, SUM(temp - id) AS s FROM Obs [Range 9] "
            "GROUP BY room")
        for query in (narrow, wide):
            query.run_recorded({"Obs": stream})
        for query in (narrow, wide):
            reference = reference_evaluate(query.plan, cql.catalog,
                                           {"Obs": stream})
            assert query.as_relation() == reference


class TestRunningAggregates:
    """Streaming SQL's ``EMIT CHANGES`` aggregates: dynamic tables whose
    plan is a running :class:`WindowAggregate`."""

    SELECT = ("SELECT {keys}COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, "
              "AVG(v) AS a, MIN(v) AS lo, MAX(v * 2) AS hi FROM t{group}")

    @pytest.mark.parametrize("grouped", [True, False])
    def test_every_refresh_matches_reference(self, grouped):
        keys, group = ("k, ", " GROUP BY k") if grouped else ("", "")
        select = self.SELECT.format(keys=keys, group=group)
        service = DynamicTableService()
        service.create_table("t", Schema(["k", "v"]))
        view = service.execute(f"CREATE DYNAMIC TABLE g TARGET_LAG = 0 AS "
                               f"{select} EMIT CHANGES")
        assert any(isinstance(node, WindowAggregate)
                   for node in walk(view.plan))
        rng = random.Random(11)
        live = []
        for version in range(1, 40):
            inserts = [{"k": rng.randrange(3),
                        "v": rng.choice([None, -2, 0, 3, 8])}
                       for _ in range(rng.randrange(4))]
            deletes = rng.sample(live, min(len(live), rng.randrange(3)))
            for row in deletes:
                live.remove(row)
            live.extend(inserts)
            service.apply("t", inserts=inserts, deletes=deletes, at=version)
            service.tick(version)
            cql = CQLEngine()
            cql.register_relation("t", Schema(["k", "v"]), rows=live)
            reference = reference_evaluate(cql.plan(select), cql.catalog, {})
            assert value_items(service.read("g")) == \
                value_items(reference.at(version))


SCHEMA = Schema(["g", "v"])


def row(g, v):
    return Record.from_mapping(SCHEMA, {"g": g, "v": v})


def table_view(*aggregates):
    """A view grouping table ``t`` by ``g``, primed at version 0."""
    scan = make_scan("t", "s", SCHEMA)
    catalog = Catalog()
    catalog.register_relation("t", SCHEMA)
    view = DynamicTable("v", Aggregate(scan, ("s.g",), ("g",), aggregates),
                        0, catalog)
    view.evaluate(0, {})
    return view


COUNT_ROWS = AggregateExpr(AggregateKind.COUNT, None, "n")
SUM_V = AggregateExpr(AggregateKind.SUM, Column("s.v"), "total")
MIN_V = AggregateExpr(AggregateKind.MIN, Column("s.v"), "lo")


class TestKeySpelling:
    """A one-column group or join key is the column's bare value — the
    key :func:`~repro.runtime.partitioning.key_router` reads at the same
    position — several columns make a tuple, and the global group is
    ``()``."""

    def keys(self, text):
        query = engine().register_query(text)
        arrivals = {"Obs": [{"id": 1, "room": "a", "temp": 20}]}
        if "Badge" in text:
            arrivals["Badge"] = [{"id": 1, "door": 0}]
        query.push_batch(1, arrivals)
        return {attr: set(getattr(op, attr).data)
                for _, op in query.operators()
                for attr in ("_groups", "_state0", "_state1")
                if hasattr(op, attr)}

    @pytest.mark.parametrize("text, keys", [
        ("SELECT room, COUNT(*) AS n FROM Obs [Range 5] GROUP BY room",
         {"_groups": {"a"}}),
        ("SELECT room, id, COUNT(*) AS n FROM Obs [Range 5] "
         "GROUP BY room, id", {"_groups": {("a", 1)}}),
        ("SELECT COUNT(*) AS n FROM Obs [Range 5]", {"_groups": {()}}),
        ("SELECT O.room, B.door FROM Obs O [Range 5], Badge B [Range 5] "
         "WHERE O.id = B.id", {"_state0": {1}, "_state1": {1}}),
        ("SELECT O.room FROM Obs O [Range 5], Badge B [Range 5] "
         "WHERE O.id = B.id AND O.temp = B.door",
         {"_state0": {(1, 20)}, "_state1": {(1, 0)}}),
    ], ids=["one-column-group", "two-column-group", "global-group",
            "one-column-join", "two-column-join"])
    def test_keys(self, text, keys):
        assert self.keys(text) == keys

    def test_a_bare_key_is_what_key_router_places(self):
        from repro.runtime.partitioning import key_router, partition_of
        for room in ["a", "kitchen", None, 7]:
            values = (1, room, 20)
            assert key_router([1], 5)(values) == partition_of(room, 5)


class TestRefusals:
    """The three over-retraction messages, word for word, and the kernel
    line a traceback shows for them."""

    def refusal(self, view, deltas):
        with pytest.raises(StateError) as caught:
            view.evaluate(1, {"t": deltas})
        return caught.value

    def test_group_rows(self):
        error = self.refusal(table_view(COUNT_ROWS), [(row(0, 1), -1)])
        assert str(error) == \
            "aggregate group (0,) retracts rows it does not hold"

    def test_non_null_count(self):
        view = table_view(COUNT_ROWS, SUM_V)
        view.evaluate(1, {"t": [(row(0, None), 1)]})
        with pytest.raises(StateError) as caught:
            view.evaluate(2, {"t": [(row(0, None), 1), (row(0, 5), -1)]})
        assert str(caught.value) == ("aggregate group (0,) retracts more "
                                     "non-NULL values than it holds")

    def test_min_max_value(self):
        view = table_view(COUNT_ROWS, MIN_V)
        view.evaluate(1, {"t": [(row(0, 1), 1)]})
        with pytest.raises(StateError) as caught:
            view.evaluate(2, {"t": [(row(0, 1), 1), (row(0, 5), -1)]})
        assert str(caught.value) == \
            "aggregate retracts value 5, which it does not hold"

    @pytest.mark.parametrize("aggregates, deltas, line", [
        ((COUNT_ROWS,), [(row(0, 1), -1)], "raise StateError("),
        ((MIN_V,), [(row(0, 5), 1), (row(0, 1), -1)],
         "accumulator.add(value, mult)"),
    ])
    def test_a_traceback_shows_the_generated_line(self, aggregates, deltas,
                                                  line):
        error = self.refusal(table_view(*aggregates), deltas)
        frames = [frame for frame in traceback.extract_tb(
            error.__traceback__)
            if frame.filename.startswith("<aggregate ")]
        assert len(frames) == 1
        assert frames[0].line == line
        assert linecache.getline(frames[0].filename,
                                 frames[0].lineno).strip() == line
        assert line in "".join(traceback.format_exception(error))


class TestARefusedInstantIsUndone:
    """An aggregate instant is all or nothing: a refused one — by a
    group's check after the fold, or by a MIN/MAX add mid-fold — leaves
    the accumulators, the groups and the answer as they were."""

    @pytest.mark.parametrize("aggregate, refused, answer", [
        (SUM_V, [(row("a", 5), 1), (row("c", 7), -1)], ("a", 2, 2)),
        (MIN_V, [(row("a", 0), 1), (row("c", 7), -1)], ("a", 2, 1)),
        (MIN_V, [(row("a", 0), 1), (row("a", 9), -1)], ("a", 2, 1)),
        (MIN_V, [(row("c", 0), 1), (row("a", 1), -1), (row("a", 9), -1)],
         ("a", 2, 1)),
    ], ids=["sum-check", "min-new-group", "min-same-group", "min-mid-delta"])
    def test_a_later_instant_reads_as_if_it_never_ran(self, aggregate,
                                                       refused, answer):
        view = table_view(COUNT_ROWS, aggregate)
        view.evaluate(1, {"t": [(row("a", 1), 1), (row("b", 2), 1)]})
        (op,) = [op for _, op in view.operators()
                 if type(op).__name__ == "AggregateOp"]
        groups = {key: (group.rows, list(group.counts), list(group.sums))
                  for key, group in op._groups.data.items()}
        with pytest.raises(StateError):
            view.evaluate(2, {"t": refused})
        assert {key: (group.rows, list(group.counts), list(group.sums))
                for key, group in op._groups.data.items()} == groups
        view.evaluate(3, {"t": [(row("a", 1), 1)]})
        assert sorted(op._current_rows.data.values()) == [answer, ("b", 1, 2)]


class TestPrefilterKernel:
    TEMP_HOT = Binary(BinOp.GT, Column("temp"), Literal(10))
    ROOM_A = Binary(BinOp.EQ, Column("room"), Literal("a"))
    SUM_BIG = Binary(BinOp.GT, Binary(BinOp.ADD, Column("temp"),
                                      Column("id")), Literal(12))
    REVERSED = Binary(BinOp.LT, Literal(10), Column("temp"))

    @pytest.mark.parametrize("predicates", [
        [TEMP_HOT],
        [TEMP_HOT, ROOM_A],
        [Binary(BinOp.AND, TEMP_HOT, Binary(BinOp.NE, Column("room"),
                                             Literal("b")))],
        [SUM_BIG],
        [REVERSED, Binary(BinOp.AND, SUM_BIG, ROOM_A)],
        [Binary(BinOp.OR, TEMP_HOT, ROOM_A)],
    ], ids=["one", "several", "and", "non-simple", "mixed", "or"])
    def test_keeps_what_compile_predicate_keeps(self, predicates):
        records = [row for row, _ in obs_stream(9, 200)]
        compiled = [compile_predicate(p, OBS) for p in predicates]
        want = [r for r in records if all(p(r) for p in compiled)]
        assert any(r["temp"] is None or r["room"] is None for r in records)
        assert kernels.prefilter_kernel(predicates, OBS).bind()(records) == want

    @pytest.mark.parametrize("where", [
        "temp > 10",
        "temp > 10 AND room <> 'b' AND id <= 4",
        "room = 'a'",
        "temp >= 0",
        "temp + id > 12",
        "10 < temp AND temp + id < 40",
        "temp > 30 OR room = 'a'",
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_pushed_below_the_window_matches_reference(self, where, seed):
        text = (f"SELECT room, COUNT(*) AS n, SUM(temp) AS s FROM Obs "
                f"[Range 3] WHERE {where} GROUP BY room")
        reference, query = both(text, obs_stream(seed))
        (source,) = query._stream_sources["Obs"]
        assert source._prefilter is not None
        assert query.as_relation() == reference


def evaluated(plan, seed):
    """(reference relation, executed query) for a relation plan, built
    here rather than by the planner, over the streams it reads."""
    streams = {"Obs": obs_stream(seed), "Badge": badge_stream(seed)}
    streams = {node.name: streams[node.name] for node in walk(plan)
               if isinstance(node, StreamScan)}
    cql = engine()
    reference = reference_evaluate(plan, cql.catalog, streams)
    query = ContinuousQuery(plan, cql.catalog)
    query.run_recorded(streams)
    return reference, query


def labels(query):
    return [label for label, _ in query.operators()]


def kernel_names(op):
    """The pseudo-filenames of the kernels ``op`` runs."""
    kernels_of = ([op._kernel] if isinstance(op, SpineOp)
                  else list(op._probes))
    return [kernel.__code__.co_filename for kernel in kernels_of]


class TestSpineKernel:
    """A maximal Filter/Project chain runs as one generated comprehension:
    one SpineOp, or no operator for a positional identity."""

    @pytest.mark.parametrize("text, name", [
        ("SELECT id, temp FROM Obs [Range 3]", "<spine emit ([0], [2])>"),
        ("SELECT id FROM Obs [Rows 5] WHERE temp > 10",
         "<spine where [2] > c0 emit ([0])>"),
        ("SELECT temp * 2 + 1 AS scaled, id FROM Obs [Rows 4]",
         "<spine emit (e0, [0])>"),
        ("SELECT id, 7 AS seven FROM Obs [Range 2]",
         "<spine emit ([0], c0)>"),
        ("SELECT id FROM Obs [Rows 6] WHERE ABS(temp - 20) < 15 "
         "AND room = 'a'", "<spine where p0 and [1] == c1 emit ([0])>"),
        ("SELECT id, room FROM Obs [Rows 4] WHERE temp + id > 12 OR "
         "room = 'b'", "<spine where p0 emit ([0], [1])>"),
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference(self, text, name, seed):
        reference, query = both(text, obs_stream(seed))
        assert query.as_relation() == reference
        (spine,) = [op for _, op in query.operators()
                    if isinstance(op, SpineOp)]
        assert kernel_names(spine) == [name]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_filter_above_a_project_composes_into_one_spine(self, seed):
        (window,) = [node for node in walk(engine().plan(
            "SELECT * FROM Obs [Rows 5]")) if isinstance(node, WindowOp)]
        inner = Project(window, (
            Column("temp"), Binary(BinOp.ADD, Column("temp"), Column("id")),
            Column("room")), ("t", "s", "r"))
        kept = Filter(inner, Binary(
            BinOp.AND, Binary(BinOp.GT, Column("s"), Literal(5)),
            Binary(BinOp.NE, Column("r"), Literal("b"))))
        plan = Project(Filter(kept, Binary(BinOp.LE, Column("t"),
                                           Literal(30))),
                       (Column("s"), Column("t")), ("s", "t"))
        reference, query = evaluated(plan, seed)
        assert query.as_relation() == reference
        assert labels(query) == ["SpineOp", "StreamSourceOp"]
        (spine, _source) = [op for _, op in query.operators()]
        # Each filter's columns are the projection's outputs, substituted,
        # lowest filter first: ``s > 5`` calls the closure of ``temp +
        # id``, ``r <> 'b'`` and ``t <= 30`` test the input in place.
        assert kernel_names(spine) == [
            "<spine where p0 and [1] != c1 and [2] <= c2 emit (e3, [2])>"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_positional_identity_compiles_to_no_operator(self, seed):
        reference, query = both(
            "SELECT id AS i, room AS r, temp AS t FROM Obs [Rows 3]",
            obs_stream(seed))
        assert labels(query) == ["StreamSourceOp"]
        assert query.as_relation() == reference
        assert query.output_schema.fields == ("i", "r", "t")


class TestJoinKernel:
    """Each join side runs a generated probe-and-fold loop; a chain on the
    join is compiled into it, so the join emits the chain's rows."""

    @pytest.mark.parametrize("text, kind, names", [
        # Counted (windowed inputs retract), NULL keys on both sides.
        ("SELECT O.room, B.door FROM Obs O [Range 3], Badge B [Range 4] "
         "WHERE O.id = B.id", JoinOp,
         ["<join left on (l0) emit (l1, r1)>",
          "<join right on (r0) emit (l1, r1)>"]),
        # Monotone inputs: insert-only deltas through the same counts.
        ("SELECT O.temp + B.door AS s, O.room FROM Obs O "
         "[Range Unbounded], Badge B [Range Unbounded] WHERE O.id = B.id",
         JoinOp,
         ["<join left on (l0) emit (e0, l1)>",
          "<join right on (r0) emit (e0, l1)>"]),
        # A residual the planner keeps on the join.
        ("SELECT O.room, B.door FROM Obs O [Range 3], Badge B [Range 4] "
         "WHERE O.id = B.id AND O.temp > B.door", JoinOp,
         ["<join left on (l0) where p0 emit (l1, r1)>",
          "<join right on (r0) where p0 emit (l1, r1)>"]),
        # Two key columns.
        ("SELECT O.room, B.door FROM Obs O [Range 5], Badge B [Range 5] "
         "WHERE O.id = B.id AND O.temp = B.door", JoinOp,
         ["<join left on (l0, l2) emit (l1, r1)>",
          "<join right on (r0, r1) emit (l1, r1)>"]),
        # A theta join: no key, the residual decides.
        ("SELECT O.id, B.id FROM Obs O [Rows 3], Badge B [Rows 2] "
         "WHERE O.temp > B.door", JoinOp,
         ["<join left on () where p0 emit (l0, r0)>",
          "<join right on () where p0 emit (l0, r0)>"]),
        # No chain: the joined row is the concatenation.
        ("SELECT * FROM Obs O [Range 3], Badge B [Range 2] "
         "WHERE O.id = B.id", JoinOp,
         ["<join left on (l0)>", "<join right on (r0)>"]),
    ])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, text, kind, names, seed):
        streams = {"Obs": obs_stream(seed), "Badge": badge_stream(seed)}
        cql = engine()
        query = cql.register_query(text)
        query.run_recorded(streams)
        assert query.as_relation() == reference_evaluate(
            query.plan, cql.catalog, streams)
        # The chain runs inside the join: no operator of its own.
        join, *sources = [op for _, op in query.operators()]
        assert type(join) is kind
        assert labels(query)[1:] == ["StreamSourceOp"] * 2
        assert kernel_names(join) == names

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_filtered_computed_chain_on_a_join(self, seed):
        (join,) = [node for node in walk(engine().plan(
            "SELECT * FROM Obs O [Range 3], Badge B [Range 4] "
            "WHERE O.id = B.id")) if isinstance(node, Join)]
        inner = Project(join, (
            Column("O.temp"),
            Binary(BinOp.ADD, Column("O.temp"), Column("B.door")),
            Column("O.room")), ("t", "s", "r"))
        kept = Filter(inner, Binary(
            BinOp.AND, Binary(BinOp.GE, Column("t"), Literal(5)),
            Binary(BinOp.GT, Column("s"), Literal(8))))
        plan = Project(kept, (Column("r"), Column("s"), Literal(1)),
                       ("r", "s", "one"))
        reference, query = evaluated(plan, seed)
        assert query.as_relation() == reference
        op = query.operators()[0][1]
        assert type(op) is JoinOp
        assert kernel_names(op) == [
            f"<join {side} on ({side[0]}0) where l2 >= c0 and p1 "
            f"emit (l1, e2, c3)>" for side in ("left", "right")]

    def test_a_null_key_joins_nothing_and_is_not_indexed(self):
        query = engine().register_query(
            "SELECT O.room, B.door FROM Obs O [Range 9], Badge B [Range 9] "
            "WHERE O.id = B.id")
        query.start()
        query.push_batch(1, {"Obs": [{"id": None, "room": "a", "temp": 1}],
                             "Badge": [{"id": None, "door": 2}]})
        join = query.operators()[0][1]
        assert join.state_size == 0
        assert rows_at(query.as_relation(), 1) == []
        query.push_batch(2, {"Badge": [{"id": 3, "door": 0}],
                             "Obs": [{"id": 3, "room": "b", "temp": 4}]})
        assert join.state_size == 2
        assert rows_at(query.as_relation(), 2) == [("b", 0)]


U_SCHEMA = Schema(["g", "w"])


def join_view():
    """A view joining tables ``t`` and ``u`` on ``g``, primed at 0."""
    catalog = Catalog()
    catalog.register_relation("t", SCHEMA)
    catalog.register_relation("u", U_SCHEMA)
    plan = Join(make_scan("t", "s", SCHEMA), make_scan("u", "x", U_SCHEMA),
                left_keys=("s.g",), right_keys=("x.g",))
    view = DynamicTable("j", plan, 0, catalog)
    view.evaluate(0, {})
    return view


class TestJoinRefusals:
    """The join sides' refusals, word for word, at their kernel line."""

    @pytest.mark.parametrize("table, values, side", [
        ("t", (0, 1), "left"), ("u", (0, 5), "right")])
    def test_a_counted_side_refuses_what_it_does_not_hold(self, table,
                                                          values, side):
        with pytest.raises(StateError) as caught:
            join_view().evaluate(1, {table: [(values, -1)]})
        assert str(caught.value) == (
            f"join retracts {values!r}, which its {side} side does not hold")
        frames = [frame for frame in traceback.extract_tb(caught.tb)
                  if frame.filename.startswith("<join ")]
        assert [frame.filename for frame in frames] == [
            f"<join {side} on ({side[0]}0)>"]
        assert frames[0].line == "raise StateError("


TYPED = Schema(["id", "room", "temp"], [int, str, int])


def coerced(coerce, row):
    """What ``coerce`` makes of ``row``: its values, or its refusal."""
    try:
        return "values", coerce(row)
    except Exception as error:
        return type(error), str(error)


class TestCoercerKernel:
    ROWS = {
        "extra keys": {"id": 1, "room": "a", "temp": 3, "x": 9},
        "missing field": {"id": 1, "room": "a"},
        "wrong type": {"id": "one", "room": "a", "temp": 3},
        "None value": {"id": None, "room": "a", "temp": None},
        "same-fields Record": Record(Schema(["id", "room", "temp"]),
                                     (1, "a", 3)),
        "same-fields Record, wrong type": Record(
            Schema(["id", "room", "temp"]), (1, 2, 3)),
        "foreign Record": Record(Schema(["x", "y", "z"]), (1, "a", 3)),
        "read-only mapping": MappingProxyType({"id": 1, "room": "a",
                                               "temp": 3}),
        "not a mapping": [1, "a", 3],
    }

    @pytest.mark.parametrize("schema", [OBS, TYPED],
                             ids=["untyped", "typed"])
    @pytest.mark.parametrize("row", list(ROWS))
    def test_returns_or_refuses_what_schema_coerce_does(self, schema, row):
        row = self.ROWS[row]
        assert coerced(kernels.coercer_kernel(schema), row) \
            == coerced(schema.coerce, row)

    @pytest.mark.parametrize("schema", [OBS, TYPED],
                             ids=["untyped", "typed"])
    def test_takes_the_schemas_own_record_as_it_is(self, schema):
        record = Record(schema, (1, "a", 3))
        coerced = kernels.coercer_kernel(schema)(record)
        assert type(coerced) is tuple and coerced == record.values
        coerced = schema.coerce(record)
        assert type(coerced) is tuple and coerced == record.values

    def test_only_rows_it_does_not_take_reach_schema_coerce(
            self, monkeypatch):
        reached = []
        coerce = Schema.coerce

        def counting(self, row):
            reached.append(row)
            return coerce(self, row)

        monkeypatch.setattr(Schema, "coerce", counting)
        coercer = kernels.coercer_kernel(TYPED)
        coercer({"id": 1, "room": "a", "temp": 3, "x": 9})
        coercer({"id": None, "room": "a", "temp": 3})
        coercer(Record(TYPED, (1, "a", 3)))
        assert reached == []
        foreign = Record(Schema(["id", "room", "temp"]), (1, "a", 3))
        assert coercer(foreign) == (1, "a", 3)
        assert reached == [foreign]

    def test_a_traceback_shows_the_generated_line(self):
        with pytest.raises(SchemaError) as caught:
            kernels.coercer_kernel(TYPED)({"id": 1, "room": 2, "temp": 3})
        assert str(caught.value) == "field 'room' expects str, got int (2)"
        frames = [frame for frame in traceback.extract_tb(caught.tb)
                  if frame.filename.startswith("<coercer ")]
        assert [frame.filename for frame in frames] == [
            "<coercer (id: int, room: str, temp: int)>"]
        assert frames[0].line == "return coerce(row)"
        assert linecache.getline(frames[0].filename,
                                 frames[0].lineno).strip() \
            == "return coerce(row)"


class TestFactoryCache:
    @pytest.fixture
    def compiles(self, monkeypatch):
        """An empty cache, and the list of sources compiled into it."""
        monkeypatch.setattr(kernels, "_factories", OrderedDict())
        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(kernels, "compile", counting, raising=False)
        return compiled

    def test_fifty_queries_over_four_shapes_compile_four_kernels(
            self, compiles):
        shapes = [
            "SELECT room, COUNT(*) AS n FROM Obs [Range {w}] GROUP BY room",
            "SELECT COUNT(*) AS n FROM Obs [Range {w}]",
            "SELECT room, AVG(temp) AS a FROM Obs [Rows {w}] GROUP BY room",
            "SELECT MAX(temp + id) AS hi FROM Obs [Range {w}]",
        ]
        cql = engine()
        queries = [cql.register_query(shapes[i % 4].format(w=1 + i // 4))
                   for i in range(50)]
        assert len(compiles) == 4
        assert sorted(compiles) == [
            "<aggregate COUNT(*)>", "<aggregate MAX(e0)>",
            "<aggregate by [1]: AVG([2])>",
            "<aggregate by [1]: COUNT(*)>"]
        stream = obs_stream(3)
        for query in queries[:8]:
            query.run_recorded({"Obs": stream})
            assert query.as_relation() == reference_evaluate(
                query.plan, cql.catalog, {"Obs": stream})

    def test_query_fleets_pool_compiles_a_fixed_set_of_kernels(
            self, compiles):
        """query_fleet registers and cancels from a pool of 96 texts, every
        template over every window and threshold: the pool compiles one
        factory per shape, well under the cache, and registering it again
        compiles and evicts nothing."""
        templates = (
            "SELECT COUNT(*) AS n {frm}",
            "SELECT DISTINCT room {frm}",
            "SELECT room, COUNT(*) AS n {frm} GROUP BY room",
            "SELECT DISTINCT id {frm}",
            "SELECT id, room {frm}",
            "SELECT MAX(temp) AS hottest {frm}",
            "SELECT id, COUNT(*) AS n {frm} GROUP BY id",
            "SELECT AVG(temp) AS mean {frm}",
        )
        pool = [template.format(
                    frm=f"FROM Obs [Range {window}] WHERE temp > {threshold}")
                for threshold, window, template in itertools.product(
                    (10, 15, 20, 25), (5, 10, 20), templates)]
        assert len(pool) == 96
        fleet = DSMSEngine()
        fleet.register_stream("Obs", OBS)
        for n, text in enumerate(pool):
            fleet.register_query(f"q{n}", text)
        assert sorted(compiles) == [
            "<aggregate AVG([2])>", "<aggregate COUNT(*)>",
            "<aggregate MAX([2])>", "<aggregate by [0]: COUNT(*)>",
            "<aggregate by [1]: COUNT(*)>", "<prefilter [2] > c0>",
            "<spine emit ([0])>", "<spine emit ([0], [1])>",
            "<spine emit ([1])>"]
        assert len(kernels._factories) == len(compiles) < kernels.CACHE_SIZE
        for n, text in enumerate(pool):
            fleet.cancel_query(f"q{n}")
            fleet.register_query(f"again{n}", text)
        assert len(compiles) == len(kernels._factories) == 9

    def test_filling_the_cache_evicts_the_least_recent(self, monkeypatch,
                                                       compiles):
        monkeypatch.setattr(kernels, "CACHE_SIZE", 3)
        shapes = [[Binary(BinOp.GT, Column(name), Literal(0))]
                  for name in ("id", "room", "temp")]
        shapes += [[Binary(BinOp.LT, Column(name), Literal(0))]
                   for name in ("id", "room")]
        for predicates in shapes:
            kernels.prefilter_kernel(predicates, OBS)
        assert len(compiles) == 5 and len(kernels._factories) == 3
        gone, kept = compiles[:2], compiles[2:]
        assert all(name not in linecache.cache for name in gone)
        assert all(name in linecache.cache for name in kept)
        kernels.prefilter_kernel(shapes[4], OBS)     # cached
        assert len(compiles) == 5
        kernels.prefilter_kernel(shapes[0], OBS)     # evicted: again
        assert len(compiles) == 6 and len(kernels._factories) == 3

    def test_the_coercer_compiles_once_per_layout(self, compiles):
        def fleet(schema):
            engine = DSMSEngine()
            engine.register_stream("Obs", schema)
            for tick in range(10):
                # Every register and cancel closes the stream's door; the
                # next arrival builds it again from the cached door
                # kernel, which coerces inline.
                engine.register_query(f"q{tick}", "SELECT id FROM Obs [Now]")
                if tick:
                    engine.cancel_query(f"q{tick - 1}")
                assert engine.ingest(
                    "Obs", {"id": tick, "room": "a", "temp": 3}, tick) == 1
                engine.run_until_idle()
            # A bare query's push_batch coerces with the coercer.
            cql = CQLEngine()
            cql.register_stream("Obs", schema)
            query = cql.register_query("SELECT id FROM Obs [Now]")
            for tick in range(3):
                query.push_batch(
                    tick, {"Obs": [{"id": tick, "room": "a", "temp": 3}]})

        for _ in range(5):
            fleet(OBS)
            fleet(TYPED)
        # The projection is one spine kernel, the same for both layouts;
        # each layout has one door and one coercer.
        assert compiles == ["<spine emit ([0])>",
                            "<door (id, room, temp)>",
                            "<coercer (id, room, temp)>",
                            "<door (id: int, room: str, temp: int)>",
                            "<coercer (id: int, room: str, temp: int)>"]


def test_only_the_kernel_module_compiles_code():
    """Generated code has one home: no other module under ``repro`` calls
    ``exec``, ``eval`` or ``compile``."""
    root = Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "builtins" else None)
            if name in ("exec", "eval", "compile"):
                callers.add(path.relative_to(root).as_posix())
    assert callers == {"cql/kernels.py"}
