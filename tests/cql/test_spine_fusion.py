"""The stateless spine compiles fused: checked by structure, never by a
clock.

A maximal Filter/Project chain compiles to one ``SpineOp``, into the join
below it when that join can take it (it then emits the chain's rows), or
to no operator at all when it keeps every row as it is.  These tests
compile the four cqbench query shapes and the ``tests/cql`` differential
corpus and read the compiled trees: no two adjacent stateless operators,
no operator of its own for an identity projection, and every IR node
mapped to the operator that runs it — which is what ``explain_analyze``
annotates.
"""

import pytest

from repro.core import Schema
from repro.cql import CQLEngine
from repro.cql.catalog import Catalog
from repro.cql.executor import (
    Agenda,
    JoinOp,
    PartitionUnionOp,
    SpineOp,
    compile_plan,
    operators_of,
)
from repro.dsms import DSMSEngine
from repro.obs import explain_analyze
from repro.plan.exprs import Column
from repro.plan.ir import Join, Project, RelToStream, walk
from repro.views import DynamicTableService, make_scan
from tests.cql.test_differential import QUERIES, R2S_QUERIES, build_engine

OBS = Schema(["id", "room", "temp"])
BADGE = Schema(["id", "door"])
PERSON = Schema(["id", "name"])
ORDERS = Schema(["oid", "cust", "amount"])
CUSTOMERS = Schema(["id", "region"])

#: cqbench's stream queries: agg_firehose's, query_fleet's eight
#: templates (at one window and threshold), join_recover's.
FIREHOSE = ("SELECT room, COUNT(*) AS n, AVG(temp) AS mean FROM Obs "
            "[Range 20] WHERE temp > 10 GROUP BY room")
FLEET = [template.format(frm="FROM Obs [Range 10] WHERE temp > 15")
         for template in (
             "SELECT COUNT(*) AS n {frm}",
             "SELECT DISTINCT room {frm}",
             "SELECT room, COUNT(*) AS n {frm} GROUP BY room",
             "SELECT DISTINCT id {frm}",
             "SELECT id, room {frm}",
             "SELECT MAX(temp) AS hottest {frm}",
             "SELECT id, COUNT(*) AS n {frm} GROUP BY id",
             "SELECT AVG(temp) AS mean {frm}")]
JOIN_RECOVER = ("SELECT O.room, B.door, P.name "
                "FROM Obs O [Range 10], Badge B [Range 10], Person P "
                "WHERE O.id = B.id AND B.id = P.id")

#: view_cascade's streaming-SQL views, in dependency order.
VIEWS = {
    "big_orders": "SELECT oid, cust, amount FROM orders WHERE amount > 20 "
                  "EMIT CHANGES",
    "by_cust": "SELECT cust, SUM(amount) AS total, COUNT(*) AS n "
               "FROM big_orders GROUP BY cust EMIT CHANGES",
    "vip": "SELECT cust FROM by_cust WHERE total > 300 EMIT CHANGES",
    "n_vip": "SELECT COUNT(*) AS n FROM vip EMIT CHANGES",
}


def cqbench_engine():
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    engine.register_stream("Badge", BADGE)
    engine.register_relation("Person", PERSON,
                             rows=[{"id": i, "name": f"p{i}"}
                                   for i in range(5)])
    return engine


def stream_plans():
    """(label, plan, catalog) for every stream query of the corpus."""
    cqbench, corpus = cqbench_engine(), build_engine()
    out = [(text, cqbench.plan(text), cqbench.catalog)
           for text in [FIREHOSE, *FLEET, JOIN_RECOVER]]
    out += [(text, corpus.plan(text), corpus.catalog)
            for text in QUERIES + R2S_QUERIES]
    return out


def view_plans():
    """(label, plan, catalog) for view_cascade's six views."""
    service = DynamicTableService()
    service.create_table("orders", ORDERS)
    service.create_table("customers", CUSTOMERS)
    catalog = Catalog()
    catalog.register_relation("orders", ORDERS)
    catalog.register_relation("customers", CUSTOMERS)
    out = []
    for name, select in VIEWS.items():
        view = service.execute(f"CREATE DYNAMIC TABLE {name} "
                               f"TARGET_LAG = 0 AS {select}")
        out.append((name, view.plan, catalog))
        catalog.register_relation(name, view.schema)
    big_orders = catalog.relation("big_orders").schema
    enriched = Project(
        Join(make_scan("big_orders", "o", big_orders),
             make_scan("customers", "c", CUSTOMERS),
             left_keys=("o.cust",), right_keys=("c.id",)),
        (Column("o.oid"), Column("o.amount"), Column("c.region")),
        ("oid", "amount", "region"))
    out.append(("enriched", enriched, catalog))
    return out


PLANS = stream_plans() + view_plans()


def compiled(plan, catalog, parallelism=1):
    """(root, node map) of ``plan`` compiled at ``parallelism``."""
    root, _, _, node_map, _ = compile_plan(plan, catalog, Agenda(),
                                           parallelism=parallelism)
    return root, node_map


def stateless(op):
    return not op._STATE_ATTRS


def positional_identity(node):
    child = node.child.schema
    return len(node.exprs) == len(child.fields) and all(
        isinstance(expr, Column) and child.index_of(expr.name) == index
        for index, expr in enumerate(node.exprs))


@pytest.mark.parametrize("label, plan, catalog", PLANS,
                         ids=[label for label, _, _ in PLANS])
class TestCompiledTrees:
    def test_no_two_adjacent_stateless_operators(self, label, plan,
                                                 catalog):
        root, _ = compiled(plan, catalog)
        for _, op in operators_of(root):
            if stateless(op):
                assert not any(stateless(child) for child in op.children), \
                    [name for name, _ in operators_of(root)]

    def test_an_identity_projection_has_no_operator(self, label, plan,
                                                    catalog):
        _, node_map = compiled(plan, catalog)
        for node in walk(plan):
            if isinstance(node, Project) and positional_identity(node):
                assert node_map[id(node)] == node_map[id(node.child)]

    def test_every_node_maps_to_the_operator_that_runs_it(self, label, plan,
                                                          catalog):
        root, node_map = compiled(plan, catalog)
        running = {id(op) for _, op in operators_of(root)}
        for node in walk(plan):
            if node is plan and isinstance(node, RelToStream):
                continue        # the driver's fold, not an operator
            assert node_map[id(node)]
            assert all(id(op) in running for op in node_map[id(node)])


def test_view_cascades_identity_projection_is_a_filter_only_spine():
    (big_orders, catalog), = [(plan, catalog)
                              for label, plan, catalog in view_plans()
                              if label == "big_orders"]
    root, _ = compiled(big_orders, catalog)
    assert [name for name, _ in operators_of(root)] == [
        "SpineOp", "RelationSourceOp"]
    assert root._kernel.__code__.co_filename == "<spine where [2] > c0>"


def test_join_recovers_joins_and_projection_run_in_one_join():
    """join_recover's plan is Project(Join(Join(Obs, Badge), Person)), all
    on one key: four operators, one JoinOp of three inputs, which emits
    the projection and holds no Obs ⋈ Badge tuple, so the join its
    crashes are armed on is the query's only join."""
    engine = cqbench_engine()
    plan = engine.plan(JOIN_RECOVER)
    root, node_map = compiled(plan, engine.catalog)
    assert [name for name, _ in operators_of(root)] == [
        "JoinOp", "StreamSourceOp", "StreamSourceOp", "RelationSourceOp"]
    upper = plan.child
    lower = upper.left
    assert node_map[id(plan)] == node_map[id(upper)] \
        == node_map[id(lower)] == [root]
    assert root.inputs == (lower.left, lower.right, upper.right)
    # O.room, B.door and P.name, read in place from the three rows.
    assert [probe.__code__.co_filename for probe in root._probes] == [
        f"<join {letter} of 3 on ({letter}0) emit (a1, b1, c1)>"
        for letter in "abc"]


class TestNoFusionAcrossABoundary:
    def test_a_fissioned_joins_chain_is_a_spine_over_the_union(self):
        engine = build_engine()
        plan = engine.plan(QUERIES[15])        # Obs ⋈ Alerts, projected
        root, node_map = compiled(plan, engine.catalog, parallelism=2)
        assert type(root) is SpineOp
        assert type(root.children[0]) is PartitionUnionOp
        assert node_map[id(plan)] == [root]
        assert all(type(op) is JoinOp for op in node_map[id(plan.child)])

    def test_a_join_a_sharing_group_may_share_keeps_its_plain_rows(self):
        engine = DSMSEngine(sharing=True)
        engine.register_stream("Obs", OBS)
        engine.register_stream("Badge", BADGE)
        texts = ["SELECT O.room, B.door FROM Obs O [Range 5], "
                 "Badge B [Range 5] WHERE O.id = B.id",
                 "SELECT O.temp FROM Obs O [Range 5], Badge B [Range 5] "
                 "WHERE O.id = B.id"]
        handles = [engine.register_query(f"q{n}", text)
                   for n, text in enumerate(texts)]
        (first, second) = [handle.query.operators() for handle in handles]
        assert [name for name, _ in first][:2] == ["SpineOp", "JoinOp"]
        # The second member's join is the first's: one index, shared.
        assert first[1][1] is second[1][1]
        assert handles[0].query.group.shared_hits >= 1

    def test_a_join_a_sharing_group_may_share_takes_no_join_above_it(self):
        """A memo-shared lower join keeps its plain rows for its other
        readers, so the join over it on the same key is a join of two
        inputs, one of them the shared join."""
        engine = DSMSEngine(sharing=True)
        engine.register_stream("Obs", OBS)
        engine.register_stream("Badge", BADGE)
        engine.register_relation("Person", PERSON,
                                 [{"id": i, "name": f"p{i}"}
                                  for i in range(5)])
        pair = engine.register_query(
            "pair", "SELECT * FROM Obs O [Range 10], Badge B [Range 10] "
                    "WHERE O.id = B.id")
        chain = engine.register_query("chain", JOIN_RECOVER)
        (shared,) = [op for name, op in pair.query.operators()
                     if name == "JoinOp"]
        joins = [op for name, op in chain.query.operators()
                 if name == "JoinOp"]
        assert len(joins) == 2
        assert [len(op.children) for op in joins] == [2, 2]
        assert joins[1] is shared
        assert joins[0].children[0] is shared

    def test_a_shape_compiled_shared_and_fissioned_binds_its_own_probes(
            self):
        """One engine's kernel table serves a shape compiled through its
        sharing memo (two joins) and fissioned without it (one join of
        three inputs per partition): each join gets one probe per input,
        and both answer as an isolated engine does."""
        text = ("SELECT A.id, O.room, A.level, B.level FROM Obs O [Range 5], "
                "Alerts A [Range 5], Alerts B [Range 5] "
                "WHERE O.id = A.id AND A.id = B.id")

        def engine(**options):
            engine = DSMSEngine(**options)
            engine.register_stream("Obs", OBS)
            engine.register_stream("Alerts", Schema(["id", "level"]))
            return engine

        shared, alone = engine(sharing=True), engine()
        handles = [shared.register_query("chain", text),
                   shared.register_query("wide", text, parallelism=2),
                   alone.register_query("alone", text)]
        joins = [op for handle in handles
                 for name, op in handle.query.operators() if name == "JoinOp"]
        assert [len(op.children) for op in joins] == [2, 2, 3, 3, 3]
        assert all(len(op._probes) == len(op.children) for op in joins)
        for t in range(1, 9):
            for run in (shared, alone):
                run.ingest("Obs", {"id": t % 3, "room": "ab"[t % 2],
                                   "temp": t}, t)
                run.ingest("Alerts", {"id": t % 3, "level": t}, t)
                run.run_until_idle()
        answers = [handle.store_state() for handle in handles]
        assert answers[2].support_size
        assert answers[0] == answers[1] == answers[2]

    def test_a_fissioned_chain_fuses_below_the_boundary_only(self):
        """At width 2 the upper join is the partition boundary: each
        partition runs the whole chain as one JoinOp of three inputs,
        and the projection is a SpineOp over the partitions' union."""
        engine = cqbench_engine()
        plan = engine.plan(JOIN_RECOVER)
        root, node_map = compiled(plan, engine.catalog, parallelism=2)
        assert type(root) is SpineOp
        union = root.children[0]
        assert type(union) is PartitionUnionOp
        assert all(type(op) is JoinOp and len(op.children) == 3
                   for op in union.children)
        upper = plan.child
        assert node_map[id(upper)] == node_map[id(upper.left)] \
            == union.children


@pytest.mark.parametrize("text, parallelism", [
    (JOIN_RECOVER, 1),
    ("SELECT O.id, A.level FROM Obs O [Range 9], Alerts A [Range 5] "
     "WHERE O.id = A.id", 2),
])
def test_explain_analyze_annotates_every_node(text, parallelism):
    engine = build_engine()
    engine.register_stream("Badge", BADGE)
    engine.register_relation("Person", PERSON,
                             rows=[{"id": i, "name": f"p{i}"}
                                   for i in range(5)])
    query = engine.register_query(text, parallelism=parallelism)
    query.start()
    for t in range(1, 8):
        query.push_batch(t, {
            "Obs": [{"id": t % 3, "room": "a", "temp": t}],
            "Alerts" if "Alerts" in text else "Badge":
                [{"id": t % 3, "level": t} if "Alerts" in text
                 else {"id": t % 3, "door": t % 2}]})
    tree = explain_analyze(query).split("signature:")[0].splitlines()
    nodes = [line for line in tree if not line.startswith("fissioned")]
    assert len(nodes) == len(list(walk(query.plan)))
    assert all("rows=" in line for line in nodes), "\n".join(tree)
