"""Engines and jobs publish their own growth into the process-wide registry.

The registry outlives any one engine or job runner, so a publisher that
set a counter to its own total (``inc(value - counter.value)``) fought
every other publisher of the same series: a second DSMS engine whose
query reused a name raised on a smaller total, and a second job's
smaller vertex count (or checkpoint count) was dropped.  Each publisher
now keeps marks of what it published, per registry, and adds what grew
since.
"""

import repro.obs as obs
from repro.core import Schema
from repro.dsl import StreamEnvironment
from repro.dsms import DSMSEngine
from repro.runtime import JobRunner


def drive_engine(rows):
    engine = DSMSEngine()
    engine.register_stream("S", Schema(["x"]))
    engine.register_query("a", "SELECT ISTREAM x FROM S [Now]")
    for t in range(rows):
        engine.ingest("S", {"x": t}, t=t)
    engine.run_until_idle()
    return engine


class TestDsmsEngines:
    def test_two_engines_with_one_query_name_add_up(self):
        obs.enable()
        first = drive_engine(5)
        second = drive_engine(2)
        registry = obs.get_registry()
        assert registry.get("dsms.query.ingested", query="a").value == 7
        assert registry.get("dsms.query.emitted", query="a").value == 7
        # Publishing again adds nothing: each engine published its total.
        first.publish_observability()
        second.publish_observability()
        assert registry.get("dsms.query.ingested", query="a").value == 7

    def test_an_engine_publishes_growth_after_its_first_publish(self):
        obs.enable()
        engine = drive_engine(3)
        engine.ingest("S", {"x": 9}, t=9)
        engine.run_until_idle()
        registry = obs.get_registry()
        assert registry.get("dsms.query.ingested", query="a").value == 4
        assert registry.get("dsms.query.processed", query="a").value == 4

    def test_a_fresh_registry_gets_the_totals(self):
        obs.enable()
        engine = drive_engine(3)
        obs.reset()
        engine.publish_observability()
        assert obs.get_registry().get(
            "dsms.query.ingested", query="a").value == 3

    def test_a_fresh_registry_gets_the_operator_totals(self):
        # A query keeps its operator marks per registry too, so a reset
        # registry gets the operators' totals, not only their growth.
        obs.enable()
        engine = drive_engine(3)
        obs.reset()
        engine.publish_observability()
        registry = obs.get_registry()
        query = engine.query("a").query
        for field, attr in (("records_in", "received"),
                            ("records_out", "emitted")):
            published = sum(counter.value for counter
                            in registry.children(f"exec.operator.{field}"))
            assert published == sum(getattr(op, attr)
                                    for _, op in query.operators())
        # Three insertions and the two expiries of the [Now] window.
        assert query.deltas_processed == 5
        assert registry.get("exec.query.deltas", query="a",
                            layer="cql").value == 5
        assert registry.get("exec.operator.records_out", query="a",
                            layer="cql", operator="StreamSourceOp",
                            index="0").value == 5


def run_job(n, checkpoint_interval=None):
    """A DSL job over ``n`` elements, run as ``execute`` runs it; returns
    its checkpoint coordinator."""
    env = StreamEnvironment()
    env.from_collection([(i, i) for i in range(n)]).sink("out")
    runner = JobRunner(env.graph, chaining=env.chaining,
                       checkpoint_interval=checkpoint_interval)
    runner.run()
    return runner.coordinator


class TestJobRunners:
    def test_two_jobs_add_up(self):
        obs.enable()
        run_job(5)
        run_job(3)
        counter = obs.get_registry().get(
            "exec.operator.records_out", layer="runtime",
            operator="source-0")
        assert counter.value == 8

    def test_checkpoint_durations_of_two_jobs_add_up(self):
        obs.enable()
        first = run_job(8, checkpoint_interval=2)
        second = run_job(4, checkpoint_interval=2)
        assert len(first.durations) > len(second.durations) > 0
        durations = obs.get_registry().get(
            "runtime.checkpoint.duration_seconds")
        assert durations.count == (len(first.durations)
                                   + len(second.durations))
