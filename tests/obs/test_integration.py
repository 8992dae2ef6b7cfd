"""End-to-end observability: the instrumented layers feed one registry.

The acceptance flow from the issue: enable observability, run a CQL
standing query through the DSMS engine, and the export must contain
per-operator counters, a latency histogram with percentiles, a
watermark-lag gauge, and a span tree whose root covers the whole run.
"""

import json

import pytest

import repro.obs as obs
from repro.core import Schema
from repro.dsms import DSMSEngine


ROWS = [
    ({"id": 1, "room": "a", "temp": 35}, 0),
    ({"id": 2, "room": "b", "temp": 10}, 1),
    ({"id": 3, "room": "a", "temp": 31}, 2),
    ({"id": 4, "room": "b", "temp": 40}, 5),
]


def run_dsms_query():
    dsms = DSMSEngine()
    dsms.register_stream("Obs", Schema(["id", "room", "temp"]))
    handle = dsms.register_query(
        "hot", "SELECT id FROM Obs [Range 100] WHERE temp > 30")
    for row, t in ROWS:
        dsms.ingest("Obs", row, t)
    dsms.run_until_idle()
    return dsms, handle


class TestDsmsAcceptance:
    def test_operator_counters_are_nonzero(self):
        obs.enable()
        run_dsms_query()
        registry = obs.get_registry()
        rows_in = registry.children("exec.operator.records_in")
        assert rows_in, "no per-operator counters published"
        assert sum(c.value for c in rows_in) > 0
        operators = {c.labels["operator"] for c in rows_in}
        assert "StreamSourceOp" in operators
        assert all(c.labels["query"] == "hot" for c in rows_in)
        assert all(c.labels["layer"] == "cql" for c in rows_in)
        # And the engine's own tuple-flow counters agree with QueryMetrics.
        ingested = registry.get("dsms.query.ingested", query="hot")
        assert ingested.value == len(ROWS)

    def test_latency_histogram_has_percentiles(self):
        obs.enable()
        run_dsms_query()
        hist = obs.get_registry().get("dsms.queue.wait", query="hot")
        assert hist.count == len(ROWS)
        percentiles = hist.percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p99"]

    def test_watermark_lag_gauge(self):
        obs.enable()
        dsms, _ = run_dsms_query()
        assert dsms.watermark("Obs") == 5
        lag = obs.get_registry().get("dsms.watermark.lag", stream="Obs")
        assert lag is not None
        assert lag.count == len(ROWS)
        # Records are queued, so later arrivals advance the watermark past
        # earlier ones before they are serviced: some lag must show up.
        assert lag.max > 0

    def test_span_tree_covers_the_run(self):
        obs.enable()
        run_dsms_query()
        trace = obs.get_tracer().last_trace()
        assert trace.name == "dsms.run_until_idle"
        services = trace.find("dsms.service")
        assert len(services) == len(ROWS)
        assert trace.counts["steps"] == len(ROWS)
        assert sum(s.counts["records"] for s in services) == len(ROWS)
        # The root span brackets every child in time.
        for child in services:
            assert trace.start <= child.start
            assert child.end <= trace.end

    def test_jsonl_export_carries_everything(self, tmp_path):
        obs.enable()
        run_dsms_query()
        path = obs.write_jsonl(tmp_path / "run.jsonl", obs.get_registry(),
                               obs.get_tracer())
        entries = [json.loads(line)
                   for line in path.read_text().splitlines()]
        metrics = [e for e in entries if e["type"] == "metric"]
        traces = [e for e in entries if e["type"] == "trace"]
        names = {e["name"] for e in metrics}
        assert "exec.operator.records_in" in names
        assert "dsms.watermark.lag" in names
        wait = next(e for e in metrics if e["name"] == "dsms.queue.wait")
        assert {"p50", "p95", "p99"} <= set(wait)
        assert traces and traces[0]["tree"]["name"] == "dsms.run_until_idle"

    def test_disabled_run_publishes_nothing(self):
        assert not obs.is_enabled()
        _, handle = run_dsms_query()
        assert len(obs.get_registry()) == 0
        assert obs.get_tracer().traces == []
        # The engine's plain metrics still work with obs off.
        assert handle.metrics.ingested == len(ROWS)

    def test_results_identical_enabled_vs_disabled(self):
        _, plain = run_dsms_query()
        obs.enable()
        _, traced = run_dsms_query()
        assert sorted(r["id"] for r in plain.store_state()) == \
            sorted(r["id"] for r in traced.store_state())


class TestRuntimeJob:
    def build_graph(self):
        from repro.runtime import (
            CollectSinkOperator, HashPartitioner, JobGraph, KeyByOperator,
        )
        graph = JobGraph("wordcount")
        words = ["a", "b", "a", "c"]
        graph.add_source("src", [[(w, None, i)
                                  for i, w in enumerate(words)]])
        graph.add_operator("key", lambda: KeyByOperator(lambda v: v), 1)
        graph.add_operator("sink", CollectSinkOperator, 1)
        graph.connect("src", "key", HashPartitioner)
        graph.connect("key", "sink", HashPartitioner)
        graph.mark_sink("sink")
        return graph

    def test_vertex_metrics_and_job_span(self):
        from repro.runtime import JobRunner
        obs.enable()
        JobRunner(self.build_graph(), chaining=False,
                  checkpoint_interval=2).run()
        registry = obs.get_registry()
        records_in = registry.children("exec.operator.records_in")
        assert records_in and sum(c.value for c in records_in) > 0
        assert all(c.labels["layer"] == "runtime" for c in records_in)
        records_out = registry.children("exec.operator.records_out")
        assert {c.labels["operator"] for c in records_out} >= {"src", "key"}
        durations = registry.get("runtime.checkpoint.duration_seconds")
        assert durations is not None and durations.count > 0
        trace = obs.get_tracer().last_trace()
        assert trace.name == "runtime.job.run"
        assert [c.name for c in trace.children] == ["runtime.job.attempt"]


class TestDataflowPipeline:
    def test_transform_counters_and_trigger_firings(self):
        from repro.dataflow import FixedWindows, Pipeline
        obs.enable()
        p = Pipeline()
        (p.create([("a", 1), ("a", 5), ("b", 12)])
         .map(lambda v: (v, 1))
         .window_into(FixedWindows(10))
         .combine_per_key(sum)
         .collect("out"))
        p.run()
        registry = obs.get_registry()
        elements = registry.children("exec.operator.records_in")
        assert elements and sum(c.value for c in elements) > 0
        assert all(c.labels["layer"] == "dataflow" for c in elements)
        firings = registry.get("dataflow.trigger.firings", timing="ON_TIME")
        assert firings is not None and firings.value >= 2
        trace = obs.get_tracer().last_trace()
        assert trace.name == "dataflow.pipeline.run"
        assert trace.find("dataflow.source")

    def test_disabled_run_counts_nothing(self):
        from repro.dataflow import FixedWindows, Pipeline
        assert not obs.is_enabled()
        p = Pipeline()
        (p.create([("a", 1), ("a", 5), ("b", 12)])
         .map(lambda v: (v, 1))
         .window_into(FixedWindows(10))
         .combine_per_key(sum)
         .collect("out"))
        assert p.run().values("out") == [("a", 2), ("b", 1)]
        registry = obs.get_registry()
        assert registry.children("exec.operator.records_in") == []
        assert registry.children("exec.operator.records_out") == []
        # The DSMS arrival door: an obs-off ingest run publishes no
        # metric and notes no arrival, span or service time.
        dsms, handle = run_dsms_query()
        assert handle.metrics.ingested == len(ROWS)
        assert handle.metrics.processed == len(ROWS)
        assert [metric.name for metric in registry] == []
        assert dsms.stall_detector.tick == 0
        # The door keeps the stream's watermark with obs off; only the
        # lag metrics wait for obs.
        assert dsms.watermark("Obs") == 5
        assert registry.get("dsms.watermark.lag", stream="Obs") is None
        assert handle.busy_seconds == 0.0
        assert obs.get_tracer().last_trace() is None

    def test_gbk_run_is_exact_under_profiling(self):
        from repro.core import BoundedOutOfOrderness
        from repro.dataflow import FixedWindows, Pipeline

        elements = [("a", 1), ("b", 2), ("a", 5), ("c", 7), ("b", 12),
                    ("a", 13), ("d", 14), ("c", 18), ("b", 21), ("a", 22)]

        def run():
            p = Pipeline()
            (p.create(elements, watermark=BoundedOutOfOrderness(2))
             .map(lambda v: (v, 1))
             .window_into(FixedWindows(10))
             .combine_per_key(sum)
             .collect("counts"))
            return [(wv.value, wv.timestamp, wv.windows, wv.pane.timing,
                     wv.pane.index) for wv in p.run()["counts"]]

        expected = run()  # obs off
        obs.enable(profile=True)
        assert run() == expected
        # The pipeline's nodes are source0, pardo1, window2, gbk3, sink4.
        assert obs.get_registry().get(
            "exec.operator.records_in", operator="gbk3",
            layer="dataflow").value == len(elements)
