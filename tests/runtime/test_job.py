"""Tests for job graphs, chaining, parallel execution and recovery."""

import pytest

from repro.core import PlanError
from repro.exec import OperatorContext
from repro.runtime import (
    BroadcastPartitioner,
    ChainedOperator,
    CollectSinkOperator,
    Element,
    FailOnceOperator,
    FilterOperator,
    ForwardPartitioner,
    HashPartitioner,
    JobGraph,
    JobRunner,
    KeyByOperator,
    MapOperator,
    RebalancePartitioner,
    StreamOperator,
    chain_operators,
)

from tests.exec.test_state import reduce_graph


class CountOperator(StreamOperator):
    """Running count per key — the canonical stateful operator."""

    def open(self, ctx):
        super().open(ctx)
        self.counts = {}

    def process(self, element):
        self.counts[element.key] = self.counts.get(element.key, 0) + 1
        yield Element((element.key, self.counts[element.key]),
                      element.key, element.timestamp)

    def snapshot(self):
        return dict(self.counts)

    def restore(self, state):
        self.counts = dict(state)


def word_source(words, subtasks=2):
    chunks = [[] for _ in range(subtasks)]
    for i, word in enumerate(words):
        chunks[i % subtasks].append((word, None, i))
    return chunks


def wordcount_graph(fuse, fail_at=0, parallelism=2):
    graph = JobGraph("wordcount")
    graph.add_source("src", word_source(
        ["a", "b", "a", "c", "b", "a", "d", "a"], parallelism))
    graph.add_operator("key", lambda: KeyByOperator(lambda v: v),
                       parallelism)
    if fail_at:
        graph.add_operator("chaos", lambda: FailOnceOperator(fail_at, fuse),
                           parallelism)
    graph.add_operator("count", CountOperator, parallelism)
    graph.add_operator("sink", CollectSinkOperator, 1)
    graph.connect("src", "key", ForwardPartitioner)
    if fail_at:
        graph.connect("key", "chaos", ForwardPartitioner)
        graph.connect("chaos", "count", HashPartitioner)
    else:
        graph.connect("key", "count", HashPartitioner)
    graph.connect("count", "sink", HashPartitioner)
    graph.mark_sink("sink")
    return graph


EXPECTED = sorted([("a", 1), ("a", 2), ("a", 3), ("a", 4),
                   ("b", 1), ("b", 2), ("c", 1), ("d", 1)])


class TestBasicExecution:
    def test_wordcount(self):
        result = JobRunner(wordcount_graph([True])).run()
        assert sorted(result.values("sink")) == EXPECTED

    def test_parallelism_one(self):
        result = JobRunner(wordcount_graph([True], parallelism=1)).run()
        assert sorted(result.values("sink")) == EXPECTED

    def test_map_filter_pipeline(self):
        graph = JobGraph()
        graph.add_source("src", [[(i, None, i) for i in range(10)]])
        graph.add_operator("double", lambda: MapOperator(lambda v: v * 2))
        graph.add_operator("big", lambda: FilterOperator(lambda v: v > 8))
        graph.add_operator("sink", CollectSinkOperator)
        graph.connect("src", "double")
        graph.connect("double", "big")
        graph.connect("big", "sink")
        graph.mark_sink("sink")
        result = JobRunner(graph).run()
        assert sorted(result.values("sink")) == [10, 12, 14, 16, 18]

    def test_broadcast_edge(self):
        graph = JobGraph()
        graph.add_source("src", [[(1, None, 0)]])
        graph.add_operator("sink", CollectSinkOperator, parallelism=3)
        graph.connect("src", "sink", BroadcastPartitioner)
        graph.mark_sink("sink")
        result = JobRunner(graph, chaining=False).run()
        assert result.values("sink") == [1, 1, 1]

    def test_rebalance_edge_distributes(self):
        graph = JobGraph()
        graph.add_source("src", [[(i, None, i) for i in range(6)]])
        graph.add_operator("sink", CollectSinkOperator, parallelism=2)
        graph.connect("src", "sink", RebalancePartitioner)
        graph.mark_sink("sink")
        result = JobRunner(graph, chaining=False).run()
        assert sorted(result.values("sink")) == list(range(6))


class TestGraphValidation:
    def test_forward_edge_parallelism_mismatch(self):
        graph = JobGraph()
        graph.add_source("src", [[("x", None, 0)]])
        graph.add_operator("op", lambda: MapOperator(lambda v: v), 2)
        graph.connect("src", "op", ForwardPartitioner)
        with pytest.raises(PlanError, match="parallelism"):
            graph.validate()

    def test_cycle_detected(self):
        graph = JobGraph()
        graph.add_operator("a", lambda: MapOperator(lambda v: v))
        graph.add_operator("b", lambda: MapOperator(lambda v: v))
        graph.connect("a", "b")
        graph.connect("b", "a")
        with pytest.raises(PlanError, match="cycle"):
            graph.validate()

    def test_unknown_vertices(self):
        graph = JobGraph()
        with pytest.raises(PlanError):
            graph.connect("x", "y")
        with pytest.raises(PlanError):
            graph.mark_sink("x")

    def test_duplicate_vertex(self):
        graph = JobGraph()
        graph.add_operator("a", lambda: MapOperator(lambda v: v))
        with pytest.raises(PlanError):
            graph.add_operator("a", lambda: MapOperator(lambda v: v))


class TestChaining:
    def build(self):
        graph = JobGraph()
        graph.add_source("src", [[(i, None, i) for i in range(20)]])
        graph.add_operator("m1", lambda: MapOperator(lambda v: v + 1))
        graph.add_operator("m2", lambda: MapOperator(lambda v: v * 2))
        graph.add_operator("sink", CollectSinkOperator)
        graph.connect("src", "m1")
        graph.connect("m1", "m2")
        graph.connect("m2", "sink")
        graph.mark_sink("sink")
        return graph

    def test_chained_graph_is_smaller(self):
        chained = chain_operators(self.build())
        assert len(chained.vertices) == 1
        assert "m1+m2+sink" in chained.vertices

    def test_chaining_preserves_results(self):
        # Results stay addressable under the original sink name even when
        # the sink vertex was fused into a chain.
        unchained = JobRunner(self.build(), chaining=False).run()
        chained = JobRunner(self.build(), chaining=True).run()
        assert sorted(unchained.values("sink")) == \
            sorted(chained.values("sink"))

    def test_chaining_reduces_messages(self):
        unchained = JobRunner(self.build(), chaining=False).run()
        chained = JobRunner(self.build(), chaining=True).run()
        assert chained.messages_processed < unchained.messages_processed

    def test_hash_edges_not_fused(self):
        graph = wordcount_graph([True])
        chained = chain_operators(graph)
        # The hash edges around "count" survive chaining.
        assert any(v.startswith("count") or v == "count"
                   for v in chained.vertices)

    def test_chained_operator_cascades(self):
        chain = ChainedOperator([
            MapOperator(lambda v: v + 1),
            FilterOperator(lambda v: v % 2 == 0),
            MapOperator(lambda v: v * 10),
        ])
        chain.open(OperatorContext())
        assert [e.value for e in chain.process(Element(1))] == [20]
        assert [e.value for e in chain.process(Element(2))] == []


class TestCheckpointingAndRecovery:
    def test_checkpoints_complete(self):
        result = JobRunner(wordcount_graph([True]),
                           checkpoint_interval=2).run()
        assert result.completed_checkpoints  # at least one completed
        assert sorted(result.values("sink")) == EXPECTED

    def test_recovery_is_exactly_once(self):
        clean = JobRunner(wordcount_graph([True]),
                          checkpoint_interval=1).run()
        failed = JobRunner(wordcount_graph([False], fail_at=3),
                           checkpoint_interval=1).run()
        assert failed.recoveries == 1
        assert sorted(failed.values("sink")) == \
            sorted(clean.values("sink"))

    def test_recovery_without_checkpoints_restarts_from_scratch(self):
        # interval=None means no barriers: recovery replays everything;
        # exactly-once still holds because no epoch was ever committed
        # before the failure (all output was pending).
        clean = JobRunner(wordcount_graph([True])).run()
        failed = JobRunner(wordcount_graph([False], fail_at=3)).run()
        assert failed.recoveries == 1
        assert sorted(failed.values("sink")) == \
            sorted(clean.values("sink"))

    def test_restart_budget_exhausted(self):
        class AlwaysFail(StreamOperator):
            def process(self, element):
                from repro.runtime import JobFailure
                raise JobFailure("boom")

        graph = JobGraph()
        graph.add_source("src", [[(1, None, 0)]])
        graph.add_operator("bad", AlwaysFail)
        graph.connect("src", "bad")
        from repro.runtime import JobFailure
        with pytest.raises(JobFailure):
            JobRunner(graph, max_restarts=2).run()


class TestLSMRunningSum:
    """Exact sink output of a keyed running sum over LSM state."""

    SUMS = [("a", ("a", 1)), ("b", ("b", 2)), ("a", ("a", 4)),
            ("c", ("c", 4)), ("a", ("a", 9)), ("b", ("b", 8)),
            ("c", ("c", 11)), ("a", ("a", 17))]

    def test_sink_output(self):
        result = JobRunner(reduce_graph([True])).run()
        assert result.recoveries == 0
        assert result.values("sink") == self.SUMS

    def test_sink_output_under_recovery(self):
        result = JobRunner(reduce_graph([False], fail_at=4),
                           checkpoint_interval=1).run()
        assert result.recoveries == 1
        assert result.values("sink") == self.SUMS
