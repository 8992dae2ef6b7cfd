"""Tests for the DataStream DSL (paper Listing 2 and Section 4.1.2)."""

import pytest

from repro.core import PlanError, SessionWindow, SlidingWindow, TumblingWindow
from repro.dsl import (
    AvgAggregate,
    CountAggregate,
    LSMBackend,
    StreamEnvironment,
    SumAggregate,
)


def keyed_values(result, label):
    return sorted((v[0], v[1]) for v in result.values(label))


class TestListing2:
    """The paper's Listing 2 program, verbatim shape."""

    TRANSACTIONS = [({"id": i, "amount": a}, i)
                    for i, a in enumerate([50, 150, 250, 30, 500])]

    def test_filter_then_map(self):
        env = StreamEnvironment()
        (env.from_collection(self.TRANSACTIONS)
         .filter(lambda t: t["amount"] > 100)
         .map(lambda t: f"TID:{t['id']}, Amount:{t['amount']}")
         .sink("out"))
        result = env.execute()
        assert result.values("out") == [
            "TID:1, Amount:150", "TID:2, Amount:250", "TID:4, Amount:500"]

    def test_same_results_any_parallelism(self):
        outputs = []
        for parallelism in (1, 2, 4):
            env = StreamEnvironment(parallelism=parallelism)
            (env.from_collection(self.TRANSACTIONS)
             .filter(lambda t: t["amount"] > 100)
             .map(lambda t: t["id"])
             .sink("out"))
            outputs.append(sorted(env.execute().values("out")))
        assert outputs[0] == outputs[1] == outputs[2]


class TestStatelessOps:
    def test_flat_map(self):
        env = StreamEnvironment()
        (env.from_collection([("a b", 0), ("c", 1)])
         .flat_map(str.split)
         .sink("words"))
        assert sorted(env.execute().values("words")) == ["a", "b", "c"]

    def test_rebalance_keeps_all_elements(self):
        env = StreamEnvironment(parallelism=3)
        (env.from_collection([(i, i) for i in range(12)])
         .rebalance()
         .sink("out"))
        assert sorted(env.execute().values("out")) == list(range(12))

    def test_invalid_parallelism(self):
        with pytest.raises(PlanError):
            StreamEnvironment(parallelism=0)


class TestKeyedOps:
    def test_running_reduce_emits_updates(self):
        env = StreamEnvironment()
        (env.from_collection([(("a", 1), 0), (("a", 2), 1), (("b", 5), 2)])
         .key_by(lambda kv: kv[0])
         .reduce(lambda acc, kv: (kv[0], acc[1] + kv[1]))
         .sink("out"))
        result = env.execute()
        updates = [v for _, v in
                   sorted((wv, wv) for wv in result.values("out"))]
        values = sorted(result.values("out"), key=repr)
        assert ("a", ("a", 1)) in values
        assert ("a", ("a", 3)) in values
        assert ("b", ("b", 5)) in values

    def test_keyed_state_is_partition_correct(self):
        # With parallelism 4, all updates of one key must see each other.
        env = StreamEnvironment(parallelism=4)
        data = [((f"k{i % 3}", 1), i) for i in range(30)]
        (env.from_collection(data)
         .key_by(lambda kv: kv[0])
         .reduce(lambda acc, kv: (kv[0], acc[1] + kv[1]))
         .sink("out"))
        result = env.execute()
        finals = {}
        for key, value in result.values("out"):
            finals[key] = max(finals.get(key, 0), value[1])
        assert finals == {"k0": 10, "k1": 10, "k2": 10}

    def test_process_function_with_state(self):
        from repro.runtime import Element

        def dedupe(op, element):
            if op.state.get(element.key) is None:
                op.state.put(element.key, True)
                yield element

        env = StreamEnvironment()
        (env.from_collection([(("a", 1), 0), (("a", 2), 1), (("b", 3), 2)])
         .key_by(lambda kv: kv[0])
         .process(dedupe)
         .sink("out"))
        assert sorted(env.execute().values("out")) == [("a", 1), ("b", 3)]


class TestWindowedAggregation:
    DATA = [(("a", 1), 1), (("b", 2), 2), (("a", 3), 5),
            (("a", 7), 12), (("b", 1), 13)]

    def run_windowed(self, aggregate, backend=None, window=None):
        from repro.dsl import DictBackend
        env = StreamEnvironment(parallelism=2,
                                state_backend=backend or DictBackend)
        (env.from_collection(self.DATA)
         .key_by(lambda kv: kv[0])
         .window(window or TumblingWindow(10))
         .aggregate(aggregate)
         .sink("out"))
        return env.execute()

    def test_tumbling_sum(self):
        result = self.run_windowed(SumAggregate(lambda kv: kv[1]))
        out = sorted((v[0], v[2].start, v[1])
                     for v in result.values("out"))
        assert out == [("a", 0, 4), ("a", 10, 7),
                       ("b", 0, 2), ("b", 10, 1)]

    def test_count(self):
        result = self.run_windowed(CountAggregate())
        out = sorted((v[0], v[2].start, v[1])
                     for v in result.values("out"))
        assert out == [("a", 0, 2), ("a", 10, 1),
                       ("b", 0, 1), ("b", 10, 1)]

    def test_avg(self):
        result = self.run_windowed(AvgAggregate(lambda kv: kv[1]))
        out = {(v[0], v[2].start): v[1] for v in result.values("out")}
        assert out[("a", 0)] == 2

    def test_sliding_window_duplicates_contribution(self):
        result = self.run_windowed(
            SumAggregate(lambda kv: kv[1]),
            window=SlidingWindow(size=10, slide=5))
        windows_for_a = [(v[2].start, v[1])
                         for v in result.values("out") if v[0] == "a"]
        # a@5 contributes to [0,10) and [5,15); a@12 also lands in [5,15).
        assert (0, 4) in windows_for_a
        assert (5, 10) in windows_for_a

    def test_lsm_backend_gives_same_results(self):
        dict_result = self.run_windowed(SumAggregate(lambda kv: kv[1]))
        lsm_result = self.run_windowed(SumAggregate(lambda kv: kv[1]),
                                       backend=LSMBackend)
        assert sorted(map(repr, dict_result.values("out"))) == \
            sorted(map(repr, lsm_result.values("out")))

    def test_lsm_tumbling_sum_in_sink_order(self):
        env = StreamEnvironment(parallelism=2, state_backend=LSMBackend)
        events = [(("a", 1), 0), (("b", 2), 1), (("a", 3), 4),
                  (("b", 1), 7), (("a", 2), 11), (("b", 5), 13)]
        (env.from_collection(events)
         .key_by(lambda kv: kv[0])
         .window(TumblingWindow(5))
         .aggregate(SumAggregate(lambda kv: kv[1]))
         .sink("sums"))
        out = [(key, total, (window.start, window.end))
               for key, total, window in env.execute().values("sums")]
        assert out == [("a", 4, (0, 5)), ("b", 2, (0, 5)), ("b", 1, (5, 10)),
                       ("a", 2, (10, 15)), ("b", 5, (10, 15))]

    def test_window_reduce(self):
        env = StreamEnvironment()
        (env.from_collection(self.DATA)
         .key_by(lambda kv: kv[0])
         .window(TumblingWindow(10))
         .reduce(lambda a, b: (a[0], a[1] + b[1]))
         .sink("out"))
        result = env.execute()
        out = {(v[0], v[2].start): v[1] for v in result.values("out")}
        assert out[("a", 0)] == ("a", 4)


class TestCheckpointedDSL:
    def test_dsl_job_with_checkpoints(self):
        env = StreamEnvironment(parallelism=2, checkpoint_interval=2)
        (env.from_collection([((f"k{i % 2}", 1), i) for i in range(10)])
         .key_by(lambda kv: kv[0])
         .window(TumblingWindow(100))
         .aggregate(SumAggregate(lambda kv: kv[1]))
         .sink("out"))
        result = env.execute()
        assert result.completed_checkpoints
        totals = sorted((v[0], v[1]) for v in result.values("out"))
        assert totals == [("k0", 5), ("k1", 5)]
