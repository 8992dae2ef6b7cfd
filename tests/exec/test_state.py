"""State-backend conformance: dict and LSM backends are interchangeable.

Any stateful kernel operator must produce identical results regardless of
the backend behind ``ctx.state_factory``, and LSM-backed state must
survive a checkpoint/restore round-trip through the runtime's
aligned-barrier recovery.
"""

import pytest

from repro.dsl.operators import RunningReduceOperator
from repro.exec import (
    DictStateBackend,
    LSMStateBackend,
    Operator,
    Plan,
    StateBackend,
)
from repro.runtime import (
    CollectSinkOperator,
    Element,
    FailOnceOperator,
    HashPartitioner,
    JobGraph,
    JobRunner,
    KeyByOperator,
)

BACKENDS = [DictStateBackend, LSMStateBackend]


@pytest.mark.parametrize("factory", BACKENDS)
class TestBackendSurface:
    def test_get_put_delete_items(self, factory):
        backend = factory()
        assert backend.get("k") is None
        assert backend.get("k", 7) == 7
        backend.put("k", 1)
        backend.put("j", 2)
        assert backend.get("k") == 1
        assert sorted(backend.items()) == [("j", 2), ("k", 1)]
        backend.delete("k")
        assert backend.get("k") is None
        backend.delete("k")  # idempotent

    def test_snapshot_restore_round_trip(self, factory):
        backend = factory()
        for key, value in [("a", 1), ("b", [2, 3]), ("c", {"d": 4})]:
            backend.put(key, value)
        state = backend.snapshot()
        fresh = factory()
        fresh.restore(state)
        assert sorted(fresh.items(), key=repr) == \
            sorted(backend.items(), key=repr)

    def test_put_many_round_trip(self, factory):
        backend = factory()
        pairs = [(f"k{i}", i * i) for i in range(40)]
        backend.put_many(pairs)
        assert [backend.get(k) for k, _ in pairs] == [v for _, v in pairs]
        assert backend.get("missing", -1) == -1
        assert sorted(backend.items()) == sorted(pairs)

    def test_put_many_later_pairs_win(self, factory):
        backend = factory()
        backend.put_many([("k", 1), ("k", 2), ("j", 3), ("k", 4)])
        assert backend.get("k") == 4
        assert backend.get("j") == 3

    def test_put_many_equals_put_loop(self, factory):
        bulk, loop = factory(), factory()
        pairs = [(f"k{i % 7}", i) for i in range(30)]
        bulk.put_many(pairs)
        for key, value in pairs:
            loop.put(key, value)
        assert sorted(bulk.items()) == sorted(loop.items())

    def test_estimates_exact_after_batched_mutation(self, factory):
        backend = factory()
        backend.put_many((f"k{i}", "v" * 8) for i in range(300))
        backend.put_many([("k0", "w"), ("k1", "w")])  # overwrites, not adds
        assert backend.estimated_entries() == 300
        for key in ("k5", "k6", "k7"):
            backend.delete(key)
        assert backend.estimated_entries() == 297
        # The byte estimate must see the batched entries: sampling scales
        # the mean entry repr by the exact entry count.
        assert backend.estimated_bytes() > 0
        empty = factory()
        assert empty.estimated_entries() == 0
        assert empty.estimated_bytes() == 0


class CountPerKey(Operator):
    """Minimal stateful kernel operator using the context's backend."""

    def open(self, ctx):
        super().open(ctx)
        self.state = ctx.new_state()

    def process_element(self, value, input_index=0):
        key, _ = value
        count = self.state.get(key, 0) + 1
        self.state.put(key, count)
        self.emit((key, count))

    def snapshot(self):
        return self.state.snapshot()

    def restore(self, state):
        self.state.restore(state)


class Collect(Operator):
    def __init__(self):
        self.out = []

    def process_element(self, value, input_index=0):
        self.out.append(value)


EVENTS = [("a", 1), ("b", 1), ("a", 1), ("c", 1), ("a", 1), ("b", 1)]


def run_counts(factory):
    plan = Plan()
    plan.add_source("s")
    plan.add_operator("count", CountPerKey(), ["s"])
    sink = Collect()
    plan.add_operator("sink", sink, ["count"])
    plan.open(state_factory=factory)
    for event in EVENTS:
        plan.push("s", event)
    return sink.out, plan


class TestOperatorConformance:
    def test_kernel_operator_identical_across_backends(self):
        dict_out, _ = run_counts(DictStateBackend)
        lsm_out, _ = run_counts(LSMStateBackend)
        assert dict_out == lsm_out
        assert dict_out[-1] == ("b", 2)

    def test_plan_snapshot_restore_across_backends(self):
        _, source_plan = run_counts(LSMStateBackend)
        state = source_plan.snapshot()
        plan = Plan()
        plan.add_source("s")
        plan.add_operator("count", CountPerKey(), ["s"])
        sink = Collect()
        plan.add_operator("sink", sink, ["count"])
        plan.open(state_factory=DictStateBackend)  # restore crosses backends
        plan.restore(state)
        plan.push("s", ("a", 1))
        assert sink.out == [("a", 4)]

    def test_dsl_stateful_operator_identical_across_backends(self):
        def run(factory):
            plan = Plan()
            plan.add_source("s")
            plan.add_operator(
                "reduce", RunningReduceOperator(lambda a, b: a + b), ["s"])
            sink = Collect()
            plan.add_operator("sink", sink, ["reduce"])
            plan.open(state_factory=factory)
            for i, (key, value) in enumerate(EVENTS):
                plan.push("s", Element(value, key, i))
            return [element.value for element in sink.out]

        assert run(DictStateBackend) == run(LSMStateBackend)


def reduce_graph(fuse, fail_at=0):
    """Keyed running sum over an LSM backend, with optional fault injection."""
    graph = JobGraph("lsm-recovery")
    records = [(value, None, t) for t, value in
               enumerate([("a", 1), ("b", 2), ("a", 3), ("c", 4),
                          ("a", 5), ("b", 6), ("c", 7), ("a", 8)])]
    graph.add_source("src", [records])
    graph.add_operator("key", lambda: KeyByOperator(lambda v: v[0]), 1)
    if fail_at:
        graph.add_operator("chaos", lambda: FailOnceOperator(fail_at, fuse), 1)
    graph.add_operator(
        "sum", lambda: RunningReduceOperator(
            lambda a, b: (a[0], a[1] + b[1]), LSMStateBackend), 1)
    graph.add_operator("sink", CollectSinkOperator, 1)
    graph.connect("src", "key", HashPartitioner)
    if fail_at:
        graph.connect("key", "chaos", HashPartitioner)
        graph.connect("chaos", "sum", HashPartitioner)
    else:
        graph.connect("key", "sum", HashPartitioner)
    graph.connect("sum", "sink", HashPartitioner)
    graph.mark_sink("sink")
    return graph


class TestLSMCheckpointRecovery:
    def test_lsm_state_survives_checkpoint_restore(self):
        clean = JobRunner(reduce_graph([True]),
                          checkpoint_interval=1).run()
        failed = JobRunner(reduce_graph([False], fail_at=4),
                           checkpoint_interval=1).run()
        assert failed.recoveries == 1
        assert sorted(failed.values("sink")) == \
            sorted(clean.values("sink"))

    def test_lsm_matches_dict_backend_end_to_end(self):
        lsm = JobRunner(reduce_graph([True]), checkpoint_interval=2).run()
        # Same topology with the default dict backend for comparison.
        graph = reduce_graph([True])
        for vertex in graph.vertices.values():
            if vertex.name == "sum":
                vertex.factory = lambda: RunningReduceOperator(
                    lambda a, b: (a[0], a[1] + b[1]), DictStateBackend)
        dict_run = JobRunner(graph, checkpoint_interval=2).run()
        assert sorted(lsm.values("sink")) == sorted(dict_run.values("sink"))


@pytest.mark.parametrize("factory", BACKENDS)
def test_state_backend_is_kernel_surface(factory):
    assert issubclass(factory, StateBackend)
