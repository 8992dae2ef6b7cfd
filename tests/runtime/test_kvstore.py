"""Tests for the LSM key-value store, incl. a model-based hypothesis check,
and for the two keyed-state backends (heap dict and LSM) being
interchangeable under the DSL's keyed operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StateError
from repro.dsl import DictBackend, LSMBackend
from repro.dsl.operators import KeyedStateOperator, RunningReduceOperator
from repro.runtime import (
    TOMBSTONE,
    CollectSinkOperator,
    Element,
    FailOnceOperator,
    HashPartitioner,
    JobGraph,
    JobRunner,
    KeyByOperator,
    LSMStore,
    MemTable,
    SortedRun,
)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put("b", 2)
        table.put("a", 1)
        assert table.get("a") == 1
        assert list(table.items()) == [("a", 1), ("b", 2)]

    def test_overwrite(self):
        table = MemTable()
        table.put("k", 1)
        table.put("k", 2)
        assert table.get("k") == 2
        assert len(table) == 1

    def test_scan(self):
        table = MemTable()
        for key in "aceg":
            table.put(key, key.upper())
        assert list(table.scan("b", "f")) == [("c", "C"), ("e", "E")]


class TestSortedRun:
    def test_get_binary_search(self):
        run = SortedRun([("a", 1), ("c", 3)])
        assert run.get("c") == 3
        assert run.get("b") is None
        assert "a" in run
        assert "b" not in run

    def test_unsorted_rejected(self):
        with pytest.raises(StateError):
            SortedRun([("b", 1), ("a", 2)])


class TestLSMStore:
    def test_basic_put_get_delete(self):
        store = LSMStore()
        store.put("k", "v")
        assert store.get("k") == "v"
        store.delete("k")
        assert store.get("k") is None
        assert "k" not in store

    def test_flush_on_memtable_limit(self):
        store = LSMStore(memtable_limit=2)
        store.put("a", 1)
        assert store.flushes == 0
        store.put("b", 2)
        assert store.flushes == 1
        assert store.memtable_size == 0
        assert store.get("a") == 1  # still readable from the run

    def test_newest_run_wins(self):
        store = LSMStore(memtable_limit=1)
        store.put("k", "old")
        store.put("k", "new")
        assert store.run_count == 2
        assert store.get("k") == "new"

    def test_tombstone_shadows_older_value(self):
        store = LSMStore(memtable_limit=1)
        store.put("k", "v")   # flushed to run
        store.delete("k")     # tombstone flushed to newer run
        assert store.get("k") is None

    def test_compaction_merges_and_drops_tombstones(self):
        store = LSMStore(memtable_limit=1, max_runs=2)
        store.put("a", 1)
        store.put("b", 2)
        store.delete("a")  # third flush triggers compaction
        assert store.run_count == 1
        assert store.compactions == 1
        assert list(store.items()) == [("b", 2)]

    def test_scan_merges_levels(self):
        store = LSMStore(memtable_limit=2)
        store.put("a", 1)
        store.put("b", 2)   # flushed
        store.put("b", 20)  # newer, in memtable
        store.put("c", 3)
        assert list(store.scan("a", "z")) == [("a", 1), ("b", 20), ("c", 3)]

    def test_len_counts_live_keys(self):
        store = LSMStore(memtable_limit=2)
        store.put("a", 1)
        store.put("b", 2)
        store.delete("a")
        assert len(store) == 1

    def test_cannot_store_tombstone(self):
        store = LSMStore()
        with pytest.raises(StateError):
            store.put("k", TOMBSTONE)

    def test_default_on_missing(self):
        assert LSMStore().get("missing", 42) == 42

    def test_recover_equals_original(self):
        store = LSMStore(memtable_limit=3)
        for i in range(7):
            store.put(f"k{i}", i)
        store.delete("k0")
        recovered = store.recover()
        assert list(recovered.items()) == list(store.items())

    def test_invalid_parameters(self):
        with pytest.raises(StateError):
            LSMStore(memtable_limit=0)
        with pytest.raises(StateError):
            LSMStore(max_runs=0)


# ---------------------------------------------------------------------------
# Model check: the LSM store behaves exactly like a dict
# ---------------------------------------------------------------------------

operations = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "flush"]),
              st.integers(min_value=0, max_value=20),
              st.integers(min_value=0, max_value=99)),
    max_size=120)


@settings(max_examples=60, deadline=None)
@given(ops=operations,
       memtable_limit=st.integers(min_value=1, max_value=8),
       max_runs=st.integers(min_value=1, max_value=4))
def test_lsm_store_matches_dict_model(ops, memtable_limit, max_runs):
    store = LSMStore(memtable_limit=memtable_limit, max_runs=max_runs)
    model: dict[int, int] = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "delete":
            store.delete(key)
            model.pop(key, None)
        else:
            store.flush()
        assert store.get(key) == model.get(key)
    assert list(store.items()) == sorted(model.items())
    assert list(store.scan(5, 15)) == sorted(
        (k, v) for k, v in model.items() if 5 <= k < 15)
    recovered = store.recover()
    assert list(recovered.items()) == sorted(model.items())


# ---------------------------------------------------------------------------
# Keyed-state backends
# ---------------------------------------------------------------------------

BACKENDS = pytest.mark.parametrize(
    "factory", [DictBackend, LSMBackend], ids=["dict", "lsm"])


@BACKENDS
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

    def test_operator_snapshot_restore_round_trip(self, factory):
        op = opened(KeyedStateOperator(factory))
        for key, value in [("a", 1), ("b", [2, 3]), ("c", {"d": 4})]:
            op.state.put(key, value)
        fresh = opened(KeyedStateOperator(factory))
        fresh.restore(op.snapshot())
        assert sorted(fresh.state.items(), key=repr) == \
            sorted(op.state.items(), key=repr)


def test_lsm_backend_flushes_at_256_entries():
    backend = LSMBackend()
    for i in range(255):
        backend.put(f"k{i:03d}", i)
    assert backend.run_count == 0
    backend.put("k255", 255)
    assert backend.run_count == 1


class CountPerKey(KeyedStateOperator):
    """Minimal keyed operator counting elements per key."""

    def process(self, element):
        count = self.state.get(element.key, 0) + 1
        self.state.put(element.key, count)
        yield Element((element.key, count), element.key, element.timestamp)


EVENTS = [("a", 1), ("b", 1), ("a", 1), ("c", 1), ("a", 1), ("b", 1)]


def opened(op):
    op.open(0, 1)
    return op


def run_counts(factory):
    op = opened(CountPerKey(factory))
    out = [e.value for i, (key, _) in enumerate(EVENTS)
           for e in op.process(Element(None, key, i))]
    return out, op


class TestOperatorConformance:
    def test_keyed_operator_identical_across_backends(self):
        dict_out, _ = run_counts(DictBackend)
        lsm_out, _ = run_counts(LSMBackend)
        assert dict_out == lsm_out
        assert dict_out[-1] == ("b", 2)

    def test_snapshot_restore_across_backends(self):
        _, source = run_counts(LSMBackend)
        count = opened(CountPerKey(DictBackend))
        count.restore(source.snapshot())
        assert [e.value for e in count.process(Element(None, "a", 9))] == \
            [("a", 4)]

    def test_dsl_stateful_operator_identical_across_backends(self):
        def run(factory):
            reduce = opened(RunningReduceOperator(lambda a, b: a + b,
                                                  factory))
            return [e.value for i, (key, value) in enumerate(EVENTS)
                    for e in reduce.process(Element(value, key, i))]

        assert run(DictBackend) == run(LSMBackend)


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
            lambda a, b: (a[0], a[1] + b[1]), LSMBackend), 1)
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
        # Same topology with the dict backend for comparison.
        graph = reduce_graph([True])
        graph.vertices["sum"].factory = lambda: RunningReduceOperator(
            lambda a, b: (a[0], a[1] + b[1]), DictBackend)
        dict_run = JobRunner(graph, checkpoint_interval=2).run()
        assert sorted(lsm.values("sink")) == sorted(dict_run.values("sink"))
