"""Checkpointing of view strategies + the kernel-equivalence property.

Every :class:`ViewStrategy` and :class:`RealTimeDatabase` now speak the
chaos ``snapshot()``/``restore()`` protocol, so they plug into
:class:`~repro.chaos.recovery.RecoveryManager` unchanged.  The property
test at the bottom drives the same randomized insert/delete script
through all four strategies *and* a kernel-backed dynamic table and
requires identical answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.recovery import RecoveryManager
from repro.core import StateError
from repro.core.records import Schema
from repro.viewmaint import (
    EagerView,
    LazyView,
    LiveQuery,
    RealTimeDatabase,
    RecomputeView,
    SplitView,
)
from repro.views import DynamicTableService

pytestmark = pytest.mark.views

STRATEGIES = [RecomputeView, EagerView, LazyView, SplitView]


def make(strategy):
    return strategy(group_fn=lambda r: r["g"], value_fn=lambda r: r["v"])


ROWS = [{"g": "a", "v": 1}, {"g": "a", "v": 3},
        {"g": "b", "v": 10}, {"g": "a", "v": 5}]


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestStrategyRoundTrip:
    def test_snapshot_restore_round_trip(self, strategy):
        view = make(strategy)
        for row in ROWS:
            view.insert(row)
        view.delete({"g": "a", "v": 3})
        want = view.query()
        counters = (view.update_work, view.query_work)
        image = view.snapshot()

        view.insert({"g": "c", "v": 99})
        view.delete({"g": "b", "v": 10})
        assert view.query() != want

        restored = make(strategy)
        restored.restore(image)
        assert restored.query() == want
        restored2 = make(strategy)
        restored2.restore(image)
        assert (restored2.update_work, restored2.query_work) == counters

    def test_snapshot_is_isolated_from_later_mutation(self, strategy):
        view = make(strategy)
        view.insert({"g": "a", "v": 1})
        image = view.snapshot()
        view.insert({"g": "a", "v": 2})
        restored = make(strategy)
        restored.restore(image)
        assert restored.query()["a"]["count"] == 1

    def test_recovery_manager_protocol(self, strategy):
        view = make(strategy)
        view.insert({"g": "a", "v": 1})
        manager = RecoveryManager(view, interval=1)
        manager.start()
        view.insert({"g": "a", "v": 2})
        restored = manager.recover()
        assert restored.offset == 0
        assert view.query()["a"]["count"] == 1


class TestWorkBookkeeping:
    def test_lazy_delete_counts_like_insert(self):
        view = make(LazyView)
        view.insert({"g": "a", "v": 1})
        after_insert = view.update_work
        view.delete({"g": "a", "v": 1})
        # Both are buffer appends: deferred cost lands on query_work.
        assert view.update_work - after_insert == after_insert
        assert view.pending_count == 2

    def test_split_delta_delete_is_indexed(self):
        view = SplitView(group_fn=lambda r: r["g"],
                         value_fn=lambda r: r["v"],
                         merge_threshold=10_000)
        for i in range(100):
            view.insert({"g": "a", "v": i})
        assert view.delta_size == 100
        view.delete({"g": "a", "v": 50})
        assert view.delta_size == 99
        assert view.query()["a"]["count"] == 99

    def test_split_duplicate_rows_in_delta(self):
        view = SplitView(group_fn=lambda r: r["g"],
                         value_fn=lambda r: r["v"],
                         merge_threshold=10_000)
        view.insert({"g": "a", "v": 7})
        view.insert({"g": "a", "v": 7})
        view.delete({"g": "a", "v": 7})
        assert view.query()["a"]["count"] == 1
        view.delete({"g": "a", "v": 7})
        assert view.query() == {}


class TestRealTimeDatabaseRoundTrip:
    def build(self):
        database = RealTimeDatabase()
        database.subscribe("hot", LiveQuery(lambda doc: doc["temp"] > 20))
        database.put("s1", {"temp": 25})
        database.put("s2", {"temp": 10})
        return database

    def test_round_trip(self):
        database = self.build()
        image = database.snapshot()
        database.put("s3", {"temp": 30})
        database.put("s1", {"temp": 5})
        database.restore(image)
        assert database.query("hot").result_keys() == ["s1"]
        assert database.get("s3") is None

    def test_restore_requires_registered_queries(self):
        image = self.build().snapshot()
        fresh = RealTimeDatabase()
        with pytest.raises(StateError):
            fresh.restore(image)

    def test_recovery_manager_protocol(self):
        database = self.build()
        manager = RecoveryManager(database, interval=1)
        manager.start()
        database.put("s1", {"temp": 1})
        manager.recover()
        assert database.get("s1") == {"temp": 25}


# -- cross-implementation property --------------------------------------------

operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]),
              st.integers(min_value=0, max_value=2),   # group
              st.integers(min_value=0, max_value=5)),  # value
    min_size=0, max_size=40)


def _kernel_view(rows):
    """The same aggregate through the dynamic-table kernel path."""
    service = DynamicTableService()
    service.create_table("base", Schema(["g", "v"]))
    service.execute(
        "CREATE DYNAMIC TABLE agg AS SELECT g, COUNT(*) AS n, "
        "SUM(v) AS total, MIN(v) AS lo, MAX(v) AS hi FROM base "
        "GROUP BY g EMIT CHANGES")
    if rows:
        service.apply("base", inserts=rows, at=1)
    service.refresh("agg")
    out = {}
    for row, weight in service.read("agg").items():
        assert weight == 1
        out[row["g"]] = {"count": row["n"], "sum": row["total"],
                         "min": row["lo"], "max": row["hi"]}
    return out


@settings(max_examples=60, deadline=None)
@given(operations)
def test_all_strategies_and_kernel_agree(script):
    views = [make(strategy) for strategy in STRATEGIES]
    live = []  # multiset of surviving rows, for the kernel run
    for op, group, value in script:
        row = {"g": group, "v": value}
        if op == "insert":
            for view in views:
                view.insert(row)
            live.append(row)
        elif row in live:
            for view in views:
                view.delete(row)
            live.remove(row)
    results = [view.query() for view in views]
    for other in results[1:]:
        assert other == results[0]
    kernel = _kernel_view(live)
    expected = {group: {key: acc[key]
                        for key in ("count", "sum", "min", "max")}
                for group, acc in results[0].items()}
    assert kernel == expected
