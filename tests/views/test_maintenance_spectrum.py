"""§5.1's maintenance spectrum on the one view engine, by counts.

Every point is a dynamic table's target lag (recompute keeps no view):
``TARGET_LAG = 0`` is eager (PipelineDB), a consumer-less ``DOWNSTREAM``
view is lazy, and ``TARGET_LAG = k`` is split maintenance ("meet me
halfway").  :attr:`DynamicTable.pulled` counts the rows refreshes pull
from the sources' changelogs, so each point's work profile is a count.
The points are driven through C6's :class:`SpectrumPoint`
(``benchmarks/bench_c6_view_maintenance.py``), whose crossover
assertions run here at 400 operations.
"""

import importlib.util
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.recovery import RecoveryManager
from repro.core import StateError
from repro.core.records import Schema
from repro.views import DynamicTableService, recompute

pytestmark = pytest.mark.views

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_c6():
    spec = importlib.util.spec_from_file_location(
        "bench_c6_view_maintenance",
        ROOT / "benchmarks" / "bench_c6_view_maintenance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


C6 = _load_c6()
STRATEGIES = C6.STRATEGIES
ROWS = [{"g": "a", "v": 1}, {"g": "a", "v": 3},
        {"g": "b", "v": 10}, {"g": "a", "v": 5}]


def view_at(target_lag):
    """A service with ``base`` and the view ``agg`` at ``target_lag``."""
    service = DynamicTableService()
    service.create_table("base", Schema(["g", "v"]))
    view = service.execute(
        f"CREATE DYNAMIC TABLE agg TARGET_LAG = {target_lag} AS "
        f"{C6.AGGREGATE}")
    return service, view


def write(service, version, inserts=(), deletes=()):
    """Commit one version of ``base`` and tick to it."""
    service.apply("base", inserts, deletes, at=version)
    service.tick(version)


def groups(answer):
    return {row["g"]: (row["n"], row["total"], row["lo"], row["hi"])
            for row in answer}


class TestWorkProfiles:
    """The defining cost of each point, as rows pulled."""

    def test_eager_pays_on_update(self):
        service, view = view_at(0)
        for version in range(1, 101):
            service.apply("base", [{"g": "a", "v": version}], at=version)
            assert view.pulled == version - 1
            service.tick(version)
            assert view.pulled == version
        service.refresh("agg")
        assert view.pulled == 100
        assert groups(service.read("agg")) == {"a": (100, 5050, 1, 100)}

    def test_lazy_pays_on_query(self):
        service, view = view_at("DOWNSTREAM")
        for version in range(1, 101):
            write(service, version, [{"g": "a", "v": version}])
        assert view.pulled == 0
        assert view.refreshes == 1  # its creation
        service.refresh("agg")
        assert view.pulled == 100
        service.refresh("agg")
        assert view.pulled == 100
        assert groups(service.read("agg")) == {"a": (100, 5050, 1, 100)}

    def test_recompute_scans_everything_per_query(self):
        point = C6.SpectrumPoint(None)
        for value in range(50):
            point.write([{"g": "a", "v": value}])
        point.query()
        point.query()
        assert (point.update_work, point.query_work) == (0, 100)

    @pytest.mark.parametrize("k", [4, 10])
    def test_split_amortises_merges(self, k):
        service, view = view_at(k)
        batches = []
        for version in range(1, 5 * k + 3):
            pulled = view.pulled
            write(service, version, [{"g": f"g{version % 3}", "v": version}])
            if view.pulled > pulled:
                batches.append(view.pulled - pulled)
        assert batches == [k] * 5

    @pytest.mark.parametrize("k", [4, 10])
    def test_split_query_cost_bounded_by_threshold(self, k):
        service, view = view_at(k)
        for version in range(1, 5 * k + 3):
            write(service, version, [{"g": f"g{version % 3}", "v": version}])
            pulled = view.pulled
            service.refresh("agg")
            assert view.pulled - pulled < k
        assert service.read("agg") == recompute(
            view.plan, {"base": service.read("base")})

    def test_split_delete_from_delta_and_snapshot(self):
        service, view = view_at(4)
        for version in range(1, 5):
            write(service, version, [{"g": "a", "v": version}])
        assert view.pulled == 4  # merged at 4 versions
        write(service, 5, [{"g": "a", "v": 99}])
        write(service, 6, deletes=[{"g": "a", "v": 99}])  # a pending row
        write(service, 7, deletes=[{"g": "a", "v": 1}])  # a merged row
        assert view.pulled == 4
        service.refresh("agg")
        assert view.pulled == 7
        assert groups(service.read("agg")) == {"a": (3, 9, 2, 4)}


class TestWorkBookkeeping:
    """What a pending delete costs, and how pending duplicates net out."""

    def test_lazy_delete_counts_like_insert(self):
        service, view = view_at("DOWNSTREAM")
        write(service, 1, [{"g": "a", "v": 1}])
        service.refresh("agg")
        after_insert = view.pulled
        write(service, 2, deletes=[{"g": "a", "v": 1}])
        assert view.pulled == after_insert
        service.refresh("agg")
        # Both are one changelog row each: the delete is pulled like the
        # insert was.
        assert view.pulled - after_insert == after_insert == 1
        assert groups(service.read("agg")) == {}

    def test_split_pending_delete_defers_its_work(self):
        service, view = view_at(10_000)
        for version in range(1, 101):
            write(service, version, [{"g": "a", "v": version}])
        write(service, 101, deletes=[{"g": "a", "v": 50}])
        assert view.pulled == 0
        service.refresh("agg")
        assert view.pulled == 101
        assert groups(service.read("agg")) == {"a": (99, 5000, 1, 100)}

    def test_split_duplicate_rows_in_delta(self):
        service, view = view_at(10_000)
        row = {"g": "a", "v": 7}
        write(service, 1, [row])
        write(service, 2, [row])
        write(service, 3, deletes=[row])
        service.refresh("agg")
        assert groups(service.read("agg")) == {"a": (1, 7, 7, 7)}
        write(service, 4, deletes=[row])
        service.refresh("agg")
        assert groups(service.read("agg")) == {}
        assert view.pulled == 4


class TestErrors:
    def test_eager_delete_absent_group(self):
        service, view = view_at(0)
        with pytest.raises(StateError):
            service.apply("base", deletes=[{"g": "x", "v": 1}], at=1)
        assert view.pulled == 0

    def test_recompute_delete_absent_row(self):
        point = C6.SpectrumPoint(None)
        point.write([{"g": "x", "v": 1}])
        with pytest.raises(StateError):
            point.write(deletes=[{"g": "x", "v": 2}])
        assert groups(point.query()) == {"x": (1, 1, 1, 1)}


@pytest.mark.parametrize("strategy", list(STRATEGIES))
class TestAllStrategiesAgree:
    def make(self, strategy):
        return C6.SpectrumPoint(STRATEGIES[strategy])

    def test_grouped_aggregates(self, strategy):
        point = self.make(strategy)
        for row in ROWS:
            point.write([row])
        assert groups(point.query()) == {"a": (3, 9, 1, 5),
                                         "b": (1, 10, 10, 10)}

    def test_delete_retracts(self, strategy):
        point = self.make(strategy)
        point.write(ROWS)
        point.write(deletes=[{"g": "a", "v": 3}])
        assert groups(point.query())["a"] == (2, 6, 1, 5)

    def test_group_disappears_when_empty(self, strategy):
        point = self.make(strategy)
        point.write([{"g": "x", "v": 1}])
        point.write(deletes=[{"g": "x", "v": 1}])
        assert groups(point.query()) == {}

    def test_empty_view(self, strategy):
        assert groups(self.make(strategy).query()) == {}

    def test_query_is_idempotent(self, strategy):
        point = self.make(strategy)
        point.write(ROWS)
        assert point.query() == point.query()


@pytest.mark.parametrize("strategy", list(STRATEGIES))
class TestStrategyRoundTrip:
    def test_snapshot_restore_round_trip(self, strategy):
        point = C6.SpectrumPoint(STRATEGIES[strategy])
        point.write(ROWS)
        point.write(deletes=[{"g": "a", "v": 3}])
        want = point.query()
        pulled = point.view.pulled if point.view else None
        image = point.service.snapshot()

        point.write([{"g": "c", "v": 99}], [{"g": "b", "v": 10}])
        changed = point.query()
        assert changed != want

        point.service.restore(image)
        if point.view:
            assert point.view.pulled == pulled
        assert point.query() == want
        # The re-run writes and refreshes converge on the same contents.
        point.write([{"g": "c", "v": 99}], [{"g": "b", "v": 10}])
        assert point.query() == changed

    def test_snapshot_is_isolated_from_later_mutation(self, strategy):
        point = C6.SpectrumPoint(STRATEGIES[strategy])
        point.write([{"g": "a", "v": 1}])
        point.query()
        image = point.service.snapshot()
        point.write([{"g": "a", "v": 2}])
        point.query()
        point.service.restore(image)
        assert groups(point.query()) == {"a": (1, 1, 1, 1)}
        # Writes after a restore do not reach into the image either.
        point.write([{"g": "a", "v": 3}])
        point.query()
        point.service.restore(image)
        assert groups(point.query()) == {"a": (1, 1, 1, 1)}

    def test_recovery_manager_protocol(self, strategy):
        point = C6.SpectrumPoint(STRATEGIES[strategy])
        point.write([{"g": "a", "v": 1}])
        point.query()
        manager = RecoveryManager(point.service, interval=1)
        manager.start()
        point.write([{"g": "a", "v": 2}])
        point.query()
        assert manager.recover().offset == 0
        assert groups(point.query()) == {"a": (1, 1, 1, 1)}


def test_pulled_rolls_back_with_restore_and_the_rerun_converges():
    service, view = view_at(4)
    for version in range(1, 7):
        write(service, version, [{"g": f"g{version % 2}", "v": version}])
    assert view.pulled == 4
    image = service.snapshot()
    for version in range(7, 12):
        write(service, version, [{"g": f"g{version % 2}", "v": version}])
    service.refresh("agg")
    assert view.pulled == 11
    want, refreshes = service.read("agg"), view.refreshes

    service.restore(image)
    assert (view.pulled, view.version) == (4, 4)
    for version in range(7, 12):
        write(service, version, [{"g": f"g{version % 2}", "v": version}])
    service.refresh("agg")
    assert view.pulled == 11
    assert (service.read("agg"), view.refreshes) == (want, refreshes)


operation = st.tuples(
    st.sampled_from(["insert", "delete", "query"]),
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=9))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=st.lists(operation, max_size=80))
def test_property_strategies_equivalent(ops):
    """Every point answers every query as the reference does, through
    inserts and deletes."""
    points = [C6.SpectrumPoint(lag) for lag in (None, 0, "DOWNSTREAM", 3)]
    live: list[dict] = []
    for op, group, value in ops:
        row = {"g": group, "v": value}
        if op == "insert":
            live.append(row)
            for point in points:
                point.write([row])
        elif op == "delete" and row in live:
            live.remove(row)
            for point in points:
                point.write(deletes=[row])
        elif op == "query":
            first, *rest = [point.query() for point in points]
            assert all(answer == first for answer in rest)
    first, *rest = [point.query() for point in points]
    assert all(answer == first for answer in rest)


def fold(rows):
    """COUNT, SUM, MIN and MAX of ``v`` per ``g``, folded by hand."""
    values: dict = {}
    for row in rows:
        values.setdefault(row["g"], []).append(row["v"])
    return {g: (len(vs), sum(vs), min(vs), max(vs))
            for g, vs in values.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=st.lists(operation, max_size=40))
def test_all_points_agree_with_a_direct_fold(ops):
    """Every point's answer, at every query and at the end, is the fold of
    the surviving rows, one row per group."""
    points = [C6.SpectrumPoint(lag) for lag in STRATEGIES.values()]
    live: list[dict] = []

    def check():
        for point in points:
            answer = point.query()
            assert all(weight == 1 for _, weight in answer.items())
            assert groups(answer) == fold(live)

    for op, group, value in ops:
        row = {"g": group, "v": value}
        if op == "insert":
            live.append(row)
            for point in points:
                point.write([row])
        elif op == "delete" and row in live:
            live.remove(row)
            for point in points:
                point.write(deletes=[row])
        elif op == "query":
            check()
    check()


def test_c6_crossover_holds_at_400_ops():
    C6.assert_crossover(C6.crossover(400))
