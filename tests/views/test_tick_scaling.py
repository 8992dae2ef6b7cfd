"""A tick's cost must follow the rows the tick changed, not the rows the
tables and views hold — checked by counting what the service touches
(deltas the views' operators emit, rows hashed), never by a clock."""

import pytest

from repro.core.records import Record, Schema
from repro.plan.exprs import Column
from repro.plan.ir import Join, Project
from repro.views import (
    DOWNSTREAM,
    DynamicTableService,
    HISTORY_LIMIT,
    make_scan,
    recompute,
)

pytestmark = pytest.mark.views

ORDERS = Schema(["oid", "cust", "amount"])
CUSTOMERS = Schema(["id", "region"])
CUSTOMER_COUNT = 100


class Work:
    """Tallies of the deltas every view's operators have emitted and of
    ``Record`` hashes."""

    def __init__(self):
        self.hashes = 0

    def reading(self, service):
        deltas = sum(op.emitted for name in service.view_names()
                     for _, op in service.view(name).operators())
        return deltas, self.hashes


@pytest.fixture
def work(monkeypatch):
    tally = Work()
    hash_row = Record.__hash__

    def counted_hash(self):
        tally.hashes += 1
        return hash_row(self)

    monkeypatch.setattr(Record, "__hash__", counted_hash)
    return tally


def order(oid, amount=50):
    return {"oid": oid, "cust": oid % CUSTOMER_COUNT, "amount": amount}


def cascade(retained):
    """A four-level DAG (σ, ⋈, γ, σ, γ) over ``retained`` order rows.
    Every customer holds at least two of them and every predicate rules
    alike at any size, so a commit takes the same path through it."""
    service = DynamicTableService()
    service.create_table("orders", ORDERS)
    service.create_table("customers", CUSTOMERS)
    service.apply("orders", inserts=[order(oid) for oid in range(retained)],
                  at=1)
    service.apply("customers", inserts=[
        {"id": cust, "region": cust % 5} for cust in range(CUSTOMER_COUNT)],
        at=1)
    big = service.execute(
        "CREATE DYNAMIC TABLE big TARGET_LAG = DOWNSTREAM AS SELECT oid, "
        "cust, amount FROM orders WHERE amount > 20 EMIT CHANGES")
    join = Join(make_scan("big", "o", big.schema),
                make_scan("customers", "c", CUSTOMERS),
                left_keys=("o.cust",), right_keys=("c.id",))
    service.create_from_plan("enriched", Project(
        join, (Column("o.oid"), Column("o.amount"), Column("c.region")),
        ("oid", "amount", "region")), target_lag=DOWNSTREAM)
    service.execute(
        "CREATE DYNAMIC TABLE by_region TARGET_LAG = 0 AS SELECT region, "
        "SUM(amount) AS total, COUNT(*) AS n FROM enriched "
        "GROUP BY region EMIT CHANGES")
    service.execute(
        "CREATE DYNAMIC TABLE by_cust TARGET_LAG = DOWNSTREAM AS SELECT "
        "cust, SUM(amount) AS total FROM big GROUP BY cust EMIT CHANGES")
    service.execute(
        "CREATE DYNAMIC TABLE vip TARGET_LAG = 0 AS SELECT cust FROM "
        "by_cust WHERE total > 0 EMIT CHANGES")
    service.execute(
        "CREATE DYNAMIC TABLE n_vip TARGET_LAG = 0 AS SELECT COUNT(*) AS n "
        "FROM vip EMIT CHANGES")
    return service


class TestTickWorkFollowsTheDelta:
    def work_for_one_commit(self, retained, work):
        service = cascade(retained)
        # One unmeasured round, so both sizes start from a ticked DAG.
        service.apply("orders", inserts=[order(10 ** 6)], at=2)
        service.tick(2)
        # The same 50 changes at either size: 30 new orders, 20 deletes
        # of rows both sizes hold.
        service.apply(
            "orders",
            inserts=[order(10 ** 6 + n, amount=10 + n) for n in range(1, 31)],
            deletes=[order(oid) for oid in range(20)], at=3)
        before = work.reading(service)
        refreshed = service.tick(3)
        after = work.reading(service)
        assert refreshed == ["big", "enriched", "by_region", "by_cust",
                             "vip", "n_vip"]
        for name in refreshed:
            view = service.view(name)
            contents = {src: service.read(src) for src in view.sources}
            assert service.read(name) == recompute(view.plan, contents)
        return after[0] - before[0], after[1] - before[1]

    def test_same_work_over_200_or_20000_retained_rows(self, work):
        small = self.work_for_one_commit(200, work)
        large = self.work_for_one_commit(20_000, work)
        assert small == large
        deltas, hashes = small
        # The commit really went through six operators' worth of work,
        # all of it on values tuples: a tick hashes no Record.
        assert deltas > 100 and hashes == 0

    def test_schedule_is_not_rederived_every_tick(self, monkeypatch):
        import repro.views.service as service_module
        calls = []
        original = service_module.topo_order

        def counting(upstreams):
            calls.append(len(upstreams))
            return original(upstreams)

        monkeypatch.setattr(service_module, "topo_order", counting)
        service = cascade(200)
        calls.clear()
        for version in range(2, 12):
            service.apply("orders", inserts=[order(10 ** 6 + version)],
                          at=version)
            service.tick(version)
        assert len(calls) == 1  # the first tick after the last CREATE
        # Suspension changes who is blocked: the next tick re-derives.
        service.suspend("by_cust")
        service.tick()
        assert len(calls) == 2
        assert service.view("vip").version < service.clock
        service.resume("by_cust")
        service.tick()
        assert len(calls) == 3
        assert service.view("vip").version == service.clock


class TestDistinctRowSoak:
    COMMITS = 10_000

    def test_gc_work_stays_flat_while_the_table_grows(self, work,
                                                      monkeypatch):
        service = DynamicTableService()
        service.create_table("orders", Schema(["region", "amount"]))
        service.execute(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 1 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        gc_work = []
        collect = DynamicTableService.gc

        def measured(self):
            before = work.reading(self)
            reclaimed = collect(self)
            after = work.reading(self)
            gc_work.append((after[0] - before[0], after[1] - before[1]))
            return reclaimed

        monkeypatch.setattr(DynamicTableService, "gc", measured)
        table, view = service._tables["orders"], service.view("totals")
        peak_table = peak_view = 0
        for i in range(1, self.COMMITS + 1):
            # Every row is new: the base table only ever grows.
            service.apply("orders",
                          inserts=[{"region": f"r{i % 7}", "amount": i}],
                          at=i)
            service.tick(i)
            peak_table = max(peak_table, len(table.changelog))
            peak_view = max(peak_view, len(view.changelog))
        assert len(table.changelog.contents) == self.COMMITS
        # The view also keeps the batches its snapshot reads undo.
        assert peak_table <= 4
        assert peak_view <= HISTORY_LIMIT
        # Trimming a log runs no operator and hashes no row, on the first
        # tick as on the ten-thousandth.
        assert len(gc_work) == self.COMMITS
        assert set(gc_work) == {(0, 0)}
        totals = {row["region"]: row["total"]
                  for row, _ in service.read("totals").items()}
        assert totals == {
            f"r{r}": sum(i for i in range(1, self.COMMITS + 1) if i % 7 == r)
            for r in range(7)}


class TestHistoryHoldsWhatChanged:
    ROWS = 5_000

    def test_retained_versions_cost_their_deltas_not_the_view(self):
        service = DynamicTableService()
        service.create_table("orders", ORDERS)
        service.apply("orders",
                      inserts=[order(oid) for oid in range(self.ROWS)], at=1)
        view = service.execute(
            "CREATE DYNAMIC TABLE big TARGET_LAG = 0 AS SELECT oid, amount "
            "FROM orders WHERE amount > 20 EMIT CHANGES")
        expected = {}
        for version in range(2, 2 + HISTORY_LIMIT + 4):
            service.apply("orders", inserts=[order(10 ** 6 + version)],
                          deletes=[order(version)], at=version)
            service.tick(version)
            expected[version] = recompute(
                view.plan, {"orders": service.read("orders")})
        assert len(view.history) == HISTORY_LIMIT
        # The changelog keeps the batches after the oldest readable
        # version: two changed rows per refresh, however many rows the
        # view holds.
        assert len(view.changelog) == HISTORY_LIMIT - 1
        assert sum(len(batch) for _, batch in view.changelog.entries()) \
            == 2 * (HISTORY_LIMIT - 1)
        # The barrier keeps the readable versions, no deltas.
        image = service.snapshot()["views"]["big"]
        assert image["history"] == view.history
        for version in view.history:
            assert service.read("big", version=version) == expected[version]
        # Reading the past leaves the present alone.
        assert service.read("big") == expected[max(expected)]

    def test_a_leaf_view_keeps_only_the_batches_its_window_reads(self):
        service = DynamicTableService()
        service.create_table("orders", ORDERS)
        service.apply("orders", inserts=[order(oid) for oid in range(50)],
                      at=1)
        view = service.execute(
            "CREATE DYNAMIC TABLE big TARGET_LAG = 0 AS SELECT cust, "
            "SUM(amount) AS total FROM orders GROUP BY cust EMIT CHANGES")
        expected, peak = {}, 0
        for version in range(2, 2 + 4 * HISTORY_LIMIT):
            service.apply("orders", inserts=[order(1000 + version, version)],
                          at=version)
            service.tick(version)
            peak = max(peak, len(view.changelog))
            expected[version] = recompute(
                view.plan, {"orders": service.read("orders")})
        assert peak <= HISTORY_LIMIT
        # The window is versions, not deltas; each reads off the log.
        assert all(type(version) is int for version in view.history)
        assert list(view.history) == sorted(expected)[-HISTORY_LIMIT:]
        for version in view.history:
            assert service.read("big", version=version) == expected[version]
