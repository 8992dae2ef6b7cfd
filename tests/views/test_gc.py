"""Changelog GC: entries below the DAG's low-water consumed version are
dropped, consumers at or past the mark see no difference, a view attached
afterwards primes from contents, and memory stays bounded."""

import pytest

from repro.core.records import Record, Schema
from repro.views import HISTORY_LIMIT, DynamicTableService, recompute
from repro.core.relation import Changelog

pytestmark = pytest.mark.views

SCHEMA = Schema(["k", "v"])


def row(k, v):
    return Record.from_mapping(SCHEMA, {"k": k, "v": v})


def log_pair(versions):
    """Two identical logs: one to collect, one left alone to compare.
    Each commit inserts one row and retracts the previous commit's."""
    logs = Changelog(), Changelog()
    for n, version in enumerate(versions):
        for log in logs:
            log.commit(version, [(row("a", n), 1)]
                       + ([(row("a", n - 1), -1)] if n else []))
    return logs


def slices(log, after_from, upto):
    return {(after, to): log.between(after, to)
            for after in range(after_from, upto + 1)
            for to in range(after, upto + 1)}


class TestChangelogGC:
    @pytest.mark.parametrize("mark", [0, 1, 3, 4, 7, 9])
    def test_consumers_at_or_past_the_mark_pull_the_same_slices(self, mark):
        log, untouched = log_pair(range(1, 8))
        log.gc(below=mark)
        assert slices(log, mark, 9) == slices(untouched, mark, 9)

    def test_reclaimed_entries_are_gone_and_counted_once(self):
        log, _ = log_pair(range(1, 6))
        assert log.gc(below=3) == 3
        assert len(log) == 2
        assert log.gc(below=3) == 0  # nothing new below the mark
        assert log.gc(below=5) == 2
        assert len(log) == 0

    def test_mark_below_the_first_entry_changes_nothing(self):
        log, untouched = log_pair([5, 6])
        assert log.gc(below=4) == 0
        assert slices(log, 0, 6) == slices(untouched, 0, 6)

    def test_versions_skipped_by_commits_do_not_confuse_the_cut(self):
        log, untouched = log_pair([2, 2, 5, 9])
        assert log.gc(below=4) == 2  # both version-2 commits, nothing else
        assert slices(log, 4, 9) == slices(untouched, 4, 9)


def service_with_view(target_lag=1):
    service = DynamicTableService()
    service.create_table("orders", Schema(["region", "amount"]))
    service.execute(
        f"CREATE DYNAMIC TABLE totals TARGET_LAG = {target_lag} AS "
        "SELECT region, SUM(amount) AS total FROM orders "
        "GROUP BY region EMIT CHANGES")
    return service


class TestServiceGC:
    def test_tick_reclaims_consumed_base_history(self):
        service = service_with_view()
        for i in range(1, 20):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": i}], at=i)
            service.tick(i)
        # The view consumed everything, so nothing is left to pull.
        assert len(service._tables["orders"].changelog) == 0

    def test_lagging_consumer_holds_the_mark_down(self):
        service = service_with_view(target_lag=100)  # never auto-refreshes
        for i in range(1, 10):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": i}], at=i)
            service.tick(i)
        # The unconsumed slice (version > view.version) must survive.
        view_version = service._views["totals"].version
        log = service._tables["orders"].changelog
        unconsumed = [v for v, _ in log.entries() if v > view_version]
        assert len(unconsumed) == 9 - view_version

    def test_late_attached_view_equals_recompute_from_base(self):
        service = service_with_view()
        for i in range(1, 8):
            service.apply("orders", inserts=[
                {"region": "eu", "amount": 1}, {"region": "us", "amount": i}],
                deletes=[{"region": "us", "amount": i - 1}] if i > 1 else [],
                at=i)
            service.tick(i)
        # Every consumed entry is gone: the newcomer cannot be replaying.
        assert len(service._tables["orders"].changelog) == 0
        late = service.execute(
            "CREATE DYNAMIC TABLE latecount AS SELECT region, "
            "COUNT(*) AS n FROM orders GROUP BY region EMIT CHANGES")
        assert late.version == service.clock
        assert service.read("latecount") == recompute(
            late.plan, {"orders": service.read("orders")})
        # ... and it keeps up incrementally from there.
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=8)
        service.tick(8)
        assert service.read("latecount") == recompute(
            late.plan, {"orders": service.read("orders")})

    def test_late_attached_view_over_a_view_reads_its_materialisation(self):
        service = service_with_view(target_lag=3)
        for i in range(1, 6):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": i}], at=i)
            service.tick(i)
        # `totals` lags the clock here; installing over it brings it to
        # the present first, then primes from what it holds.
        big = service.execute(
            "CREATE DYNAMIC TABLE big AS SELECT region FROM totals "
            "WHERE total > 10 EMIT CHANGES")
        assert service.view("totals").version == service.clock
        assert service.read("big") == recompute(
            big.plan, {"totals": service.read("totals")})
        assert [r["region"] for r, _ in service.read("big").items()] \
            == ["eu"]

    def test_soak_memory_stays_bounded_over_10k_commits(self):
        service = service_with_view()
        peak_base = peak_view = 0
        for i in range(1, 10_001):
            service.apply(
                "orders",
                inserts=[{"region": f"r{i % 7}", "amount": i % 13}], at=i)
            service.tick(i)
            peak_base = max(peak_base,
                            len(service._tables["orders"].changelog))
            peak_view = max(peak_view,
                            len(service._views["totals"].changelog))
        # Without GC both logs grow one entry per commit (10k entries);
        # trimmed below the low-water mark they stay O(1).  The view's
        # mark is also its oldest readable version, so it keeps the
        # batches snapshot reads undo.
        assert peak_base <= 4
        assert peak_view <= HISTORY_LIMIT
        totals = {row["region"]: row["total"]
                  for row, _ in service.read("totals").items()}
        assert totals == {f"r{r}": sum(i % 13 for i in range(1, 10_001)
                                       if i % 7 == r)
                          for r in range(7)}
