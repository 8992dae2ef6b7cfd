"""Snapshot/restore of the view service, including mid-refresh crashes."""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.chaos.injection import InjectedCrash
from repro.chaos.recovery import RecoveryManager
from repro.core import StateError
from repro.core.records import Schema
from repro.views import DynamicTableService

pytestmark = pytest.mark.views


def build_service():
    service = DynamicTableService()
    service.create_table("orders", Schema(["region", "amount"]))
    service.execute(
        "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
        "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
    service.execute(
        "CREATE DYNAMIC TABLE big TARGET_LAG = 0 AS "
        "SELECT region FROM totals WHERE total > 5 EMIT CHANGES")
    return service


def contents(service, name):
    return sorted(service.read(name).items(), key=repr)


class TestRoundTrip:
    def test_snapshot_restore_round_trip(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()
        before = {name: contents(service, name)
                  for name in ("orders", "totals", "big")}
        version_before = service.view("totals").version

        service.apply("orders", inserts=[{"region": "us", "amount": 9}],
                      at=service.clock + 1)
        service.tick()
        assert contents(service, "totals") != before["totals"]

        service.restore(image)
        for name, want in before.items():
            assert contents(service, name) == want
        assert service.view("totals").version == version_before

    def test_restored_service_keeps_refreshing_correctly(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()
        service.restore(image)
        # Kernel operator state came back too: the next delta refreshes
        # incrementally on top of the restored accumulators.
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=service.clock + 1)
        service.tick()
        (row, _), = service.read("totals").items()
        assert row["total"] == 10

    def test_pending_changelog_and_version_history_round_trip(self):
        service = build_service()
        service.suspend("big")  # holds totals' log: big has yet to pull
        snapshots = {}
        for version in range(1, 5):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": version}],
                          at=version)
            service.tick(version)
            snapshots[version] = contents(service, "totals")
        image = service.snapshot()
        pending = len(service.view("totals").changelog)
        assert pending == 4

        service.resume("big")
        service.apply("orders", inserts=[{"region": "us", "amount": 9}],
                      at=5)
        service.tick(5)
        # big has pulled the slice, but the barrier stands: a rollback
        # needs every entry since, so trimming waits for the next one.
        assert len(service.view("totals").changelog) == pending + 1

        service.restore(image)
        assert len(service.view("totals").changelog) == pending
        # The history came back as deltas: every retained version reads
        # as it did, rolled back from the restored materialisation.
        for version, want in snapshots.items():
            assert sorted(service.read("totals", version=version).items(),
                          key=repr) == want
        # ... and the held slice is still there for the resumed consumer.
        assert service.view("big").suspended
        service.resume("big")
        service.tick(5)
        assert service.view("big").version == 5
        assert [row["region"] for row, _ in service.read("big").items()] \
            == ["eu"]

    def test_suspension_survives_restore(self):
        service = build_service()
        service.suspend("totals")
        image = service.snapshot()
        service.resume("totals")
        service.restore(image)
        assert service.view("totals").suspended

    def test_restore_refuses_a_view_created_after_the_checkpoint(self):
        service = DynamicTableService()
        service.create_table("orders", Schema(["region", "amount"]))
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        image = service.snapshot()
        service.apply("orders", inserts=[{"region": "us", "amount": 1}],
                      at=2)
        service.execute(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        with pytest.raises(StateError, match="totals"):
            service.restore(image)
        # Refused before anything changed: the new view and the table it
        # was primed from still agree.
        assert service.clock == 2
        assert len(service.read("orders")) == 2
        assert len(service.read("totals")) == 2
        assert service.view("totals").version == 2

    def test_restore_rejects_unregistered_views(self):
        service = build_service()
        image = service.snapshot()
        fresh = DynamicTableService()
        with pytest.raises(StateError):
            fresh.restore(image)


class TestMidRefreshCrash:
    def test_crash_mid_refresh_rolls_back_and_converges(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()

        fuse = CrashFuse(at=1)
        install_crash(service.view("totals"), 0, fuse)
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=service.clock + 1)
        with pytest.raises(InjectedCrash):
            service.refresh("totals")
        assert fuse.fired

        # Roll back the torn state and replay the commit: exactly-once.
        service.restore(image)
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=service.clock + 1)
        service.refresh("totals")
        (row, _), = service.read("totals").items()
        assert row["total"] == 11
        # The torn refresh left no version behind; the replayed one did.
        (old, _), = service.read("totals", version=image["clock"]).items()
        assert old["total"] == 9
        assert service.view("totals").history[-2:] \
            == (image["clock"], service.clock)

    def test_recovery_manager_protocol(self):
        """The service plugs into the chaos RecoveryManager as-is."""
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        manager = RecoveryManager(service, interval=1)
        manager.start()
        service.apply("orders", inserts=[{"region": "us", "amount": 1}],
                      at=service.clock + 1)
        service.tick()
        restored = manager.recover()
        assert restored.offset == 0
        assert {row["region"] for row, _ in service.read("totals").items()} \
            == {"eu"}


class TestDSMSIntegration:
    def build_engine(self):
        from repro.dsms import DSMSEngine

        engine = DSMSEngine()
        engine.register_stream("Orders", Schema(["region", "amount"]))
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM Orders GROUP BY region EMIT CHANGES")
        return engine

    def test_stream_feeds_view(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        engine.advance_time(2)
        (row, _), = engine.views.read("totals").items()
        assert row["total"] == 4

    def test_same_instant_arrivals_drained_apart_all_reach_the_view(self):
        from repro.dsms import DSMSEngine

        engine = DSMSEngine()
        engine.register_stream("Obs", Schema(["id"]))
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE n_obs TARGET_LAG = 0 AS "
            "SELECT COUNT(*) AS n FROM Obs EMIT CHANGES")
        for ident, t in enumerate([1, 1, 2, 2, 3]):
            engine.ingest("Obs", {"id": ident}, t)
            engine.run_until_idle()
        assert len(engine.views.read("Obs")) == 5
        (row, _), = engine.views.read("n_obs").items()
        assert row["n"] == 5
        engine.advance_time(4)
        (row, _), = engine.views.read("n_obs").items()
        assert row["n"] == 5

    def test_engine_snapshot_carries_views(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        engine.advance_time(2)
        image = engine.snapshot()
        assert "views" in image

        engine.ingest("Orders", {"region": "eu", "amount": 5}, 3)
        engine.run_until_idle()
        engine.advance_time(4)
        engine.restore(image)
        (row, _), = engine.views.read("totals").items()
        assert row["total"] == 4

    def test_engine_restore_refuses_a_view_created_after_the_checkpoint(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        image = engine.snapshot()
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE n_orders TARGET_LAG = 0 AS "
            "SELECT COUNT(*) AS n FROM Orders EMIT CHANGES")
        with pytest.raises(StateError, match="n_orders"):
            engine.restore(image)
