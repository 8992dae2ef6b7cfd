"""DynamicTableService: refresh scheduling, target lag, versioned reads."""

import pytest

from repro.core import PlanError, StateError
from repro.core.records import Schema
from repro.views import DynamicTableService, HISTORY_LIMIT

pytestmark = pytest.mark.views


def make_service():
    service = DynamicTableService()
    service.create_table("orders", Schema(["region", "amount"]))
    return service


def totals(service, name="totals"):
    return {row["region"]: row["total"]
            for row, _ in service.read(name).items()}


class TestBasics:
    def test_create_refresh_read(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 1 AS "
            "SELECT region, SUM(amount) AS total FROM orders "
            "GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[
            {"region": "eu", "amount": 5}, {"region": "eu", "amount": 7},
            {"region": "us", "amount": 1}], at=1)
        service.refresh("totals")
        assert totals(service) == {"eu": 12, "us": 1}

    def test_deletes_retract(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 5}],
                      at=1)
        service.apply("orders", deletes=[{"region": "eu", "amount": 5}],
                      at=2)
        service.refresh("totals")
        assert totals(service) == {}

    def test_initial_contents_computed_at_install(self):
        service = make_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 3}])
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        assert totals(service) == {"eu": 3}

    def test_cascaded_view_scans_installed_view(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        big = service.execute(
            "CREATE DYNAMIC TABLE big AS SELECT region FROM totals "
            "WHERE total > 10 EMIT CHANGES")
        # The sharing memo rewrote `big` onto the installed view.
        assert big.sources == ["totals"]
        service.apply("orders", inserts=[{"region": "eu", "amount": 11}],
                      at=1)
        service.refresh("big")
        assert [row["region"] for row, _ in service.read("big").items()] \
            == ["eu"]

    def test_refresh_cascades_upstream_first(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.execute(
            "CREATE DYNAMIC TABLE big AS SELECT region FROM totals "
            "WHERE total > 0 EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        service.refresh("big")  # must pull totals to version 1 on the way
        assert service.view("totals").version == 1
        assert service.view("big").version == 1


class TestTick:
    def test_tick_honours_target_lag(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE slow TARGET_LAG = 3 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        assert service.tick() == []        # clock 2: staleness 2 < 3
        assert service.tick() == ["slow"]  # clock 3: staleness hits 3
        assert totals(service, "slow") == {"eu": 1}

    def test_zero_lag_refreshes_every_tick(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE fresh TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=1)
        assert service.tick() == ["fresh"]
        assert totals(service, "fresh") == {"eu": 2}

    def test_downstream_lag_derives_from_consumers(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE mid TARGET_LAG = DOWNSTREAM AS "
            "SELECT region, SUM(amount) AS total FROM orders "
            "GROUP BY region EMIT CHANGES")
        assert service.effective_lags() == {"mid": None}
        service.execute(
            "CREATE DYNAMIC TABLE top TARGET_LAG = 2 AS "
            "SELECT region FROM mid WHERE total > 0 EMIT CHANGES")
        assert service.effective_lags() == {"mid": 2, "top": 2}

    def test_downstream_without_consumers_never_scheduled(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE orphan TARGET_LAG = DOWNSTREAM AS "
            "SELECT region, SUM(amount) AS total FROM orders "
            "GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        assert service.tick() == []
        assert service.view("orphan").version == 0  # still at install

    def test_measured_lag_never_exceeds_target_in_steady_state(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE v TARGET_LAG = 2 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        for step in range(10):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": step}],
                          at=service.clock + 1)
            service.tick()
            measured = service.clock - service.view("v").version
            assert measured <= 2


class TestSuspendResume:
    def service(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE mid TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.execute(
            "CREATE DYNAMIC TABLE top TARGET_LAG = 0 AS "
            "SELECT region FROM mid WHERE total > 0 EMIT CHANGES")
        return service

    def test_suspended_view_holds_version(self):
        service = self.service()
        service.suspend("mid")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        assert service.tick() == []  # top is blocked below mid
        assert service.view("mid").version == 0
        assert service.view("top").version == 0

    def test_refresh_through_suspended_ancestor_raises(self):
        service = self.service()
        service.suspend("mid")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        with pytest.raises(StateError):
            service.refresh("top")

    def test_resume_catches_up(self):
        service = self.service()
        service.suspend("mid")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        service.tick()
        service.resume("mid")
        refreshed = service.tick()
        assert refreshed == ["mid", "top"]
        assert [row["region"] for row, _ in service.read("top").items()] \
            == ["eu"]


class TestVersionedReads:
    def test_read_at_version(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        service.refresh("totals")
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=2)
        service.refresh("totals")
        old = {row["region"]: row["total"]
               for row, _ in service.read("totals", version=1).items()}
        assert old == {"eu": 1}
        assert totals(service) == {"eu": 3}

    def test_history_is_bounded(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        for step in range(HISTORY_LIMIT + 4):
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": 1}],
                          at=service.clock + 1)
            service.refresh("totals")
        history = service.view("totals").history
        assert len(history) == HISTORY_LIMIT
        with pytest.raises(StateError):
            service.read("totals", version=0)  # pruned out of the window

    def test_base_tables_have_no_history(self):
        service = make_service()
        with pytest.raises(StateError):
            service.read("orders", version=0)


class TestErrors:
    def test_unknown_table(self):
        with pytest.raises(StateError):
            make_service().apply("nope", inserts=[{}])

    def test_views_are_not_writable(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE t AS SELECT region, SUM(amount) AS total "
            "FROM orders GROUP BY region EMIT CHANGES")
        with pytest.raises(StateError):
            service.apply("t", inserts=[{"region": "eu", "total": 1}])

    def test_over_delete_rejected(self):
        service = make_service()
        with pytest.raises(StateError):
            service.apply("orders",
                          deletes=[{"region": "eu", "amount": 1}])

    def test_commit_before_clock_rejected(self):
        service = make_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=5)
        with pytest.raises(StateError):
            service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                          at=3)

    def test_tick_before_clock_rejected(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.tick(7)
        with pytest.raises(StateError):
            service.tick(2)
        assert service.clock == 7
        # The clock did not rewind, so the next commit is stamped past
        # every view's version and the next tick refreshes it.
        service.tick(7)  # the same instant again is legal
        service.apply("orders", inserts=[{"region": "eu", "amount": 4}],
                      at=service.clock + 1)
        assert service.tick() == ["totals"]
        assert totals(service) == {"eu": 4}

    def test_bad_target_lag(self):
        service = make_service()
        with pytest.raises(PlanError):
            service.create_from_plan(
                "v", _any_plan(service), target_lag=-1)

    def test_view_over_unknown_relation(self):
        service = make_service()
        with pytest.raises(PlanError):
            service.execute(
                "CREATE DYNAMIC TABLE v AS SELECT x FROM ghost "
                "EMIT CHANGES")

    def test_duplicate_view_name_rejected(self):
        service = make_service()
        text = ("CREATE DYNAMIC TABLE v AS SELECT region, SUM(amount) AS "
                "total FROM orders GROUP BY region EMIT CHANGES")
        service.execute(text)
        with pytest.raises(PlanError):
            service.execute(text)


class TestCommitsAtAReachedVersion:
    """A view pulls only commits stamped after the version it reached, so
    no commit may land at or below it."""

    TOTALS = ("CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
              "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")

    def test_commit_without_at_after_a_tick_is_pulled(self):
        service = make_service()
        service.execute(self.TOTALS)
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        assert service.tick(1) == ["totals"]
        version = service.apply("orders",
                                inserts=[{"region": "eu", "amount": 2}])
        # Stamped past the view, which already reached the clock.
        assert version == 2 and service.clock == 2
        assert service.tick() == ["totals"]
        assert totals(service) == {"eu": 3}

    def test_commit_without_at_after_install_is_pulled(self):
        service = make_service()
        service.execute(self.TOTALS)  # primed at the clock, version 0
        service.apply("orders", inserts=[{"region": "eu", "amount": 5}])
        service.refresh("totals")
        assert totals(service) == {"eu": 5}

    def test_explicit_commit_at_a_reached_version_is_refused(self):
        service = make_service()
        service.execute(self.TOTALS)
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=1)
        service.tick(1)
        with pytest.raises(StateError, match="never be pulled"):
            service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                          at=1)
        assert service.clock == 1
        assert len(service.read("orders")) == 1
        assert totals(service) == {"eu": 1}

    def test_a_table_nobody_reads_commits_at_the_clock(self):
        service = make_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=4)
        assert service.apply(
            "orders", inserts=[{"region": "eu", "amount": 1}]) == 4
        assert service.apply(
            "orders", inserts=[{"region": "eu", "amount": 1}], at=4) == 4
        assert service.clock == 4


class TestFailedCreateLeavesNoTrace:
    TOP = ("CREATE DYNAMIC TABLE top TARGET_LAG = 0 AS SELECT region "
           "FROM {source} WHERE total > 0 EMIT CHANGES")

    def service(self):
        service = make_service()
        service.execute(
            "CREATE DYNAMIC TABLE mid TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.execute(
            "CREATE DYNAMIC TABLE low TARGET_LAG = 0 AS SELECT region, "
            "total FROM mid WHERE total > 1 EMIT CHANGES")
        service.suspend("mid")
        service.apply("orders", inserts=[{"region": "eu", "amount": 3}],
                      at=1)
        service.tick(1)
        return service

    @staticmethod
    def registered(service):
        return (service.view_names(), service.upstreams(),
                service.catalog.relation_names(),
                sorted(service.memo.entries()), service.effective_lags(),
                {name: service.view(name).version
                 for name in service.view_names()})

    # `low` is not suspended itself, but cannot advance past `mid`.
    @pytest.mark.parametrize("source", ["mid", "low"])
    def test_create_over_a_held_source_is_refused_whole(self, source):
        service = self.service()
        before = self.registered(service)
        for _ in range(2):  # the retry fails the same way, not on the name
            with pytest.raises(StateError, match="suspended"):
                service.execute(self.TOP.format(source=source))
            assert self.registered(service) == before
        assert service.tick() == []

    @pytest.mark.parametrize("source", ["mid", "low"])
    def test_retry_after_resume_succeeds(self, source):
        service = self.service()
        with pytest.raises(StateError):
            service.execute(self.TOP.format(source=source))
        service.resume("mid")
        top = service.execute(self.TOP.format(source=source))
        assert top.version == service.clock
        assert [row["region"] for row, _ in service.read("top").items()] \
            == ["eu"]
        assert service.tick() == ["mid", "low", "top"]

    def test_create_from_plan_rolls_nothing_in_either(self):
        from repro.views import make_scan
        service = self.service()
        before = self.registered(service)
        with pytest.raises(StateError):
            service.create_from_plan(
                "top", make_scan("mid", "m", service.view("mid").schema))
        assert self.registered(service) == before


def _any_plan(service):
    from repro.views import make_scan
    return make_scan("orders", "o", service.catalog.schema_of("orders"))


class TestObsMetrics:
    def test_refresh_metrics_recorded(self):
        import repro.obs as obs
        obs.enable()
        try:
            service = make_service()
            service.execute(
                "CREATE DYNAMIC TABLE totals AS SELECT region, "
                "SUM(amount) AS total FROM orders GROUP BY region "
                "EMIT CHANGES")
            service.apply("orders",
                          inserts=[{"region": "eu", "amount": 1}], at=1)
            service.refresh("totals")
            names = {m["name"] for m in obs.get_registry().snapshot()}
            assert {"views.refresh.lag", "views.refresh.rows",
                    "views.dag.depth"} <= names
        finally:
            obs.disable()


class TestStringAggregates:
    """COUNT/MIN/MAX need no arithmetic, so they work over any orderable
    column — strings included — through inserts and deletes."""

    SQL = ("CREATE DYNAMIC TABLE names AS SELECT team, COUNT(name) AS n, "
           "MIN(name) AS first, MAX(name) AS last FROM people "
           "GROUP BY team EMIT CHANGES")

    def make(self):
        from repro.views import recompute
        service = DynamicTableService()
        service.create_table("people", Schema(["team", "name"]))
        service.apply("people", inserts=[
            {"team": "a", "name": "kim"}, {"team": "a", "name": "ali"},
            {"team": "b", "name": "zoe"}, {"team": "b", "name": None}], at=1)
        view = service.execute(self.SQL)

        def check():
            assert service.read("names") == recompute(
                view.plan, {"people": service.read("people")})
            return {row["team"]: (row["n"], row["first"], row["last"])
                    for row, _ in service.read("names").items()}
        return service, check

    def test_create_over_strings(self):
        _, check = self.make()
        assert check() == {"a": (2, "ali", "kim"), "b": (1, "zoe", "zoe")}

    def test_inserts_and_deletes_over_strings(self):
        service, check = self.make()
        service.apply("people", inserts=[{"team": "a", "name": "abe"},
                                         {"team": "b", "name": "max"}],
                      deletes=[{"team": "a", "name": "kim"}], at=2)
        service.tick(2)
        assert check() == {"a": (2, "abe", "ali"), "b": (2, "max", "zoe")}
        # Deleting the extreme falls back to the next value; deleting the
        # last non-NULL value leaves COUNT 0 and NULL extremes.
        service.apply("people", deletes=[{"team": "a", "name": "abe"},
                                         {"team": "b", "name": "zoe"},
                                         {"team": "b", "name": "max"}], at=3)
        service.tick(3)
        assert check() == {"a": (1, "ali", "ali"), "b": (0, None, None)}

    def test_string_extremes_survive_snapshot_restore(self):
        service, check = self.make()
        image = service.snapshot()
        service.apply("people", deletes=[{"team": "a", "name": "ali"}],
                      at=2)
        service.tick(2)
        service.restore(image)
        service.apply("people", deletes=[{"team": "a", "name": "kim"}],
                      at=2)
        service.tick(2)
        assert check() == {"a": (1, "ali", "ali"), "b": (1, "zoe", "zoe")}


class TestRefusedRefreshLeavesNoTrace:
    def test_retraction_of_an_absent_row_tears_nothing(self, monkeypatch):
        from repro.core.records import Record
        from repro.views import Delta

        service = make_service()
        view = service.execute(
            "CREATE DYNAMIC TABLE totals AS SELECT region, "
            "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
        service.apply("orders", inserts=[{"region": "eu", "amount": 5}],
                      at=1)
        service.tick(1)
        materialized = service.read("totals")
        changelog = list(view.changelog.entries())
        history = list(view.history)
        ghost = Record(view.schema, ("nowhere", 0))
        push = view.handle.push_deltas
        # The real output comes first, so a one-by-one apply would have
        # landed it before meeting the ghost.
        monkeypatch.setattr(view.handle, "push_deltas", lambda incoming: (
            push(incoming) + [Delta(ghost, -1)]))
        service.apply("orders", inserts=[{"region": "us", "amount": 2}],
                      at=2)
        with pytest.raises(StateError):
            service.tick(2)
        assert service.read("totals") == materialized
        assert list(view.changelog.entries()) == changelog
        assert view.history == history
