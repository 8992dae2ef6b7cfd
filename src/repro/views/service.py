"""The dynamic-table service: a cascading materialized-view DAG.

Snowflake-style dynamic tables (paper §5.1's streaming-database pillar):
each view is a standing relational query *materialised* into a table
other queries can scan.  The service owns

* **base tables** — insert/delete via :meth:`DynamicTableService.apply`,
  every commit stamped with a monotone version and logged as CDC deltas;
* **views** — defined in streaming SQL (``CREATE DYNAMIC TABLE``),
  through the unified planner (so the :class:`~repro.plan.SubplanMemo`
  rewrites a new view's subtrees onto already-installed views), compiled
  by :func:`repro.cql.executor.compile_plan` into CQL's physical
  operators over one relation source per scan: a dynamic table is a
  relation-only continuous query whose instant is the view version;
* **the refresh scheduler** — topologically-ordered incremental refresh:
  a view catches up by pulling exactly the changelog slice
  ``(its version, target version]`` from each source, staging it into
  that source's scans and evaluating one instant (Elghandour et al.'s
  delta-driven refresh with affected-keys scoping inside the aggregate
  operator);
* **target lag** — ``target_lag=n`` means "never more than n ticks
  stale"; ``target_lag="downstream"`` derives the obligation from
  consumers; suspend/resume freezes a view (and holds everything built
  on it);
* **snapshot-isolated reads** — every refresh files its version in a
  bounded history, and the view's changelog keeps its batches back to
  the oldest of them, so ``read(name, version=v)`` is the changelog as
  of version v (:meth:`~repro.core.relation.Changelog.as_of`).

Every per-tick cost is proportional to the rows the tick changed, never
to the rows a table or view holds: changelogs keep only what an attached
consumer has yet to pull or a snapshot read can ask for (a view attached
later primes from its sources' current contents, not from a replay), and
the refresh schedule is recomputed only when the DAG or a suspension
changes.

The whole service checkpoints by in-place barrier (``snapshot()`` /
``restore()``, the chaos ``RecoveryManager`` protocol), covering the
operator state inside every view plan — a mid-refresh crash rolls back
to the last checkpoint and the re-run refresh converges to the same
contents.  Every table and view is one
:class:`~repro.core.relation.Changelog` — its contents plus the netted
batches that built them — so a checkpoint costs what changed since the
previous one: changelogs write offsets, and a rollback truncates them,
which takes the batches appended since back out of the contents.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import repro.obs as obs
from repro.core.errors import PlanError, StateError
from repro.core.records import Record, Schema
from repro.core.relation import Bag, Changelog, labelled
from repro.cql.catalog import Catalog
from repro.cql.executor import (
    Agenda,
    Delta,
    InstantEvaluator,
    PhysicalOp,
    compile_plan,
    operators_of,
)
from repro.plan.ir import LogicalOp, RelationScan, RelToStream, walk
from repro.plan.rules import optimize
from repro.plan.sharing import SubplanMemo, absorb_views, view_memo_key
from repro.views.dag import (
    DOWNSTREAM,
    below_suspended,
    consumers_of,
    depth_map,
    effective_lags,
    topo_order,
)

#: Materialisation versions retained per view for snapshot-isolated reads.
HISTORY_LIMIT = 8


class BaseTable:
    """A versioned base table: its contents and CDC changelog are one
    :class:`~repro.core.relation.Changelog` of values tuples."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self.changelog = Changelog()
        self.version = -1


def make_scan(name: str, alias: str | None, schema: Schema) -> RelationScan:
    """A RelationScan over ``name`` with the alias-qualified schema."""
    alias = alias or name
    return RelationScan(name, alias, schema.qualify(alias))


class DynamicTable:
    """One installed view: its compiled plan and refresh bookkeeping.

    ``plan`` is compiled once, by :func:`repro.cql.executor.compile_plan`,
    with a :class:`~repro.cql.executor.RelationSourceOp` per scan.  Its
    first instant primes it: every scan is active, so a global aggregate
    materialises its COUNT = 0 row even over empty sources.  Streams,
    windows and R2S operators have no place in a materialised table's
    definition and are refused here.  The materialisation and its
    changelog are one :class:`~repro.core.relation.Changelog` of values
    tuples laid out as :attr:`schema`, labelled only when read.
    """

    def __init__(self, name: str, plan: LogicalOp,
                 target_lag: int | str | None, catalog: Catalog) -> None:
        root, streams, scans, _, _ = compile_plan(plan, catalog, Agenda())
        if streams or isinstance(plan, RelToStream):
            raise PlanError(
                f"view {name!r} reads a stream or ends in an R2S operator; "
                f"view definitions are relational (scans of tables/views, "
                f"σ, π, γ, δ, ∪/−/∩, ⋈)")
        self.name = name
        self.plan = plan
        self.target_lag = target_lag
        self.schema = plan.schema
        self._root = root
        self._evaluator = InstantEvaluator([root])
        #: Source name → the scans reading it (two for a self-join).
        self._scans = scans
        self.sources = sorted(scans)
        self.changelog = Changelog()
        self.version = -1
        self.suspended = False
        self.refreshes = 0
        #: Rows refreshes have pulled from the sources' changelogs (the
        #: length of each slice), a work tally kept like ``refreshes``.
        self.pulled = 0
        #: The readable window for snapshot reads: the versions of the
        #: last ``HISTORY_LIMIT`` refreshes, oldest first.  Replaced, never
        #: changed in place, so a barrier keeps it by reference.
        self.history: tuple[int, ...] = ()
        #: ``(registry, lag gauge, rows counter)``, bound by
        #: :meth:`refresh_metrics`.
        self._refresh_metrics: tuple[
            obs.MetricsRegistry, obs.Gauge, obs.Counter] | None = None

    def operators(self) -> list[tuple[str, PhysicalOp]]:
        """Every physical operator, depth-first, labelled as
        :meth:`ContinuousQuery.operators` labels them (the positions
        :func:`repro.chaos.install_crash` indexes)."""
        return operators_of(self._root)

    def evaluate(self, version: int,
                 incoming: Mapping[str, list[Delta]]) -> list[Delta]:
        """Stage each source's deltas into its scans and evaluate the
        instant ``version``; returns the root deltas, un-netted.  Every
        operator processes its whole input once per call."""
        for source, deltas in incoming.items():
            for scan in self._scans[source]:
                scan.stage_updates(deltas)
        [deltas] = self._evaluator.run(version)
        return deltas

    def record_version(self, version: int) -> None:
        self.history = (*self.history, version)[-HISTORY_LIMIT:]

    def refresh_metrics(self) -> tuple[obs.Gauge, obs.Counter]:
        """This view's ``views.refresh.lag`` gauge and
        ``views.refresh.rows`` counter in the live registry: looked up
        once, and again only after :func:`repro.obs.reset` has replaced
        the registry."""
        registry = obs.get_registry()
        bound = self._refresh_metrics
        if bound is None or bound[0] is not registry:
            bound = self._refresh_metrics = (
                registry,
                registry.gauge("views.refresh.lag", view=self.name),
                registry.counter("views.refresh.rows", view=self.name))
        return bound[1], bound[2]


class _Schedule(NamedTuple):
    """What ``tick`` needs from the DAG; rebuilt only after DDL, suspend,
    resume or restore."""

    order: list[str]
    lags: dict[str, int | None]
    blocked: set[str]
    consumers: dict[str, list[str]]


class DynamicTableService:
    """Base tables + dynamic tables + the cascading refresh scheduler."""

    def __init__(self) -> None:
        self.clock = 0
        self.catalog = Catalog()  # schema registry for SQL lowering
        self.memo = SubplanMemo()
        self._tables: dict[str, BaseTable] = {}
        self._views: dict[str, DynamicTable] = {}
        self._upstreams: dict[str, tuple[str, ...]] = {}
        self._schedule: _Schedule | None = None
        #: The newest barrier's payload (see :meth:`snapshot`); while one
        #: stands, :meth:`gc` trims nothing.
        self._checkpoint: dict[str, Any] | None = None
        #: Bytes the newest barrier allocated; None before the first.
        self.barrier_bytes: int | None = None

    # -- registration -----------------------------------------------------------

    def create_table(self, name: str,
                     schema: Schema | Sequence[str]) -> BaseTable:
        """Register a base table (insert/delete via :meth:`apply`)."""
        if not isinstance(schema, Schema):
            schema = Schema(tuple(schema))
        self.catalog.register_relation(name, schema)  # rejects duplicates
        table = BaseTable(name, schema)
        self._tables[name] = table
        return table

    def execute(self, text: str) -> DynamicTable:
        """Run a ``CREATE DYNAMIC TABLE ... [TARGET_LAG ...] AS SELECT``."""
        from repro.sql.ast import CreateDynamicTable
        from repro.sql.lower import lower_statement
        from repro.sql.parser import parse_statement

        statement = parse_statement(text)
        if not isinstance(statement, CreateDynamicTable):
            raise PlanError(
                "execute() takes CREATE DYNAMIC TABLE statements; use "
                "apply()/read() for data access")
        logical = lower_statement(statement.select, self.catalog)
        target_lag = (statement.target_lag
                      if statement.target_lag is not None else 0)
        return self.create_from_plan(statement.name, logical,
                                     target_lag=target_lag)

    def create_from_plan(self, name: str, plan: LogicalOp,
                         target_lag: int | str | None = 0) -> DynamicTable:
        """Install a view from a logical plan (any frontend's lowering)."""
        if target_lag is not None and target_lag != DOWNSTREAM and (
                not isinstance(target_lag, int) or target_lag < 0):
            raise PlanError(f"bad target_lag {target_lag!r}: integer >= 0, "
                            f"{DOWNSTREAM!r} or None")
        optimized = optimize(plan)
        # Route the definition through the sharing memo: any subtree that
        # matches an installed view's plan becomes a scan of that view,
        # so cascades share materialised work instead of recomputing it.
        self.memo.start_compile()
        absorbed = absorb_views(optimized, self.memo)
        for node in walk(absorbed):
            if isinstance(node, RelationScan) and \
                    node.name not in self._tables and \
                    node.name not in self._views:
                raise PlanError(f"view {name!r} scans unknown table "
                                f"{node.name!r}")
        if self.catalog.is_relation(name) or self.catalog.is_stream(name):
            raise PlanError(f"source {name!r} is already registered")
        view = DynamicTable(name, absorbed, target_lag, self.catalog)
        # Everything that can fail runs before anything is registered, so
        # a refused create leaves no trace.  Sources are brought to the
        # present first (a suspended one refuses here) ...
        self._require_advanceable(view, self.clock)
        for source in view.sources:
            if source in self._views:
                self._refresh_to(self._views[source], self.clock)
        # ... then the plan's first instant takes their current contents
        # as inserts, which is the initial full computation, committed at
        # the creation version like any refresh.  Changelogs hold only
        # what attached consumers have yet to pull, so nothing older than
        # this moment is ever asked of them.
        weights = view.changelog.commit(self.clock, view.evaluate(
            self.clock, {source: list(self._contents(source).items())
                         for source in view.sources}))
        view.version = self.clock
        view.refreshes = 1
        view.record_version(self.clock)

        self.catalog.register_relation(name, view.schema)
        self.memo.publish(view_memo_key(optimized), (name, view.schema))
        self.memo.publish(view_memo_key(absorbed), (name, view.schema))
        self.memo.finish_compile()
        self._views[name] = view
        self._upstreams[name] = tuple(view.sources)
        self._schedule = None
        registry = obs.get_registry()
        registry.gauge("views.dag.depth", view=name).set(
            depth_map(self._upstreams)[name])
        registry.counter("views.refresh.rows", view=name).inc(
            sum(map(abs, weights.values())))
        return view

    def _contents(self, name: str) -> Bag:
        holder = self._tables.get(name) or self._views[name]
        return holder.changelog.contents

    def _require_advanceable(self, view: DynamicTable, target: int) -> None:
        """Raise unless ``view`` can be brought to ``target``: no
        suspended view among the upstreams that would have to advance."""
        if view.version >= target:
            return
        for source in view.sources:
            upstream = self._views.get(source)
            if upstream is None:
                continue
            if upstream.suspended:
                raise StateError(
                    f"view {view.name!r} reads suspended view "
                    f"{upstream.name!r}; resume it first")
            self._require_advanceable(upstream, target)

    # -- base-table writes ------------------------------------------------------

    def apply(self, name: str,
              inserts: Iterable[Mapping[str, Any] | Record] = (),
              deletes: Iterable[Mapping[str, Any] | Record] = (),
              at: int | None = None) -> int:
        """Commit a batch of inserts/deletes; returns the commit version.

        The commit version is ``at`` when given, else the current clock;
        the service clock advances to it.  A view reading the table pulls
        only commits stamped after the version it has reached, so a
        commit must land past the newest such view: without ``at`` it is
        stamped there (one past that view's version, when the clock does
        not already exceed it); an explicit ``at`` that a reading view has
        reached — or that precedes the clock — is refused.  Every row is
        validated (the table's generated coercer) before anything is
        committed.
        """
        table = self._tables.get(name)
        if table is None:
            raise StateError(f"unknown base table {name!r}"
                             + (" (views are refreshed, not written)"
                                if name in self._views else ""))
        coerce = self.catalog.relation(name).coerce
        deltas = [(coerce(row), 1) for row in inserts]
        deltas += [(coerce(row), -1) for row in deletes]
        return self._commit(table, deltas, at)

    def _commit(self, table: BaseTable, deltas: list[Delta],
                at: int | None = None) -> int:
        """:meth:`apply` for deltas already validated into values tuples
        of the table's schema: the DSMS feeds a stream's view table
        through here with the rows its ``ingest`` validated."""
        name = table.name
        version = self.clock if at is None else at
        if version < self.clock:
            raise StateError(f"commit at version {version} precedes the "
                             f"service clock {self.clock}")
        pulled = max((self._views[reader].version for reader
                      in self._scheduled().consumers.get(name, ())),
                     default=version - 1)
        if version <= pulled:
            if at is not None:
                raise StateError(
                    f"commit to {name!r} at version {version} would never "
                    f"be pulled: a view reading it has reached version "
                    f"{pulled}")
            version = pulled + 1
        table.changelog.commit(version, deltas)
        table.version = version
        self.clock = version
        return version

    # -- refresh ----------------------------------------------------------------

    def refresh(self, name: str, to: int | None = None) -> int:
        """Bring ``name`` (and, recursively, its upstream views) up to
        version ``to`` (default: the service clock).  Returns the rows
        changed in the view's materialisation."""
        view = self._require_view(name)
        if view.suspended:
            raise StateError(f"view {name!r} is suspended")
        target = self.clock if to is None else to
        self._require_advanceable(view, target)
        return self._refresh_to(view, target)

    def _refresh_to(self, view: DynamicTable, target: int) -> int:
        if view.version >= target:
            return 0
        incoming: dict[str, list[Delta]] = {}
        for source in view.sources:
            upstream = self._views.get(source)
            if upstream is not None:
                self._refresh_to(upstream, target)
                log = upstream.changelog
            else:
                log = self._tables[source].changelog
            slice_ = log.between(view.version, target)
            if slice_:
                incoming[source] = slice_
                view.pulled += len(slice_)
        lag = target - view.version
        changed = 0
        if incoming:
            # The commit is all or nothing, so a refused refresh leaves
            # contents, changelog and history as they were.
            weights = view.changelog.commit(
                target, view.evaluate(target, incoming))
            changed = sum(map(abs, weights.values()))
        view.version = target
        view.refreshes += 1
        view.record_version(target)
        lag_gauge, rows = view.refresh_metrics()
        lag_gauge.set(lag)
        rows.inc(changed)
        return changed

    def tick(self, to: int | None = None) -> list[str]:
        """Advance the clock and refresh every view whose target lag is
        (or would fall) overdue; returns the views refreshed, in
        dependency order.  Suspended views — and views anywhere below a
        suspended ancestor — hold their current version."""
        if to is not None and to < self.clock:
            raise StateError(f"tick to version {to} precedes the service "
                             f"clock {self.clock}")
        self.clock = self.clock + 1 if to is None else to
        schedule = self._scheduled()
        refreshed = []
        for name in schedule.order:
            view = self._views[name]
            if view.suspended or name in schedule.blocked:
                continue
            lag = schedule.lags[name]
            if lag is None:
                continue  # no freshness obligation: on-demand only
            if self.clock - view.version >= lag:
                self._refresh_to(view, self.clock)
                refreshed.append(name)
        self.gc()
        return refreshed

    def _scheduled(self) -> _Schedule:
        if self._schedule is None:
            self._schedule = _Schedule(
                topo_order(self._upstreams),
                self.effective_lags(),
                below_suspended(
                    self._upstreams,
                    {name for name, view in self._views.items()
                     if view.suspended}),
                consumers_of(self._upstreams))
        return self._schedule

    def gc(self) -> dict[str, int]:
        """Reclaim changelog history no consumer can pull again and no
        snapshot read can ask for.

        Each source's low-water mark is the minimum consumed version
        across the views reading it (a suspended consumer holds the mark
        down, so its catch-up slice survives); a source with no consumers
        uses the clock.  A view's mark is also at most its oldest
        readable version, so :meth:`read` at any version in its history
        undoes only batches still held.  Entries at or below the mark are
        dropped (see :meth:`Changelog.gc`): a view attached later primes
        from current contents, so nobody replays them.  Returns the
        entries reclaimed per table/view name.

        While a barrier stands, trimming waits for the next one
        (:meth:`snapshot`): a rollback to it takes back every entry
        appended since, and consumers rolled back with it pull again what
        they had pulled.  A service that never checkpoints trims at every
        call.
        """
        if self._checkpoint is not None:
            return {}
        consumers = self._scheduled().consumers
        reclaimed: dict[str, int] = {}
        for name, holder in (*self._tables.items(), *self._views.items()):
            if not len(holder.changelog):
                continue
            mark = min((self._views[reader].version
                        for reader in consumers.get(name, ())),
                       default=self.clock)
            if name in self._views:
                mark = min(mark, holder.history[0])
            count = holder.changelog.gc(mark)
            if count:
                reclaimed[name] = count
        return reclaimed

    def effective_lags(self) -> dict[str, int | None]:
        """Per-view lag obligations after ``downstream`` propagation."""
        return effective_lags(
            self._upstreams,
            {name: view.target_lag for name, view in self._views.items()})

    # -- suspend / resume -------------------------------------------------------

    def suspend(self, name: str) -> None:
        self._require_view(name).suspended = True
        self._schedule = None

    def resume(self, name: str) -> None:
        self._require_view(name).suspended = False
        self._schedule = None

    # -- reads ------------------------------------------------------------------

    def read(self, name: str, version: int | None = None) -> Bag:
        """The contents of a table or view, labelled with its schema.

        For a view, ``version`` selects a snapshot-isolated read at a
        past refresh version (within the retained history); the default
        is the latest materialisation — *as of the view's own version*,
        which may lag the clock by up to its target lag.
        """
        if name in self._tables:
            if version is not None:
                raise StateError("base tables expose current contents "
                                 "only; views retain version history")
            table = self._tables[name]
            return labelled(table.changelog.contents, table.schema)
        view = self._require_view(name)
        if version is None:
            return labelled(view.changelog.contents, view.schema)
        if version < view.history[0]:
            raise StateError(
                f"view {name!r} has no retained materialisation at "
                f"version {version} (history starts at {view.history[0]})")
        # The changelog keeps every batch after the window's oldest
        # version (see :meth:`gc`).
        return labelled(view.changelog.as_of(version), view.schema)

    def view(self, name: str) -> DynamicTable:
        return self._require_view(name)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def upstreams(self) -> dict[str, tuple[str, ...]]:
        return dict(self._upstreams)

    def _require_view(self, name: str) -> DynamicTable:
        view = self._views.get(name)
        if view is None:
            raise StateError(f"unknown view {name!r}")
        return view

    # -- checkpointing (chaos RecoveryManager protocol) -------------------------

    def snapshot(self) -> dict[str, Any]:
        """A barrier: move the service's recovery point to now and return
        what it wrote, costing what changed since the previous barrier.

        Every changelog writes its length, as a standing query's does:
        contents change only through the batches their changelogs gain,
        so :meth:`restore` truncates those back out.
        Each view's operators write the keys they changed
        (:meth:`PhysicalOp.barrier`), its readable window (at most
        ``HISTORY_LIMIT`` versions, a tuple) is kept by reference, and
        the scalars are copied.  :attr:`barrier_bytes` is the operators'
        tallies.  Trims that :meth:`gc` put off while the
        previous barrier stood run first.  The recovery image stays
        inside the service, so :meth:`restore` takes the newest barrier
        only.
        """
        self._checkpoint = None
        self.gc()
        copied = 0
        views: dict[str, Any] = {}
        for name, view in self._views.items():
            plan = []
            for _, op in view.operators():
                plan.append(op.barrier())
                copied += op.barrier_bytes
            views[name] = {
                "changelog": len(view.changelog),
                "version": view.version,
                "suspended": view.suspended,
                "refreshes": view.refreshes,
                "pulled": view.pulled,
                "history": view.history,
                "plan": plan,
            }
        self._checkpoint = {
            "clock": self.clock,
            "tables": {name: {"changelog": len(table.changelog),
                              "version": table.version}
                       for name, table in self._tables.items()},
            "views": views,
        }
        self.barrier_bytes = copied
        return self._checkpoint

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll back in place to the newest barrier (``payload`` is what
        :meth:`snapshot` returned for it); repeatable.

        Changelogs are truncated to their lengths then, which takes the
        batches cut back out of the contents; view operators restore only
        the keys changed since.  A table or view created after the
        barrier is refused, before anything changes.
        """
        if payload is None or payload is not self._checkpoint:
            raise StateError(
                "only the newest checkpoint can be restored: the service "
                "keeps one recovery image")
        created = sorted((self._tables.keys() - payload["tables"].keys())
                         | (self._views.keys() - payload["views"].keys()))
        if created:
            raise StateError(
                f"tables or views {created} were created after the "
                f"checkpoint being restored")
        self.clock = payload["clock"]
        for name, point in payload["tables"].items():
            table = self._tables[name]
            table.changelog.truncate(point["changelog"])
            table.version = point["version"]
        for name, point in payload["views"].items():
            view = self._views[name]
            view.changelog.truncate(point["changelog"])
            view.version = point["version"]
            view.suspended = point["suspended"]
            view.refreshes = point["refreshes"]
            view.pulled = point["pulled"]
            view.history = point["history"]
            for _, op in view.operators():
                op.rollback()
        self._schedule = None
