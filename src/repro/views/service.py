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
* **snapshot-isolated reads** — every refresh files the deltas it
  applied under its version in a bounded history, so
  ``read(name, version=v)`` rolls the current materialisation back to
  the exact contents as of version v.

Every per-tick cost is proportional to the rows the tick changed, never
to the rows a table or view holds: changelogs keep only what an attached
consumer has yet to pull (a view attached later primes from its sources'
current contents, not from a replay), version history keeps deltas, and
the refresh schedule is recomputed only when the DAG or a suspension
changes.

The whole service checkpoints by in-place barrier (``snapshot()`` /
``restore()``, the chaos ``RecoveryManager`` protocol), covering the
operator state inside every view plan — a mid-refresh crash rolls back
to the last checkpoint and the re-run refresh converges to the same
contents.  A checkpoint costs what changed since the previous one:
changelogs write offsets, and a rollback takes the batches appended
since back out of the contents.
"""

from __future__ import annotations

from bisect import bisect_right
from sys import getsizeof
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import repro.obs as obs
from repro.core.errors import PlanError, StateError
from repro.core.records import Record, Schema
from repro.core.relation import Bag
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
from repro.views.delta import Changelog, net_of, net_weights

#: Materialisation versions retained per view for snapshot-isolated reads.
HISTORY_LIMIT = 8


class BaseTable:
    """A versioned base table: current contents plus its CDC changelog."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self.contents = Bag()
        self.changelog = Changelog()
        self.version = -1

    def coerce(self, row: Mapping[str, Any] | Record) -> Record:
        if isinstance(row, Record):
            return row.with_schema(self.schema)
        return Record.from_mapping(self.schema, row)


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
    definition and are refused here.
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
        self.materialized = Bag()
        self.changelog = Changelog()
        self.version = -1
        self.suspended = False
        self.refreshes = 0
        #: bounded history for snapshot reads: each retained version with
        #: the (netted) deltas the refresh that reached it applied
        self.history: list[tuple[int, tuple[Delta, ...]]] = []

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
        [(deltas, _active)] = self._evaluator.run(version)
        return deltas

    def record_version(self, version: int,
                       deltas: tuple[Delta, ...] = ()) -> None:
        self.history.append((version, deltas))
        if len(self.history) > HISTORY_LIMIT:
            del self.history[0]

    def at_version(self, version: int) -> Bag:
        """The contents as of ``version``: the current materialisation
        with every later retained refresh undone, newest first."""
        kept = bisect_right(self.history, version, key=lambda e: e[0])
        if kept == 0:
            raise StateError(
                f"view {self.name!r} has no retained materialisation at "
                f"version {version} (history starts at "
                f"{self.history[0][0] if self.history else 'never'})")
        contents = self.materialized.copy()
        for _, deltas in reversed(self.history[kept:]):
            contents.apply_signed({row: -weight for row, weight in deltas})
        return contents


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
        # as inserts, which is the initial full computation.  Changelogs
        # hold only what attached consumers have yet to pull, so nothing
        # older than this moment is ever asked of them.
        weights = net_weights(view.evaluate(self.clock, {
            source: list(self._contents(source).items())
            for source in view.sources}))
        view.materialized.apply_signed(weights)
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
        table = self._tables.get(name)
        return table.contents if table is not None \
            else self._views[name].materialized

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
        reached — or that precedes the clock — is refused.
        """
        table = self._tables.get(name)
        if table is None:
            raise StateError(f"unknown base table {name!r}"
                             + (" (views are refreshed, not written)"
                                if name in self._views else ""))
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
        deltas = [(table.coerce(row), 1) for row in inserts]
        deltas += [(table.coerce(row), -1) for row in deletes]
        weights = net_weights(deltas)
        netted = net_of(deltas, weights)
        for row, weight in netted:
            if weight < 0 and table.contents.count(row) < -weight:
                raise StateError(
                    f"deleting {-weight} × {row!r} from {name!r} but only "
                    f"{table.contents.count(row)} present")
        table.contents.apply_signed(weights)
        table.changelog.append(version, netted)
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
        lag = target - view.version
        out: tuple[Delta, ...] = ()
        changed = 0
        if incoming:
            # One netting pass over the instant's root deltas: their
            # weights go to the materialisation all or nothing, so a
            # refused refresh leaves contents, changelog and history as
            # they were.
            collected = view.evaluate(target, incoming)
            weights = net_weights(collected)
            view.materialized.apply_signed(weights)
            out = tuple(net_of(collected, weights))
            view.changelog.append(target, out)
            changed = sum(map(abs, weights.values()))
        view.version = target
        view.refreshes += 1
        view.record_version(target, out)
        registry = obs.get_registry()
        registry.gauge("views.refresh.lag", view=view.name).set(lag)
        registry.counter("views.refresh.rows", view=view.name).inc(changed)
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
        """Reclaim changelog history no consumer can pull again.

        Each source's low-water mark is the minimum consumed version
        across the views reading it (a suspended consumer holds the mark
        down, so its catch-up slice survives); a source with no consumers
        uses the clock.  Entries at or below the mark are dropped (see
        :meth:`Changelog.gc`): a view attached later primes from current
        contents, so nobody replays them.  Returns the entries reclaimed
        per table/view name.

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
        """The contents of a table or view.

        For a view, ``version`` selects a snapshot-isolated read at a
        past refresh version (within the retained history); the default
        is the latest materialisation — *as of the view's own version*,
        which may lag the clock by up to its target lag.
        """
        if name in self._tables:
            if version is not None:
                raise StateError("base tables expose current contents "
                                 "only; views retain version history")
            return self._tables[name].contents.copy()
        view = self._require_view(name)
        if version is None:
            return view.materialized.copy()
        return view.at_version(version)

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

        Every changelog writes its length, as the DSMS Store does.
        Contents and materialisations write nothing: only the batches
        their changelogs gain change them, so :meth:`restore` undoes those.
        Each view's operators write the keys they changed
        (:meth:`PhysicalOp.barrier`), its history (at most
        ``HISTORY_LIMIT`` entries) is kept by reference, and the scalars
        are copied.  :attr:`barrier_bytes` is the operators' tallies plus
        the history lists.  Trims that :meth:`gc` put off while the
        previous barrier stood run first.  The recovery image stays
        inside the service, so :meth:`restore` takes the newest barrier
        only.
        """
        self._checkpoint = None
        self.gc()
        copied = 0
        views: dict[str, Any] = {}
        for name, view in self._views.items():
            history = list(view.history)
            plan = []
            for _, op in view.operators():
                plan.append(op.barrier())
                copied += op.barrier_bytes
            copied += getsizeof(history)
            views[name] = {
                "changelog": len(view.changelog),
                "version": view.version,
                "suspended": view.suspended,
                "refreshes": view.refreshes,
                "history": history,
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

        Changelogs are cut back to their lengths then, and the batches cut
        are taken back out of the contents they changed; view operators
        restore only the keys changed since.  A table or view created
        after the barrier is refused, before anything changes.
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
            _take_back(table.contents,
                       table.changelog.truncate(point["changelog"]))
            table.version = point["version"]
        for name, point in payload["views"].items():
            view = self._views[name]
            _take_back(view.materialized,
                       view.changelog.truncate(point["changelog"]))
            view.version = point["version"]
            view.suspended = point["suspended"]
            view.refreshes = point["refreshes"]
            view.history = list(point["history"])
            for _, op in view.operators():
                op.rollback()
        self._schedule = None


def _take_back(contents: Bag, batches: list[tuple[Delta, ...]]) -> None:
    """Undo ``batches``, the netted deltas ``contents`` took since a
    barrier, newest first."""
    for batch in reversed(batches):
        contents.apply_signed({row: -weight for row, weight in batch})
