"""The DSMS engine: Figure 3 made executable.

Wires the four architectural components (Stream in/out, Store, Scratch,
Throw) around the incremental CQL executor, adds bounded input queues, a
pluggable scheduler and load shedding — the full anatomy of a
STREAM/TelegraphCQ-era Data Stream Management System at laptop scale.

Usage::

    dsms = DSMSEngine()
    dsms.register_stream("Obs", schema)
    handle = dsms.register_query("hot", "SELECT ISTREAM id FROM Obs [Now] "
                                         "WHERE temp > 30")
    dsms.ingest("Obs", {"id": 1, "temp": 35}, t=0)
    dsms.run_until_idle()
    handle.store_state()          # the Store's current answer
    dsms.throw.discarded          # tuples that passed through the Throw
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Iterable, Mapping

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.errors import PlanError, StateError
from repro.core.errors import TimeError as CoreTimeError
from repro.core.records import Record, Schema, trusted_record
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.time import MIN_TIMESTAMP, Timestamp
from repro.cql.catalog import Catalog
from repro.cql.engine import CQLEngine
from repro.cql.executor import (
    ContinuousQuery,
    Emission,
    PhysicalOp,
    StreamSourceOp,
)
from repro.dsms.components import Scratch, Store, Throw
from repro.dsms.metrics import QueryMetrics
from repro.dsms.queues import InputQueue
from repro.dsms.scheduler import RoundRobinScheduler, Scheduler
from repro.dsms.shedding import NoShedding, Shedder
from repro.plan.batching import decide_batch_size
from repro.plan.ir import LogicalOp
from repro.views.service import DynamicTableService


def _stateful_ops(root: PhysicalOp) -> list[tuple[str, Any]]:
    """Walk a physical tree collecting operators with state to account."""
    out: list[tuple[str, Any]] = []

    def visit(op: PhysicalOp) -> None:
        if hasattr(op, "state_size"):
            out.append((type(op).__name__, op))
        for child in op.children:
            visit(child)

    visit(root)
    return out


class QueryHandle:
    """One registered standing query inside the DSMS.

    ``track_state=False`` is used for members of a shared plan group:
    their operator state overlaps with other members', so Scratch
    registration and Throw (eviction) accounting happen once at the
    group level instead of per member.
    """

    def __init__(self, name: str, query: ContinuousQuery,
                 queue: InputQueue, shedder: Shedder,
                 scratch: Scratch, throw: Throw,
                 wm_clock: obs.WatermarkClock | None = None,
                 track_state: bool = True,
                 batch_size: int | None = 1) -> None:
        self.name = name
        self.query = query
        self.queue = queue
        self.shedder = shedder
        #: NoShedding cannot refuse: its handle skips the policy call and
        #: only keeps its books.
        self._admits_all = type(shedder) is NoShedding
        #: Micro-batch cap: a service quantum drains the queue's head
        #: instant — up to this many same-timestamp tuples, all of them
        #: for ``None`` — into one ``push_batch`` (1 = per-tuple).
        self.batch_size = None if batch_size is None else max(1, batch_size)
        self._scratch = scratch
        self._throw = throw
        self._wm_clock = wm_clock
        self.metrics = QueryMetrics()
        #: Wall time spent servicing this query's tuples (accumulated
        #: only while obs is enabled; the per-operator split lives in the
        #: query's executor accounting).
        self.busy_seconds = 0.0
        #: Live-rescale history: one RescaleReport per completed
        #: migration (``DSMSEngine.rescale_query`` appends here).
        self.rescales: list = []
        #: The adaptivity controller driving this query when the engine
        #: runs with ``autoscale=`` (None otherwise / when ineligible).
        self.autoscaler = None
        self._sources: list[StreamSourceOp] = []
        if track_state:
            self.bind_operators()

    def bind_operators(self) -> None:
        """(Re)open this query's Scratch account over its current physical
        operators and re-base eviction accounting on their sources.

        Called at registration and again after a live rescale, when the
        old width's operators are dead and new ones hold the state.  The
        account covers every partition of a fissioned query — fissioned
        state is still this query's state.
        """
        self._scratch.unregister(self.name)
        self._sources = []
        for label, op in _stateful_ops(self.query._root):
            self._scratch.register(self.name, f"{self.name}/{label}", op)
            if isinstance(op, StreamSourceOp):
                self._sources.append(op)

    @property
    def pending(self) -> int:
        """Backlog size — what the scheduler looks at."""
        return len(self.queue)

    def reads_stream(self, name: str) -> bool:
        return name in self.query._stream_sources

    def offer(self, arrival: tuple[str, tuple], t: Timestamp) -> bool:
        """Admission control + enqueue of a ``(stream name, values)``
        arrival.  Returns False when shed/dropped.  A policy decides on
        the row as a Record of the stream's schema, built for it alone."""
        self.metrics.ingested += 1
        if self._admits_all:
            self.shedder.admitted += 1
        elif not self.shedder.admit(trusted_record(
                self.query.catalog.stream(arrival[0]).schema, arrival[1]),
                self.queue):
            self.metrics.shed += 1
            return False
        if not self.queue.offer(arrival, t):
            self.metrics.queue_dropped += 1
            # The policy said yes but the queue bounced the tuple: tell the
            # shedder so shed_fraction keeps reporting the true drop rate.
            self.shedder.record_queue_drop()
            return False
        if obs._STATE.enabled:
            obs.get_registry().gauge(
                "dsms.queue.depth", query=self.name).observe(len(self.queue))
        return True

    def service_one(self) -> bool:
        """Service one scheduling quantum.  Returns False when idle.

        A quantum drains the queue's head instant, up to ``batch_size``
        tuples of it (all of them when ``batch_size`` is None), into ONE
        atomic instant of the query, fed the values tuples ``ingest``
        validated — one instant evaluation, which the query commits to
        its change-log (the Store's history) as at most one batch.
        With ``batch_size=1`` a quantum is one tuple.
        """
        run = self.queue.poll_instant(self.batch_size)
        if run is None:
            return False
        if obs._STATE.enabled:
            started = _perf()
            with obs.get_tracer().span("dsms.service",
                                       query=self.name) as span:
                self._service(*run, span)
            self.busy_seconds += _perf() - started
        else:
            self._service(*run, None)
        return True

    def _service(self, t: Timestamp, values: list, span) -> None:
        arrivals: dict[str, list[tuple]] = {}
        for stream_name, row in values:
            rows = arrivals.get(stream_name)
            if rows is None:
                arrivals[stream_name] = [row]
            else:
                rows.append(row)
        before = self._evictions()
        emitted = self.query._feed(t, arrivals)
        self._account_throw(before, t)
        metrics = self.metrics
        metrics.processed += len(values)
        metrics.emitted += len(emitted)
        waits = self.queue.polled_waits
        for run in waits:
            metrics.queue_wait.observe_run(
                len(run), len(run) * (run[0] + run[-1]) // 2,
                run[0], run[-1])
        metrics.scratch.observe(self._scratch.settle(self.name))
        if span is not None:
            span.add(records=len(values), emitted=len(emitted))
            wait_hist = obs.get_registry().histogram(
                "dsms.queue.wait", query=self.name)
            for run in waits:
                for wait in run:
                    wait_hist.observe(wait)
            if self._wm_clock is not None:
                for stream_name in arrivals:
                    self._wm_clock.observe_processed(stream_name, t)

    def advance_to(self, t: Timestamp) -> None:
        """Advance event time (window expirations) with no new data."""
        before = self._evictions()
        self.query.advance_to(t)
        self._account_throw(before, t)
        self._scratch.settle(self.name)

    def _evictions(self) -> int:
        return sum(op.evicted for op in self._sources)

    def _account_throw(self, before: int, t: Timestamp) -> None:
        # Every tuple evicted from a window buffer passes through the Throw.
        self._throw.discard_many(self._evictions() - before, t)

    def emissions(self) -> list[Emission]:
        """Every element the query emitted, registration included (a
        copy of the query's own emissions)."""
        return self.query.emissions()

    def store_state(self) -> Bag:
        """The Store's current answer for this query: a new Bag of
        Records of its output schema."""
        return self.query.current()

    def store_history(self) -> TimeVaryingRelation:
        """The Store's history of this query, built now from the query's
        change-log (see :meth:`ContinuousQuery.as_relation`)."""
        return self.query.as_relation()


class SharedGroupHandle:
    """The scheduling unit for a shared plan group (multi-query sharing).

    Where isolated queries each own a queue and are serviced separately,
    a shared group IS one execution unit: one bounded input queue, one
    service path, one group instant that advances every member.  The
    scheduler sees this handle like any other; servicing one tuple runs
    the group instant and then fans results out to the member
    :class:`QueryHandle` objects' metrics.

    Scratch and Throw accounting happen here over the group's *distinct*
    operators, so shared state is counted once — the honest number the
    sharing benchmark reports.  The group is one Scratch owner: its
    account is settled once per group instant, and every member that
    was serviced observes that one total.
    """

    def __init__(self, group, queue: InputQueue, scratch: Scratch,
                 throw: Throw,
                 wm_clock: obs.WatermarkClock | None = None) -> None:
        self.name = "<shared-group>"
        self.group = group
        self.queue = queue
        self._scratch = scratch
        self._throw = throw
        self._wm_clock = wm_clock
        self.busy_seconds = 0.0
        self.members: list[QueryHandle] = []
        self._registered_ops: set[int] = set()
        #: The group's distinct window sources (eviction accounting);
        #: None until first needed and after every ``add_member``.
        self._sources: list[StreamSourceOp] | None = None

    def add_member(self, handle: QueryHandle) -> None:
        self.members.append(handle)
        self._sources = None
        for label, op in _stateful_ops(handle.query._root):
            if id(op) not in self._registered_ops:
                self._registered_ops.add(id(op))
                self._scratch.register(self.name, f"shared/{label}", op)

    @property
    def pending(self) -> int:
        return len(self.queue)

    def reads_stream(self, name: str) -> bool:
        return self.group.reads_stream(name)

    def offer(self, arrival: tuple[str, tuple], t: Timestamp) -> bool:
        """Enqueue once for the whole group (members never shed)."""
        readers = [h for h in self.members if h.reads_stream(arrival[0])]
        for handle in readers:
            handle.metrics.ingested += 1
        if not self.queue.offer(arrival, t):
            for handle in readers:
                handle.metrics.queue_dropped += 1
            return False
        if obs._STATE.enabled:
            obs.get_registry().gauge(
                "dsms.queue.depth", query=self.name).observe(len(self.queue))
        return True

    def service_one(self) -> bool:
        run = self.queue.poll_instant(1)
        if run is None:
            return False
        started = _perf() if obs._STATE.enabled else None
        t, ((stream_name, values),) = run
        before = self._evictions()
        self.group._feed(t, {stream_name: [values]})
        self._account_throw(before, t)
        if started is not None:
            if self._wm_clock is not None:
                self._wm_clock.observe_processed(stream_name, t)
            self.busy_seconds += _perf() - started
        self._deliver(stream_name)
        return True

    def advance_to(self, t: Timestamp) -> None:
        before = self._evictions()
        self.group.advance_to(t)
        self._account_throw(before, t)
        self._deliver()

    def _deliver(self, stream_name: str | None = None) -> None:
        """Count one group instant (one tuple of ``stream_name``, or a pure
        time advance) into the member handles' metrics."""
        occupancy = self._scratch.settle(self.name)
        for handle in self.members:
            handle.metrics.emitted += len(handle.query._drain_undelivered())
            if stream_name is not None and handle.reads_stream(stream_name):
                handle.metrics.processed += 1
                handle.metrics.scratch.observe(occupancy)

    def _evictions(self) -> int:
        if self._sources is None:
            self._sources = [op for op in self.group.distinct_operators()
                             if isinstance(op, StreamSourceOp)]
        return sum(op.evicted for op in self._sources)

    def _account_throw(self, before: int, t: Timestamp) -> None:
        self._throw.discard_many(self._evictions() - before, t)


class DSMSEngine:
    """The Figure 3 Data Stream Management System."""

    def __init__(self, scheduler: Scheduler | None = None,
                 queue_capacity: int = 1024,
                 keep_thrown_tuples: bool = False,
                 sharing: bool = False,
                 recovery_interval: int | None = None,
                 max_restarts: int = 3,
                 batch_size: int | None = None,
                 autoscale: Any = None) -> None:
        self._cql = CQLEngine()
        #: Engine-default micro-batch cap: a service quantum drains up
        #: to this many same-timestamp tuples into one atomic instant
        #: evaluation; ``None`` (the default) drains the whole head
        #: instant.  Per query the planner's batching pass resolves it
        #: (see :func:`repro.plan.batching.decide_batch_size`): a
        #: relation-output query keeps it, so by default it evaluates
        #: each instant once; a stream-output query is clamped to one
        #: tuple per quantum whenever batching would change its
        #: *emissions*.  An explicit ``register_query(batch_size=...)``
        #: overrides the clamp (state-exact opt-in).
        self.batch_size = None if batch_size is None else max(1, batch_size)
        #: Multi-query plan sharing: queries registered with the default
        #: shedder and queue capacity are compiled into one communal
        #: :class:`repro.cql.shared.SharedGroup` (common subplans share
        #: physical operators and window state) and serviced as one
        #: scheduling unit.
        self.sharing = sharing
        self.scheduler = scheduler or RoundRobinScheduler()
        self.queue_capacity = queue_capacity
        self.store = Store()
        self.scratch = Scratch()
        self.throw = Throw(keep_tuples=keep_thrown_tuples)
        #: Schedulable units: isolated QueryHandles + at most one
        #: SharedGroupHandle.  ``_handles`` stays the per-query list the
        #: public API (queries, metrics_table) exposes.
        self._units: list[QueryHandle | SharedGroupHandle] = []
        #: Stream name -> the units reading it, filled on first arrival;
        #: emptied whenever the units or a shared group's members change.
        self._readers: dict[str, list[QueryHandle | SharedGroupHandle]] = {}
        self._handles: list[QueryHandle] = []
        self._by_name: dict[str, QueryHandle] = {}
        self._group_handle: SharedGroupHandle | None = None
        # Event-time lag accounting, published under dsms.watermark.*.
        self.watermark_clock = obs.WatermarkClock(
            obs.get_registry(), prefix="dsms.watermark")
        #: Per-source stall detection (fed on arrival while obs is on):
        #: a registered stream whose arrivals fall far behind the global
        #: arrival tick is flagged — the crash-recovered-source signal.
        self.stall_detector = _profile.StallDetector()
        #: Crash recovery (``recovery_interval`` arrivals per checkpoint):
        #: the engine keeps an arrival log and an incremental recovery
        #: image (see :meth:`snapshot`); a recoverable failure raised
        #: while servicing or advancing time rolls every query and the
        #: Store back to the newest checkpoint, clears the queues, and
        #: re-offers the logged suffix — restore-and-replay at DSMS
        #: scope.  Incompatible with plan sharing: a shared group's
        #: interleaved operator state has no per-query snapshot.
        self.recovery: "RecoveryManager | None" = None
        self._arrival_log: list[tuple] = []
        #: The newest barrier's payload (see :meth:`snapshot`).
        self._barrier: dict[str, Any] | None = None
        #: Bytes the newest barrier allocated (see :meth:`snapshot`); None
        #: before the first.
        self.barrier_bytes: int | None = None
        #: Dynamic tables hosted alongside standing queries (§5.1's
        #: streaming-database pillar): the refresh scheduler runs inside
        #: the engine's time hooks — ``advance_time`` ticks the view
        #: clock and ``run_until_idle`` settles overdue views.
        self.views = DynamicTableService()
        #: Streams materialised into views base tables, with their
        #: tables: every ingested tuple also commits as a CDC insert.
        self._view_fed: dict[str, Any] = {}
        #: Adaptivity: ``autoscale=True`` enables the default
        #: :class:`repro.plan.adaptive.AdaptivePolicy`; passing a policy
        #: uses it as given.  Each eligible (key-partitionable,
        #: non-shared) query gets its own hysteresis controller, polled
        #: once per ``run_until_idle`` against the pre-drain backlog.
        self._autoscale_policy = None
        if autoscale:
            from repro.plan.adaptive import AdaptivePolicy
            self._autoscale_policy = (AdaptivePolicy()
                                      if autoscale is True else autoscale)
        self._autoscale_ineligible: set[str] = set()
        if recovery_interval is not None:
            if self.sharing:
                raise PlanError(
                    "crash recovery does not support plan sharing: shared "
                    "operator state cannot be snapshotted per query")
            from repro.chaos.recovery import RecoveryManager
            self.recovery = RecoveryManager(
                self, interval=recovery_interval,
                max_retries=max_restarts, backoff_base=0.0,
                label="dsms")

    @property
    def catalog(self) -> Catalog:
        return self._cql.catalog

    # -- registration ---------------------------------------------------------

    def register_stream(self, name: str, schema: Schema) -> None:
        self._cql.register_stream(name, schema)
        self.stall_detector.register(name)

    def register_relation(self, name: str, schema: Schema,
                          rows: Iterable[Mapping[str, Any]] = ()) -> None:
        self._cql.register_relation(name, schema, rows)

    def register_query(self, name: str, text: str,
                       shedder: Shedder | None = None,
                       queue_capacity: int | None = None,
                       parallelism: int | None = None,
                       batch_size: int | None = None) -> QueryHandle:
        """Register a standing query under ``name`` (Figure 1: issued once,
        active until cancelled).

        ``parallelism=N`` asks for key-partitioned execution; the planner
        clamps unpartitionable plans back to a serial query (see
        :meth:`repro.cql.engine.CQLEngine.register_query`).

        ``batch_size=None`` (default) inherits the engine's batch cap as
        the planner's batching pass resolves it: a relation-output query
        is serviced one instant per quantum (under the engine's cap, if
        it set one); a stream-output query is clamped to one tuple per
        quantum when batching would change its output stream.  An
        explicit integer is taken as-is: the caller opts into
        state-exact (but not emission-exact) batching — the maintained
        Store answer is identical, intermediate per-arrival emissions
        may net away."""
        if name in self._by_name:
            raise PlanError(f"query name {name!r} already registered")
        # Planned once: the batching pass and the compiler share the plan.
        plan = self._cql.plan(text)
        if batch_size is None:
            batch_size = decide_batch_size(plan, self.batch_size)
        wants_fission = parallelism is not None and parallelism > 1
        if self.sharing and shedder is None and queue_capacity is None \
                and not wants_fission:
            # Default-policy queries join the communal shared plan group;
            # a custom shedder or queue would need per-query admission,
            # which a shared queue cannot express, so those stay isolated.
            # Fissioned queries also stay isolated: sharing interleaves
            # operator state that partitioning must keep disjoint.
            return self._register_shared(name, plan)
        query = self._cql.register_plan(plan, parallelism=parallelism)
        query.start()
        handle = QueryHandle(
            name, query,
            InputQueue(queue_capacity or self.queue_capacity),
            shedder or NoShedding(),
            self.scratch, self.throw,
            wm_clock=self.watermark_clock,
            batch_size=batch_size)
        self._units.append(handle)
        self._readers.clear()
        self._handles.append(handle)
        self._by_name[name] = handle
        self.store.register(name, query.changelog, query.output_schema)
        if self.recovery is not None:
            # Re-baseline so the new query is covered by the recovery
            # point.  Registration is expected at quiescence (queues
            # drained); queued arrivals are in the log and re-offered on
            # rollback anyway.
            self.recovery.checkpoint(len(self._arrival_log))
        return handle

    def _register_shared(self, name: str, plan: LogicalOp) -> QueryHandle:
        if self._group_handle is None:
            from repro.cql.shared import SharedGroup
            group = SharedGroup(self.catalog)
            self._group_handle = SharedGroupHandle(
                group, InputQueue(self.queue_capacity), self.scratch,
                self.throw, wm_clock=self.watermark_clock)
            self._units.append(self._group_handle)
        group = self._group_handle.group
        query = self._cql.register_plan(plan, shared=group)
        query.start()
        handle = QueryHandle(
            name, query, self._group_handle.queue, NoShedding(),
            self.scratch, self.throw,
            wm_clock=self.watermark_clock, track_state=False)
        self._group_handle.add_member(handle)
        self._readers.clear()
        self._handles.append(handle)
        self._by_name[name] = handle
        self.store.register(name, query.changelog, query.output_schema)
        return handle

    def create_dynamic_table(self, text: str):
        """Install a ``CREATE DYNAMIC TABLE`` next to the standing queries.

        The view's FROM source may name a registered *stream*: the engine
        then materialises the stream into a views base table (every
        ingested tuple commits as a CDC insert at its event time) and the
        view refreshes through the engine's time hooks.  Sources already
        known to the view service (base tables created via
        ``engine.views.create_table`` or other dynamic tables) are used
        as-is.  Returns the installed
        :class:`~repro.views.service.DynamicTable`.
        """
        from repro.sql.ast import CreateDynamicTable
        from repro.sql.parser import parse_statement

        statement = parse_statement(text)
        if not isinstance(statement, CreateDynamicTable):
            raise PlanError("create_dynamic_table() takes CREATE DYNAMIC "
                            "TABLE statements")
        source = statement.select.source
        if not self.views.catalog.is_relation(source) \
                and self.catalog.is_stream(source):
            self._view_fed[source] = self.views.create_table(
                source, self.catalog.stream(source).schema)
        return self.views.execute(text)

    def query(self, name: str) -> QueryHandle:
        handle = self._by_name.get(name)
        if handle is None:
            raise PlanError(f"unknown query {name!r}")
        return handle

    def cancel_query(self, name: str) -> QueryHandle:
        """Explicitly terminate a standing query (the other half of the
        Figure 1 contract: active *until terminated*).  Pending queue
        contents are discarded and the query's Scratch account is closed
        — its operator state leaves the occupancy at once and nothing in
        the engine keeps the operators alive; the Store keeps the final
        answer."""
        handle = self._by_name.get(name)
        if handle is None:
            raise PlanError(f"unknown query {name!r}")
        if handle.query._shared is not None:
            raise PlanError(
                f"query {name!r} is a member of a shared plan group; its "
                f"operator state is interleaved with other members' and "
                f"cannot be torn down independently")
        del self._by_name[name]
        self._handles.remove(handle)
        self._units.remove(handle)
        self._readers.clear()
        self.scratch.unregister(name)
        self._cql.cancel_query(handle.query)
        self._autoscale_ineligible.discard(name)
        return handle

    @property
    def queries(self) -> list[QueryHandle]:
        return list(self._handles)

    # -- live rescale ----------------------------------------------------------

    def rescale_query(self, name: str, parallelism: int):
        """Live-migrate a running query to a new parallelism.

        Uses :func:`repro.runtime.rescale.rescale`: recompile at the new
        width, re-key the per-partition operator state by
        ``partition_of`` placement, resume — the query keeps its state,
        emissions and event-time frontier, and its output stays
        byte-identical to a never-rescaled run.

        Engine bookkeeping moves with it: the query's Scratch account is
        reopened over the new operators (the old ones are dead), eviction
        accounting re-bases on the new sources, and crash recovery takes
        a fresh baseline — the new operators keep no recovery image, so
        no checkpoint taken before the migration can be restored.

        Returns the :class:`~repro.runtime.rescale.RescaleReport`.
        """
        from repro.runtime.rescale import rescale

        handle = self._by_name.get(name)
        if handle is None:
            raise PlanError(f"unknown query {name!r}")
        query = handle.query
        if query._shared is not None:
            raise PlanError(
                f"query {name!r} is a member of a shared plan group; its "
                f"operator state is interleaved with other members' and "
                f"cannot be repartitioned independently")
        if handle.pending:
            raise StateError(
                f"query {name!r} has {handle.pending} queued tuples; "
                f"drain before rescaling (run_until_idle)")
        report = rescale(query, parallelism)
        # The old width's operators no longer exist, the new ones do.
        handle.bind_operators()
        handle.rescales.append(report)
        self._barrier = None
        if self.recovery is not None:
            # The rescaled query has no recovery image: the checkpoint
            # before the migration cannot be restored.  Move the recovery
            # point past it.
            self.recovery.checkpoint(len(self._arrival_log))
        if obs._STATE.enabled:
            obs.get_registry().counter(
                "dsms.rescale.count", query=name).inc()
            obs.get_registry().gauge(
                "dsms.query.parallelism", query=name).set(parallelism)
        return report

    # -- adaptivity loop -------------------------------------------------------

    def _autoscale_observe(self) -> dict[str, Any]:
        """Capture per-query signals *before* draining: the backlog at
        poll time is the pressure evidence; post-drain queues are always
        empty and would blind the controller."""
        if self._autoscale_policy is None:
            return {}
        from repro.plan.adaptive import Signals

        observed: dict[str, Any] = {}
        for handle in self._handles:
            if handle.name in self._autoscale_ineligible:
                continue
            if handle.query._shared is not None:
                self._autoscale_ineligible.add(handle.name)
                continue
            if handle.autoscaler is None:
                from repro.plan.adaptive import AdaptiveController
                from repro.plan.parallel import partition_scheme
                if partition_scheme(handle.query.plan) is None:
                    self._autoscale_ineligible.add(handle.name)
                    continue
                handle.autoscaler = AdaptiveController(
                    self._autoscale_policy)
            query = handle.query
            lags = [self.watermark_clock.lag(stream)
                    for stream in query._stream_sources]
            lags = [lag for lag in lags if lag is not None]
            processed = handle.metrics.processed
            observed[handle.name] = Signals(
                parallelism=query.parallelism,
                queue_occupancy=handle.queue.occupancy,
                pressure_events=handle.queue.pressure_events,
                watermark_lag=max(lags) if lags else None,
                partition_loads=tuple(map(float, query.partition_loads())),
                selectivity=(handle.metrics.emitted / processed
                             if processed else None),
            )
        return observed

    def _autoscale_act(self, observed: dict[str, Any]) -> None:
        """Poll each controller with its pre-drain signals and apply any
        rescale decision — at quiescence, where migration is safe."""
        for name, signals in observed.items():
            handle = self._by_name.get(name)
            if handle is None or handle.autoscaler is None:
                continue  # cancelled mid-drain
            decision = handle.autoscaler.poll(signals)
            if decision.wants_rescale:
                self.rescale_query(name, decision.parallelism)

    # -- data flow -------------------------------------------------------------

    def ingest(self, stream_name: str, record: Mapping[str, Any] | Record,
               t: Timestamp) -> int:
        """Route one arrival to every query reading ``stream_name``.

        Returns the number of queries that admitted the tuple.

        The row is validated into a values tuple of the stream's schema
        here, once (:meth:`Schema.coerce`), before the arrival is logged,
        queued or counted — a row that does not fit raises
        :class:`~repro.core.errors.SchemaError` and leaves no trace.
        Every reader then shares that one tuple.
        """
        stream = self.catalog.stream(stream_name)  # validates the name
        if t < MIN_TIMESTAMP:
            # Reject here rather than letting the executor blow up
            # asynchronously at service time, after the tuple was queued.
            raise CoreTimeError(
                f"timestamp {t} before the epoch {MIN_TIMESTAMP}")
        values = stream.schema.coerce(record)
        if self.recovery is not None:
            self.recovery.start()  # baseline before the first arrival
            self._arrival_log.append(("ingest", stream_name, values, t))
        return self._route(stream_name, values, t)

    def _route(self, stream_name: str, values: tuple,
               t: Timestamp) -> int:
        """Offer one validated arrival to every reading unit."""
        table = self._view_fed.get(stream_name)
        if table is not None:
            # Views run on the engine's clock, which only moves forward:
            # an arrival ahead of it commits at its own instant, any other
            # commits now — which the service stamps past every view that
            # already reached the clock, so the next refresh pulls it.
            # The table shares the stream's schema: it takes the tuple.
            self.views._commit(table, [(values, 1)],
                               at=t if t > self.views.clock else None)
        if obs._STATE.enabled:
            self.watermark_clock.observe_arrival(stream_name, t)
            self.stall_detector.note_arrival(stream_name)
        readers = self._readers.get(stream_name)
        if readers is None:
            readers = self._readers[stream_name] = [
                unit for unit in self._units if unit.reads_stream(stream_name)]
        arrival = (stream_name, values)  # one pair, queued by every reader
        admitted = 0
        for unit in readers:
            if unit.offer(arrival, t):
                admitted += 1
        return admitted

    def step(self) -> bool:
        """Run one scheduling quantum of one unit: an isolated query's
        head instant (or as much of it as its batch cap allows), or one
        tuple of a whole shared group — its members advance together."""
        index = self.scheduler.next_index(self._units)
        if index is None:
            return False
        return self._units[index].service_one()

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Drain all queues; returns the number of quanta executed.

        With recovery enabled, a recoverable failure raised while
        servicing triggers restore-and-replay (with the manager's backoff
        and retry bound), and reaching quiescence commits the arrival-log
        position — checkpoints are taken at these quiescent points, when
        logged arrivals equal processed arrivals.
        """
        if not obs._STATE.enabled:
            return self._drain_settled(max_steps)
        with obs.get_tracer().span("dsms.run_until_idle") as span:
            steps = self._drain_settled(max_steps)
            span.add(steps=steps)
            self.publish_observability()
        return steps

    def _drain(self, max_steps: int) -> int:
        steps = 0
        if self.recovery is None:
            while steps < max_steps and self.step():
                steps += 1
            return steps
        failures = 0
        while steps < max_steps:
            try:
                if not self.step():
                    break
            except self.recovery.recoverable as error:
                failures = self._recover(failures, error)
                continue
            steps += 1
        self.recovery.committed(len(self._arrival_log))
        return steps

    def _recover(self, failures: int, error: BaseException) -> int:
        """Restore the newest checkpoint and replay the logged suffix,
        again whenever the replay itself fails recoverably; re-raises once
        the manager's retry budget is spent.  Returns the failure count."""
        while True:
            failures += 1
            if failures > self.recovery.max_retries:
                raise error
            self.recovery.backoff(failures)
            try:
                self._recover_and_replay()
            except self.recovery.recoverable as again:
                error = again
                continue
            return failures

    def _drain_settled(self, max_steps: int) -> int:
        """Drain the queues, then settle overdue dynamic tables and run
        the adaptivity loop (signals are captured pre-drain — the
        backlog is the evidence — decisions applied at quiescence)."""
        observed = self._autoscale_observe()
        steps = self._drain(max_steps)
        self._tick_views()
        self._autoscale_act(observed)
        return steps

    def advance_time(self, t: Timestamp) -> None:
        """Advance event time for every query (fires window expirations).

        With recovery enabled a recoverable failure is handled as in
        :meth:`run_until_idle`: the advance is logged first, so the
        replay after the restore re-runs it.
        """
        if self.recovery is None:
            self._advance(t)
            return
        self.recovery.start()
        self._arrival_log.append(("advance", t))
        try:
            self._advance(t)
        except self.recovery.recoverable as error:
            self._recover(0, error)

    def _advance(self, t: Timestamp) -> None:
        for unit in self._units:
            unit.advance_to(t)
        self._tick_views(t)

    def _tick_views(self, t: Timestamp | None = None) -> None:
        """Run the view refresh scheduler (no-op without dynamic tables)."""
        if self.views.view_names():
            target = self.views.clock if t is None \
                else max(t, self.views.clock)
            self.views.tick(target)

    # -- crash recovery --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A barrier: move the engine's recovery point to now and return
        what it wrote — the checkpoint, costing what changed since the
        previous barrier.

        Every query writes the operator keys it changed since then (all
        of its state at its first barrier: after registration or a
        rescale, see :meth:`ContinuousQuery.snapshot`).  The append-only
        histories — each query's emissions and change-log, which is also
        the Store's — write offsets, and so do the hosted dynamic tables
        (:meth:`DynamicTableService.snapshot`).  The recovery image stays
        inside the engine, so :meth:`restore` takes the newest barrier
        only — with ``recovery_interval`` set, the engine's
        :class:`RecoveryManager` takes every barrier itself.

        The barrier sizes itself: :attr:`barrier_bytes` sums the queries'
        and the views' tallies; the offsets and the tails held by
        reference add nothing.

        Queue contents are deliberately excluded — checkpoints are taken
        at quiescent points (empty queues), and anything queued at crash
        time is re-offered from the arrival log during replay.  Metrics
        are telemetry, not state: they keep counting across rollbacks, so
        recovery overhead (replayed work) stays visible.
        """
        queries = {handle.name: handle.query.snapshot()
                   for handle in self._handles}
        views = self.views.snapshot()
        self.barrier_bytes = self.views.barrier_bytes + sum(
            handle.query.barrier_bytes for handle in self._handles)
        self._barrier = {"queries": queries, "views": views}
        return self._barrier

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll every query (and with it the Store) and the dynamic tables
        back, in place, to the newest barrier (``payload`` is what
        :meth:`snapshot` returned for it).

        Operators restore only the keys changed since; histories are
        truncated to their offsets.  Any number of restores may follow
        one barrier.
        """
        if payload is not self._barrier:
            raise StateError(
                "only the newest checkpoint can be restored (and none "
                "taken before a rescale): the engine keeps one recovery "
                "image")
        for handle in self._handles:
            if handle.name not in payload["queries"]:
                raise StateError(
                    f"query {handle.name!r} was registered after the "
                    f"checkpoint being restored")
        # The views refuse a table or view created since the barrier
        # before they change anything, so a refused restore is a no-op.
        self.views.restore(payload["views"])
        for handle in self._handles:
            handle.query.restore(payload["queries"][handle.name])
        # Every operator's state just changed under the ledger.
        for unit in self._units:
            self.scratch.settle(unit.name)

    def _recover_and_replay(self) -> None:
        """Restore the newest checkpoint and re-offer the logged suffix.

        The crashed quantum's tuple was already polled off its queue and
        lost with the failure; clearing the queues and replaying the
        arrival log from the checkpoint offset regenerates it along with
        everything else in flight.  ``advance`` entries drain first, so
        the replayed timeline keeps the original drain-then-advance
        order.  A failure in here propagates to :meth:`_recover`, which
        restores and replays again.
        """
        checkpoint = self.recovery.recover()
        for unit in self._units:
            unit.queue.clear()
        replayed = 0
        for entry in self._arrival_log[checkpoint.offset:]:
            if entry[0] == "advance":
                while self.step():
                    pass
                self._advance(entry[1])
            else:
                _, stream_name, values, t = entry
                self._route(stream_name, values, t)
                replayed += 1
        self.recovery.record_replayed(replayed)

    def metrics_table(self) -> dict[str, dict[str, float]]:
        """Per-query metrics snapshot (used by the Figure 3 bench)."""
        return {h.name: h.metrics.as_dict() for h in self._handles}

    def total_state_size(self) -> int:
        """Tuples held by every *distinct* stateful operator across all
        registered queries — shared operators counted once, which is the
        fair comparison the plan-sharing benchmark makes against summing
        per-query private state."""
        seen: set[int] = set()
        total = 0
        for handle in self._handles:
            for _, op in _stateful_ops(handle.query._root):
                if id(op) not in seen:
                    seen.add(id(op))
                    total += op.state_size
        return total

    @property
    def shared_subplan_hits(self) -> int:
        """Subplan compilations the sharing memo avoided (0 when off)."""
        if self._group_handle is None:
            return 0
        return self._group_handle.group.memo.hits

    def publish_observability(self, registry=None) -> None:
        """Push the engine's state into the (global) metrics registry.

        Pull-based: per-query tuple-flow counters, per-operator executor
        counters, and component gauges are snapshotted on demand, so the
        hot path pays nothing for them.  Idempotent across calls.
        """
        registry = registry if registry is not None else obs.get_registry()
        for handle in self._handles:
            labels = {"query": handle.name}
            for field, counter in handle.metrics.counters().items():
                published = registry.counter(f"dsms.query.{field}", **labels)
                published.inc(counter.value - published.value)
            registry.gauge("dsms.query.queue_length", **labels).set(
                len(handle.queue))
            registry.gauge("dsms.query.busy_seconds", **labels).set(
                handle.busy_seconds)
            registry.gauge("dsms.query.parallelism", **labels).set(
                handle.query.parallelism)
            handle.query.publish_metrics(registry, **labels)
        # Backpressure: queue peak/occupancy/pressure per scheduling unit
        # (isolated queries and the shared group alike).
        for unit in self._units:
            labels = {"query": unit.name}
            queue = unit.queue
            registry.gauge("dsms.queue.peak_depth", **labels).set(queue.peak)
            registry.gauge("dsms.queue.occupancy", **labels).set(
                queue.occupancy)
            pressure = registry.counter("dsms.queue.pressure_events",
                                        **labels)
            pressure.inc(queue.pressure_events - pressure.value)
        if self._group_handle is not None:
            registry.gauge(
                "dsms.query.busy_seconds", query=self._group_handle.name,
            ).set(self._group_handle.busy_seconds)
        # Per-source stall detection: gap to the global arrival tick.
        stalled = self.stall_detector.stalled()
        for stream, gap in self.stall_detector.gaps().items():
            registry.gauge("dsms.source.stall_gap", stream=stream).set(gap)
            registry.gauge("dsms.source.stalled", stream=stream).set(
                1.0 if stream in stalled else 0.0)
        registry.gauge("dsms.scratch.occupancy").set(
            self.scratch.occupancy())
        registry.gauge("dsms.scratch.peak").set(self.scratch.peak)
        thrown = registry.counter("dsms.throw.discarded")
        thrown.inc(self.throw.discarded - thrown.value)
