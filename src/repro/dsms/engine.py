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

from itertools import groupby
from time import perf_counter as _perf
from typing import Any, Callable, Iterable, Mapping, Sequence

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.errors import PlanError, StateError
from repro.core.records import Record, Schema, trusted_record
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.time import MIN_TIMESTAMP, Timestamp
from repro.cql.catalog import Catalog
from repro.cql.engine import CQLEngine
from repro.cql.executor import (
    ContinuousQuery,
    Emission,
    SharedGroup,
    StreamSourceOp,
    check_feed_time,
)
from repro.dsms.components import Scratch, Store, Throw
from repro.dsms.metrics import QueryMetrics
from repro.dsms.queues import InputQueue
from repro.dsms.scheduler import RoundRobinScheduler, Scheduler
from repro.dsms.shedding import NoShedding, Shedder
from repro.plan.batching import decide_batch_size
from repro.views.service import DynamicTableService


def _run_of(entry: tuple) -> tuple[str, Timestamp] | None:
    """An arrival-log entry's run, ``(stream, timestamp)``; None for an
    ``advance`` entry."""
    return None if entry[0] == "advance" else (entry[1], entry[3])


class SchedulingUnit:
    """One scheduling unit of the DSMS: a standing-query group and the
    queue that feeds it.

    A private query is a unit of one; with ``sharing=True`` the
    default-policy queries form one unit over a shared plan group
    (:class:`~repro.cql.executor.SharedGroup`).  Either way the unit
    owns one bounded input queue, its shedder and its batch cap, one
    service path (a quantum is one group instant that advances every
    member), the Scratch account over the group's *distinct* operators
    (shared state counted once) and the Throw accounting of their
    evictions.  The scheduler sees units; each member's
    :class:`QueryHandle` keeps that query's metrics.
    """

    def __init__(self, name: str, group: SharedGroup, queue: InputQueue,
                 shedder: Shedder, scratch: Scratch, throw: Throw,
                 watermarks: Mapping[str, Timestamp]) -> None:
        #: The founding member's name: the unit's queue, busy-time and
        #: Scratch labels.
        self.name = name
        self.group = group
        self.queue = queue
        self.shedder = shedder
        #: NoShedding cannot refuse: the unit skips the policy call and
        #: only keeps its books.
        self._admits_all = type(shedder) is NoShedding
        #: Micro-batch cap: a service quantum drains the queue's head
        #: instant — up to this many same-timestamp tuples, all of them
        #: for ``None`` — into one group instant (1 = per-tuple).  The
        #: most restrictive of the members' caps (see :meth:`add`).
        self.batch_size: int | None = None
        self._scratch = scratch
        self._throw = throw
        #: The engine's per-stream watermarks (see
        #: :meth:`DSMSEngine.watermark`), read for the lag metrics.
        self._watermarks = watermarks
        #: Wall time spent servicing this unit (accumulated only while
        #: obs is enabled; the per-operator split lives in the executor's
        #: accounting).
        self.busy_seconds = 0.0
        self.members: list[QueryHandle] = []
        #: Stream name → the metrics of the members reading it.
        self._readers: dict[str, list[QueryMetrics]] = {}
        #: Per member, what a quantum settles: ``(metrics, query,
        #: whether it reads every stream the group reads)``.
        self._books: list[tuple[QueryMetrics, ContinuousQuery, bool]] = []
        self._sources: list[StreamSourceOp] = []
        #: The ``id`` of each operator the unit's Scratch account holds.
        self._accounted: set[int] = set()
        #: The sources' evictions the Throw has already passed.
        self._evicted = 0

    def add(self, handle: "QueryHandle", batch_size: int | None) -> None:
        """Make ``handle`` a member, its cap ``batch_size`` tightening the
        unit's: any member's cap of 1 clamps the unit to one tuple, and
        only members that all drain whole instants leave it at None."""
        if batch_size is not None:
            batch_size = max(1, batch_size)
        if not self.members or self.batch_size is None:
            self.batch_size = batch_size
        elif batch_size is not None:
            self.batch_size = min(self.batch_size, batch_size)
        self.members.append(handle)
        self._bind()

    def bind_operators(self) -> None:
        """Reopen the unit's Scratch account over the group's current
        distinct operators: after a live rescale, the old width's are
        dead and new ones (every partition's) hold the state."""
        self._scratch.unregister(self)
        self._accounted.clear()
        self._sources = []
        self._bind()

    def _bind(self) -> None:
        """Account the group's distinct operators the unit's Scratch
        account does not hold yet (a joining member's own), re-base
        eviction accounting on its sources and re-read which member
        reads which stream."""
        for op in self.group.distinct_operators():
            if id(op) in self._accounted or not hasattr(op, "state_size"):
                continue
            self._accounted.add(id(op))
            self._scratch.register(
                self, f"{self.name}/{type(op).__name__}", op)
            if isinstance(op, StreamSourceOp):
                self._sources.append(op)
        self._evicted = self._evictions()
        streams = self.group._sources
        self._readers = {
            name: [h.metrics for h in self.members if h.reads_stream(name)]
            for name in streams}
        self._books = [
            (h.metrics, h.query, all(map(h.reads_stream, streams)))
            for h in self.members]

    @property
    def pending(self) -> int:
        """Backlog size — what the scheduler looks at."""
        return len(self.queue)

    def reads_stream(self, name: str) -> bool:
        return name in self.group._sources

    @property
    def progress(self) -> Timestamp:
        """The newest instant the unit has queued or evaluated (its
        group started at registration): the drain refuses an arrival
        behind it (:func:`check_feed_time`)."""
        queued = self.queue.newest
        cursor = self.group._cursor
        return cursor if queued is None or cursor > queued else queued

    def offer(self, values: tuple, t: Timestamp, stream_name: str) -> int:
        """Admission control + enqueue of one validated arrival of
        ``stream_name``, once for the whole unit.  Returns how many
        members reading the stream it admitted the arrival for: all of
        them, or 0 when shed/dropped.  A policy decides on the row as a
        Record of the stream's schema, built for it alone.

        The stream's door calls it per row for a unit whose policy can
        refuse, and for every unit while obs is on; it keeps a
        NoShedding unit's books itself otherwise."""
        readers = self._readers[stream_name]
        for metrics in readers:
            metrics.ingested += 1
        if self._admits_all:
            self.shedder.admitted += 1
        elif not self.shedder.admit(trusted_record(
                self.group.catalog.stream(stream_name).schema, values),
                self.queue):
            for metrics in readers:
                metrics.shed += 1
            return 0
        if not self.queue.offer(values, t, stream_name):
            for metrics in readers:
                metrics.queue_dropped += 1
            # The policy said yes but the queue bounced the tuple: tell the
            # shedder so shed_fraction keeps reporting the true drop rate.
            self.shedder.record_queue_drop()
            return 0
        if obs._STATE.enabled:
            obs.get_registry().gauge(
                "dsms.queue.depth", query=self.name).observe(len(self.queue))
        return len(readers)

    def service_one(self) -> bool:
        """Service one scheduling quantum.  Returns False when idle.

        A quantum drains the queue's head instant, up to ``batch_size``
        tuples of it (all of them when ``batch_size`` is None), into ONE
        atomic group instant, fed the values tuples ``ingest`` validated
        — the queue's per-stream runs, as they were queued — one instant
        evaluation, which each member commits to its change-log (the
        Store's history) as at most one batch.  With ``batch_size=1`` a
        quantum is one tuple.
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

    def _service(self, t: Timestamp, chunks: list[tuple[str, list]],
                 span) -> None:
        if len(chunks) == 1:
            arrivals = chunks
        else:
            # Streams that interleaved at ``t`` come as several runs.
            merged: dict[str, list[tuple]] = {}
            for stream_name, rows in chunks:
                held = merged.get(stream_name)
                merged[stream_name] = rows if held is None else held + rows
            arrivals = list(merged.items())
        self.group._feed(t, arrivals)
        self._account_throw(t)
        occupancy = self._scratch.settle(self)
        # The waits of the whole poll, as one observation: waits rise in
        # arrival order.  A member reading every stream of the group
        # takes it as it is.
        waits = self.queue.polled_waits
        polled = waited = 0
        for run in waits:
            polled += len(run)
            waited += len(run) * (run[0] + run[-1]) // 2
        low, high = waits[0][0], waits[-1][-1]
        emitted = 0
        for metrics, query, reads_all in self._books:
            count = query._deliver()
            metrics.emitted += count
            emitted += count
            if reads_all:
                metrics.processed += polled
                metrics.queue_wait.observe_run(polled, waited, low, high)
                metrics.scratch.observe(occupancy)
                continue
            # Only the runs of the streams this member reads.
            read = mine = 0
            for (stream_name, _), run in zip(chunks, waits):
                if stream_name in query._stream_sources:
                    if not read:
                        first = run[0]
                    last = run[-1]
                    read += len(run)
                    mine += len(run) * (run[0] + last) // 2
            if not read:
                continue
            metrics.processed += read
            metrics.queue_wait.observe_run(read, mine, first, last)
            metrics.scratch.observe(occupancy)
        if span is not None:
            span.add(records=polled, emitted=emitted)
            registry = obs.get_registry()
            wait_hist = registry.histogram("dsms.queue.wait", query=self.name)
            for run in waits:
                for wait in run:
                    wait_hist.observe(wait)
            # Processing lag: how far the stream's watermark had run
            # ahead of the instant now evaluated.
            for stream_name, _ in arrivals:
                lag = self._watermarks[stream_name] - t
                registry.gauge("dsms.watermark.lag",
                               stream=stream_name).observe(lag)
                registry.histogram("dsms.watermark.lag_histogram",
                                   stream=stream_name).observe(lag)

    def advance_to(self, t: Timestamp) -> None:
        """Advance event time (window expirations) with no new data.

        Queued instants at or before ``t`` are serviced first: once the
        agenda ran an instant past a queued arrival, the drain would
        refuse it as late."""
        queue = self.queue
        while queue.oldest is not None and queue.oldest <= t:
            self.service_one()
        self.group.advance_to(t)
        self._account_throw(t)
        self._scratch.settle(self)
        for metrics, query, _ in self._books:
            metrics.emitted += query._deliver()

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Roll the group back to its newest barrier (``payload``) and
        re-read what the rollback changed under the books: the Scratch
        account and the sources' evictions."""
        self.group.restore(payload)
        self._scratch.settle(self)
        self._evicted = self._evictions()

    def _evictions(self) -> int:
        evicted = 0
        for op in self._sources:
            evicted += op.evicted
        return evicted

    def _account_throw(self, t: Timestamp) -> None:
        # Every tuple evicted from a window buffer passes through the Throw.
        evicted = self._evictions()
        self._throw.discard_many(evicted - self._evicted, t)
        self._evicted = evicted


class QueryHandle:
    """One registered standing query inside the DSMS: its name, query,
    metrics and Store reads.  Its :class:`SchedulingUnit` queues and
    services it — alone, or with the other members of a shared plan
    group."""

    def __init__(self, name: str, query: ContinuousQuery,
                 unit: SchedulingUnit) -> None:
        self.name = name
        self.query = query
        self.unit = unit
        self.metrics = QueryMetrics()
        #: Live-rescale history: one RescaleReport per completed
        #: migration (``DSMSEngine.rescale_query`` appends here).
        self.rescales: list = []
        #: The adaptivity controller driving this query when the engine
        #: runs with ``autoscale=`` (None otherwise / when ineligible).
        self.autoscaler = None

    @property
    def queue(self) -> InputQueue:
        return self.unit.queue

    @property
    def shedder(self) -> Shedder:
        return self.unit.shedder

    @property
    def batch_size(self) -> int | None:
        return self.unit.batch_size

    @property
    def busy_seconds(self) -> float:
        """Wall time spent servicing this query's unit."""
        return self.unit.busy_seconds

    @property
    def pending(self) -> int:
        """Backlog size of this query's unit."""
        return len(self.unit.queue)

    def reads_stream(self, name: str) -> bool:
        return name in self.query._stream_sources

    def emissions(self) -> list[Emission]:
        """Every element the query emitted, registration included (read
        off the query's change-log)."""
        return self.query.emissions()

    def store_state(self) -> Bag:
        """The Store's current answer for this query: a new Bag of
        Records of its output schema."""
        return self.query.current()

    def store_history(self) -> TimeVaryingRelation:
        """The Store's history of this query, built now from the query's
        change-log (see :meth:`ContinuousQuery.as_relation`)."""
        return self.query.as_relation()


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
        #: Multi-query plan sharing: queries registered with no per-unit
        #: setting (shedder, queue capacity, batch size, parallelism) are
        #: compiled into one communal sharing
        #: :class:`~repro.cql.executor.SharedGroup` (common subplans share
        #: physical operators and window state) and serviced as one
        #: scheduling unit.
        self.sharing = sharing
        self.scheduler = scheduler or RoundRobinScheduler()
        self.queue_capacity = queue_capacity
        self.store = Store()
        self.scratch = Scratch()
        self.throw = Throw(keep_tuples=keep_thrown_tuples)
        #: Schedulable units: one per private query, plus the sharing
        #: group's.  ``_handles`` stays the per-query list the public API
        #: (queries, metrics_table) exposes.
        self._units: list[SchedulingUnit] = []
        #: Stream name -> its door, the generated function every arrival
        #: enters through (:func:`repro.cql.kernels.door_kernel`), bound
        #: to the views base table the stream feeds (or None) and the
        #: units reading it.  Built on the stream's first arrival; dropped
        #: whenever the units, a shared group's members, a unit's reader
        #: lists (a rescale) or the stream's view table change.
        self._doors: dict[str, Callable[..., int]] = {}
        self._handles: list[QueryHandle] = []
        self._by_name: dict[str, QueryHandle] = {}
        #: Stream name -> its watermark, the newest timestamp ``ingest``
        #: admitted on it (see :meth:`watermark`).
        self._watermarks: dict[str, Timestamp] = {}
        #: An upper bound on every unit's :attr:`~SchedulingUnit.progress`
        #: (the newest timestamp admitted or advanced to): an arrival at
        #: or past it cannot be late, so only one behind it pays for the
        #: exact per-unit check.  A restore may leave it high, never low.
        self._frontier: Timestamp = MIN_TIMESTAMP
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
        #: scope, one barrier per scheduling unit.
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
            from repro.chaos.recovery import RecoveryManager
            self.recovery = RecoveryManager(
                self, interval=recovery_interval,
                max_retries=max_restarts, label="dsms")

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
        # A text registered before is a memo hit whose kernels are bound
        # already (see CQLEngine.plan and register_plan).
        plan = self._cql.plan(text)
        # Default-policy queries join the communal shared plan group.  A
        # per-unit setting — a custom shedder, queue or batch cap — needs
        # a unit of its own, and so does a fissioned query: sharing
        # interleaves operator state that partitioning must keep disjoint.
        isolated = (not self.sharing or shedder is not None
                    or queue_capacity is not None or batch_size is not None
                    or (parallelism is not None and parallelism > 1))
        if batch_size is None:
            batch_size = decide_batch_size(plan, self.batch_size)
        unit = group = None
        if not isolated:
            unit = next((unit for unit in self._units
                         if unit.group.memo is not None), None)
            group = (unit.group if unit is not None
                     else self._cql.shared_group())
        query = self._cql.register_plan(plan, shared=group,
                                        parallelism=parallelism)
        query.start()
        if unit is None:
            unit = SchedulingUnit(
                name, query.group,
                InputQueue(queue_capacity or self.queue_capacity),
                shedder or NoShedding(), self.scratch, self.throw,
                self._watermarks)
            self._units.append(unit)
        handle = QueryHandle(name, query, unit)
        unit.add(handle, batch_size)
        self._doors.clear()
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
            self._doors.pop(source, None)
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
        if handle.query.group.memo is not None:
            raise PlanError(
                f"query {name!r} is a member of a shared plan group; its "
                f"operator state is interleaved with other members' and "
                f"cannot be torn down independently")
        del self._by_name[name]
        self._handles.remove(handle)
        # The unit goes with its one member, which leaves it: nothing but
        # the caller keeps the handle, the query or its operators alive.
        self._units.remove(handle.unit)
        handle.unit.members.remove(handle)
        self._doors.clear()
        self.scratch.unregister(handle.unit)
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
        if query.group.memo is not None:
            raise PlanError(
                f"query {name!r} is a member of a shared plan group; its "
                f"operator state is interleaved with other members' and "
                f"cannot be repartitioned independently")
        if handle.pending:
            raise StateError(
                f"query {name!r} has {handle.pending} queued tuples; "
                f"drain before rescaling (run_until_idle)")
        report = rescale(query, parallelism)
        # The old width's operators no longer exist, the new ones do, and
        # the doors bound the reader lists bind_operators replaced.
        handle.unit.bind_operators()
        self._doors.clear()
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
            if handle.query.group.memo is not None:
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
            # How far the streams' watermarks run ahead of the instant
            # the query has evaluated: its backlog in event time.
            marks = [self._watermarks[stream]
                     for stream in query._stream_sources
                     if stream in self._watermarks]
            processed = handle.metrics.processed
            observed[handle.name] = Signals(
                parallelism=query.parallelism,
                queue_occupancy=handle.queue.occupancy,
                pressure_events=handle.queue.pressure_events,
                watermark_lag=(max(0, max(marks) - query.group._cursor)
                               if marks else None),
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
        """Route one arrival to every query reading ``stream_name``:
        :meth:`ingest_many` of one row.

        Returns the number of queries that admitted the tuple.
        """
        # The open door without a method call: this runs per arrival.
        try:
            door = self._doors[stream_name]
        except KeyError:
            door = self._door(stream_name)
        return door(record, t)

    def ingest_many(self, stream_name: str,
                    rows: Sequence[Mapping[str, Any] | Record],
                    t: Timestamp) -> int:
        """Route a run of arrivals sharing timestamp ``t`` to every query
        reading ``stream_name``, through the stream's door (a generated
        function, :func:`repro.cql.kernels.door_kernel`).

        Returns the number of ``(row, query)`` admissions — what a loop
        of :meth:`ingest` over ``rows`` returns in sum, and it leaves
        every count, queue, log and view table as that loop would.

        A late ``t`` is refused first, once for the run: one behind an
        instant a unit reading the stream has already queued or
        evaluated, which that unit's drain would refuse.  The group's own
        guard (:func:`~repro.cql.executor.check_feed_time`) raises, as a
        direct ``push_batch`` would: :class:`~repro.core.errors.StateError`,
        or :class:`~repro.core.errors.TimeError` before the epoch.  Then
        every row is validated into a values tuple of the stream's
        schema, before any arrival is logged, queued or counted — a row
        that does not fit raises :class:`~repro.core.errors.SchemaError`.
        Either way the run leaves no trace.  Every reader then shares
        each row's one tuple.
        """
        door = self._door(stream_name)
        return door(None, t, rows) if rows else 0

    def _door(self, stream_name: str) -> Callable[..., int]:
        """The door of ``stream_name`` (see :attr:`_doors`), built if it
        is not open: the stream's door kernel, compiled once per layout,
        bound to its current readers.  An unknown stream is refused
        here."""
        door = self._doors.get(stream_name)
        if door is None:
            stream = self.catalog.stream(stream_name)
            units: list[SchedulingUnit] = []
            plain: list[tuple] = []
            policed: list[SchedulingUnit] = []
            for unit in self._units:
                if unit.reads_stream(stream_name):
                    units.append(unit)
                    if unit._admits_all:
                        readers = unit._readers[stream_name]
                        plain.append((unit.queue.offer, readers,
                                      len(readers), unit.shedder))
                    else:
                        policed.append(unit)

            def behind(t: Timestamp) -> None:
                # An arrival behind the frontier: refused if it is late
                # for a unit reading the stream, admitted as it is
                # otherwise (e.g. on a stream another stream's arrivals
                # are ahead of, when no unit reads both).
                check_feed_time(t, max((unit.progress for unit in units),
                                       default=None))

            door = self._doors[stream_name] = stream.door(
                self, stream_name, self._view_fed.get(stream_name), units,
                plain, policed, behind, obs._STATE)
        return door

    def watermark(self, stream_name: str) -> Timestamp | None:
        """The stream's watermark: the newest timestamp :meth:`ingest`
        admitted on it, None before its first arrival.  Like the metrics
        it is not rolled back by a restore."""
        return self._watermarks.get(stream_name)

    def step(self) -> bool:
        """Run one scheduling quantum of one unit: its head instant, or
        as much of it as its batch cap allows, for a private query or a
        whole shared group — its members advance together."""
        index = self.scheduler.next_index(self._units)
        if index is None:
            return False
        return self._units[index].service_one()

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Drain all queues; returns the number of quanta executed.

        With recovery enabled, a recoverable failure raised while
        servicing triggers restore-and-replay (within the manager's retry
        bound), and reaching quiescence commits the arrival-log
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
        if t > self._frontier:
            self._frontier = t
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

        Each scheduling unit's group takes one barrier
        (:meth:`SharedGroup.snapshot`), filed under each member's name:
        its operators write the keys they changed since then (all of
        their state at the group's first barrier: after a registration or
        a rescale), each operator once however many members read it.  The
        append-only histories — each query's emissions and change-log,
        which is also the Store's — write offsets, and so do the hosted
        dynamic tables (:meth:`DynamicTableService.snapshot`).  The recovery image stays
        inside the engine, so :meth:`restore` takes the newest barrier
        only — with ``recovery_interval`` set, the engine's
        :class:`RecoveryManager` takes every barrier itself.

        The barrier sizes itself: :attr:`barrier_bytes` sums the groups'
        and the views' tallies (shared state counted once); the offsets and the tails held by
        reference add nothing.

        Queue contents are deliberately excluded — checkpoints are taken
        at quiescent points (empty queues), and anything queued at crash
        time is re-offered from the arrival log during replay.  Metrics
        are telemetry, not state: they keep counting across rollbacks, so
        recovery overhead (replayed work) stays visible.
        """
        queries: dict[str, Any] = {}
        for unit in self._units:
            barrier = unit.group.snapshot()
            for handle in unit.members:
                queries[handle.name] = barrier
        views = self.views.snapshot()
        self.barrier_bytes = self.views.barrier_bytes + sum(
            unit.group.barrier_bytes for unit in self._units)
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
        for unit in self._units:
            unit.restore(payload["queries"][unit.name])

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
        # Consecutive arrivals of one stream and timestamp re-enter as one
        # run, through the door that validated and logged them.
        for run, entries in groupby(self._arrival_log[checkpoint.offset:],
                                    key=_run_of):
            if run is None:
                for _, t in entries:
                    while self.step():
                        pass
                    self._advance(t)
                continue
            stream_name, t = run
            rows = [values for _, _, values, _ in entries]
            self._door(stream_name)(None, t, rows, True)
            replayed += len(rows)
        self.recovery.record_replayed(replayed)

    def metrics_table(self) -> dict[str, dict[str, float]]:
        """Per-query metrics snapshot (used by the Figure 3 bench)."""
        return {h.name: h.metrics.as_dict() for h in self._handles}

    def total_state_size(self) -> int:
        """Tuples held by every *distinct* stateful operator across all
        registered queries — shared operators counted once, which is the
        fair comparison the plan-sharing benchmark makes against summing
        per-query private state."""
        return sum(unit.group.state_size() for unit in self._units)

    @property
    def shared_subplan_hits(self) -> int:
        """Subplan compilations the sharing memo avoided (0 when off)."""
        return sum(unit.group.shared_hits for unit in self._units)

    def publish_observability(self, registry=None) -> None:
        """Push the engine's state into the (global) metrics registry.

        Pull-based: per-query tuple-flow counters, per-operator executor
        counters, and component gauges are snapshotted on demand, so the
        hot path pays nothing for them.  Idempotent across calls.
        """
        registry = registry if registry is not None else obs.get_registry()
        for handle in self._handles:
            labels = {"query": handle.name}
            for field in handle.metrics.COUNTERS:
                published = registry.counter(f"dsms.query.{field}", **labels)
                published.inc(getattr(handle.metrics, field) - published.value)
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
        for stream, mark in self._watermarks.items():
            registry.gauge("dsms.watermark.event_time", stream=stream).set(
                mark)
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
