"""Multi-query plan sharing: N standing queries, one operator DAG.

The paper's DSMS model registers *many* standing queries over few streams;
running each in isolation repeats the same window buffering and join work
per query.  :class:`SharedGroup` applies the classic multi-query
optimisation instead: every member query is compiled through one
:class:`repro.plan.sharing.SubplanMemo`, so subtrees with the same
canonical signature (``plan_signature(detail=True)`` — commutativity
aware, so ``A ⋈ B`` and ``B ⋈ A`` share) map to the *same* physical
operator, and one :class:`~repro.cql.executor.InstantEvaluator` runs the
whole group's DAG, each shared operator once per instant with its batch
read by every consumer.  Window state, join state and per-source arrival
staging are paid once per distinct subplan, not once per query.

The group owns the event-time :class:`~repro.cql.executor.Agenda`: any
member's feeding call advances *all* members in lockstep, which is what
keeps shared window state sound — every member observes every instant.
Emissions for members other than the caller are buffered per member
(``_undelivered``) and returned from that member's next feeding call.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.errors import PlanError
from repro.core.records import Record
from repro.core.time import Timestamp
from repro.plan.ir import LogicalOp
from repro.cql.catalog import Catalog
from repro.cql.executor import (
    Agenda,
    ContinuousQuery,
    Emission,
    InstantEvaluator,
    PhysicalOp,
    StreamSourceOp,
    check_feed_time,
)
from repro.plan.sharing import SubplanMemo


class SharedGroup:
    """A set of continuous queries evaluated as one shared operator DAG.

    Members are added with :meth:`register` while the group is *cold* (no
    data pushed yet); each registration rebuilds the group's evaluation
    order around the union of member physical trees (operator state lives
    in the operators, so it carries over).  Once data has flowed the group
    is frozen: a newcomer's private operators would miss the history the
    shared ones have already seen.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.agenda = Agenda()
        self.memo = SubplanMemo()
        self.members: list[ContinuousQuery] = []
        self._evaluator = InstantEvaluator([])
        self._started = False       # data has flowed; group frozen
        #: The newest instant evaluated: the group's order guard (see
        #: :func:`~repro.cql.executor.check_feed_time`).
        self._cursor: Timestamp | None = None

    # -- membership ----------------------------------------------------------

    def register(self, plan: LogicalOp) -> ContinuousQuery:
        """Compile ``plan`` into the group, sharing common subplans."""
        if self._started:
            raise PlanError(
                "cannot add a query to a shared group after data has "
                "flowed: the shared window state would be missing the "
                "newcomer's history")
        self.memo.start_compile()
        query = ContinuousQuery(plan, self.catalog, shared=self)
        self.memo.finish_compile()
        self.members.append(query)
        self._evaluator = InstantEvaluator([m._root for m in self.members])
        return query

    def reads_stream(self, name: str) -> bool:
        return any(name in m._stream_sources for m in self.members)

    @property
    def shared_hits(self) -> int:
        """Subplan compilations avoided by sharing (memo hits)."""
        return self.memo.hits

    def distinct_operators(self) -> list[PhysicalOp]:
        """Every physical operator in the group DAG, counted once."""
        return list(self._evaluator.operators)

    def state_size(self) -> int:
        """Total tuples held by stateful operators, shared state counted
        once (contrast with summing each member's private accounting)."""
        return sum(getattr(op, "state_size", 0)
                   for op in self.distinct_operators())

    # -- feeding (member-delegated) ------------------------------------------

    def start(self, member: ContinuousQuery,
              at: Timestamp = 0) -> list[Emission]:
        check_feed_time(at, self._cursor)
        self._process_instant(at)
        return member._drain_undelivered()

    def push_batch(self, timestamp: Timestamp,
                   arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                   | Record]],
                   member: ContinuousQuery | None = None,
                   ) -> list[Emission]:
        """Push one instant's arrivals through the whole group.

        Arrivals are staged into every *distinct* source reading each
        stream (a shared window buffers the record once), then the group
        instant runs for all members.  Returns the calling member's
        pending emissions; other members' outputs are buffered for them.
        """
        check_feed_time(timestamp, self._cursor)
        for instant in self.agenda.due(timestamp - 1):
            self._process_instant(instant)
        for name, rows in arrivals.items():
            sources = self._sources_for(name)
            if not sources:
                raise PlanError(
                    f"no query in the shared group reads stream {name!r}")
            base_schema = self.catalog.stream(name).schema
            for row in rows:
                record = (row if isinstance(row, Record)
                          else Record.from_mapping(base_schema, row))
                for source in sources:
                    source.stage(record.with_schema(source.scan.schema),
                                 timestamp)
        self.agenda.due(timestamp)  # consume anything scheduled == now
        self._process_instant(timestamp)
        self._started = True
        return member._drain_undelivered() if member is not None else []

    def update_relation(self, name: str, row: Mapping[str, Any] | Record,
                        mult: int, timestamp: Timestamp,
                        member: ContinuousQuery) -> list[Emission]:
        """Apply a base-relation update for ``member``.

        Relation scans are never shared (the memo refuses them: members
        may diverge via private updates), so staging touches only the
        member's own sources — but the instant still runs group-wide to
        keep every member's clock aligned.  Refused, like
        :meth:`push_batch`, before the epoch or behind the group's clock.
        """
        sources = member._relation_sources.get(name)
        if not sources:
            raise PlanError(f"query does not read relation {name!r}")
        base_schema = self.catalog.relation(name).schema
        record = (row if isinstance(row, Record)
                  else Record.from_mapping(base_schema, row))
        check_feed_time(timestamp, self._cursor)
        for instant in self.agenda.due(timestamp - 1):
            self._process_instant(instant)
        for source in sources:
            source.stage_update(record, mult)
        self.agenda.due(timestamp)  # consume anything scheduled == now
        self._process_instant(timestamp)
        self._started = True
        return member._drain_undelivered()

    def advance_to(self, timestamp: Timestamp,
                   member: ContinuousQuery | None = None) -> list[Emission]:
        for instant in self.agenda.due(timestamp):
            self._process_instant(instant)
        return member._drain_undelivered() if member is not None else []

    def finish(self, member: ContinuousQuery | None = None) -> list[Emission]:
        for instant in self.agenda.drain():
            self._process_instant(instant)
        return member._drain_undelivered() if member is not None else []

    # -- internals -----------------------------------------------------------

    def _sources_for(self, stream_name: str) -> list[StreamSourceOp]:
        """Distinct source operators reading ``stream_name`` (a source
        shared by several members is staged into exactly once)."""
        seen: set[int] = set()
        out: list[StreamSourceOp] = []
        for query in self.members:
            for source in query._stream_sources.get(stream_name, ()):
                if id(source) not in seen:
                    seen.add(id(source))
                    out.append(source)
        return out

    def _process_instant(self, t: Timestamp) -> None:
        """Run one instant through the shared DAG for every member."""
        self._cursor = t if self._cursor is None else max(self._cursor, t)
        for query, (deltas, _active) in zip(self.members,
                                            self._evaluator.run(t)):
            query._undelivered.extend(query._apply_instant(t, deltas))
