"""Fissioned continuous queries: N replicas, key-routed arrivals.

:class:`PartitionedQuery` is the CQL layer's data-parallel execution
unit (survey §4.2).  Construction requires a
:class:`~repro.plan.parallel.PartitionScheme` — the planner's proof that
records with different partition keys never interact anywhere in the
plan — and then:

* compiles ``parallelism`` *independent* :class:`ContinuousQuery`
  replicas of the same logical plan (disjoint operator state, disjoint
  agendas);
* routes every stream arrival to exactly one replica, hashing the
  scheme's key columns with the same fixed
  :func:`~repro.runtime.broker.default_hash` every other routing layer
  uses;
* broadcasts relation updates to all replicas (relations are replicated,
  matching the scheme's broadcast rule for stream-free join sides);
* pushes an *empty* batch to every non-receiving replica at each
  instant, so all replicas share one event-time frontier and their
  agenda work (window expirations) fires at the same instants it would
  have fired in the single-copy query;
* merges outputs: emissions concatenate (stably sorted by instant),
  relation state is the disjoint union of replica states — disjoint
  because each output row's key lives in exactly one replica, which is
  precisely what the scheme proved.

The public surface mirrors :class:`ContinuousQuery` (push / push_batch /
advance_to / finish / run_recorded / current / as_relation /
emitted_stream / snapshot / restore / barrier / rollback), so engines
and difftest legs can treat both uniformly; :meth:`physical_roots`
exposes one root per replica where :class:`ContinuousQuery` exposes one
total.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import PlanError, StateError
from repro.core.operators import R2SKind
from repro.core.records import Record
from repro.core.relation import Bag, TimeVaryingRelation
from repro.core.stream import Stream
from repro.core.time import Timestamp
from repro.plan.ir import LogicalOp
from repro.plan.parallel import PartitionScheme, partition_scheme
from repro.cql.catalog import Catalog
from repro.cql.executor import ContinuousQuery, Emission, check_feed_time
from repro.runtime.broker import default_hash

__all__ = ["PartitionedQuery"]


class PartitionedQuery:
    """A continuous query fissioned into key-partitioned replicas."""

    #: Partitioned queries never join shared plan groups (their operator
    #: state is already split across replicas); engines check this the
    #: same way they do on :class:`ContinuousQuery`.
    _shared = None

    def __init__(self, plan: LogicalOp, catalog: Catalog, parallelism: int,
                 scheme: PartitionScheme | None = None) -> None:
        if parallelism < 1:
            raise PlanError(f"parallelism must be >= 1, got {parallelism}")
        if scheme is None:
            scheme = partition_scheme(plan)
        if scheme is None:
            raise PlanError(
                "plan is not key-partitionable; run it with parallelism 1 "
                "(see repro.plan.parallel.partition_scheme)")
        self.plan = plan
        self.catalog = catalog
        self.parallelism = parallelism
        self.scheme = scheme
        self.output_schema = plan.schema
        self._replicas = [ContinuousQuery(plan, catalog)
                          for _ in range(parallelism)]
        self.r2s = self._replicas[0].r2s
        # Shared with the replicas by construction; exposed so engine-level
        # "does this query read stream S" checks work on both query kinds.
        self._stream_sources = self._replicas[0]._stream_sources
        self._relation_sources = self._replicas[0]._relation_sources

    @classmethod
    def adopt(cls, query: ContinuousQuery,
              scheme: PartitionScheme | None = None) -> "PartitionedQuery":
        """Wrap an already-running serial query as a width-1 fission.

        The existing query becomes replica 0 *as is* — state, agenda,
        log, emissions all kept — so a serial query can be promoted and
        then live-rescaled (``repro.runtime.rescale``) without replay.
        """
        if query._shared is not None:
            raise StateError(
                "shared-group queries cannot be adopted for fission: their "
                "operator state interleaves with other members'")
        if scheme is None:
            scheme = partition_scheme(query.plan)
        if scheme is None:
            raise PlanError(
                "plan is not key-partitionable; it cannot be promoted to "
                "a fissioned query")
        out = cls.__new__(cls)
        out.plan = query.plan
        out.catalog = query.catalog
        out.parallelism = 1
        out.scheme = scheme
        out.output_schema = query.output_schema
        out._replicas = [query]
        out.r2s = query.r2s
        out._stream_sources = query._stream_sources
        out._relation_sources = query._relation_sources
        return out

    def rescale(self, parallelism: int):
        """Live-migrate to a new width; see :func:`repro.runtime.rescale`."""
        from repro.runtime.rescale import rescale  # lazy: import cycle
        return rescale(self, parallelism)

    # -- routing -------------------------------------------------------------

    def _route(self, stream_name: str,
               rows: Sequence[Mapping[str, Any] | Record]) \
            -> dict[int, list[Record]]:
        """Split one stream's arrivals across replicas by partition key."""
        base_schema = self.catalog.stream(stream_name).schema
        routed: dict[int, list[Record]] = defaultdict(list)
        for row in rows:
            record = (row if isinstance(row, Record)
                      else Record.from_mapping(base_schema, row))
            key = self.scheme.key_for(stream_name, record.values)
            routed[default_hash(key) % self.parallelism].append(record)
        return routed

    # -- feeding -------------------------------------------------------------

    def _feed(self, invoke: Callable[[ContinuousQuery, int],
                                     list[Emission]]) -> list[Emission]:
        """Drive every replica through one feeding call and merge.

        For ISTREAM/DSTREAM (delta semantics) the merge is a plain
        concatenation: each replica emits exactly its own key-partition's
        deltas.  RSTREAM is *not* delta-shaped — the serial query re-emits
        its **entire** state at every instant where the global state
        changes, while a replica only re-emits at instants where *its own
        partition* changed.  So after feeding, any replica that stayed
        quiet at an instant some other replica logged must re-emit its
        current state at that instant, or merged output loses rows
        whenever keys land on different replicas.  (The width-3 difftest
        leg masked this for a long time: ``default_hash(1) % 3 ==
        default_hash(2) % 3``, so the generator's two hot keys co-located.)
        """
        if self.r2s is not R2SKind.RSTREAM or self.parallelism == 1:
            return self._merge([invoke(replica, index)
                                for index, replica in
                                enumerate(self._replicas)])
        marks = [len(replica._log) for replica in self._replicas]
        produced = [invoke(replica, index)
                    for index, replica in enumerate(self._replicas)]
        active: set[Timestamp] = set()
        for replica, mark in zip(self._replicas, marks):
            active.update(t for t, _ in replica._log[mark:])
        for replica, mark, out in zip(self._replicas, marks, produced):
            logged = {t for t, _ in replica._log[mark:]}
            times = [t for t, _ in replica._log]
            for t in sorted(active - logged):
                position = bisect_right(times, t)
                if position == 0:
                    continue  # no state yet at this instant
                _, state = replica._log[position - 1]
                synthesized = [Emission(record, t)
                               for record, mult in state.items()
                               for _ in range(mult)]
                replica._emissions.extend(synthesized)
                out.extend(synthesized)
        return self._merge(produced)

    def start(self, at: Timestamp = 0) -> list[Emission]:
        return self._feed(lambda replica, index: replica.start(at))

    def push(self, stream_name: str, row: Mapping[str, Any] | Record,
             timestamp: Timestamp) -> list[Emission]:
        return self.push_batch(timestamp, {stream_name: [row]})

    def push_batch(self, timestamp: Timestamp,
                   arrivals: Mapping[str, Sequence[Mapping[str, Any]
                                                   | Record]],
                   ) -> list[Emission]:
        """Push all arrivals carrying ``timestamp``, atomically.

        Every replica processes the instant — receivers with their share
        of the batch, the rest with an empty one — so window expirations
        fire on all replicas at the same event times.
        """
        self._check_feed_time(timestamp)
        per_replica: list[dict[str, list[Record]]] = \
            [{} for _ in range(self.parallelism)]
        for name, rows in arrivals.items():
            if name not in self._stream_sources:
                raise PlanError(f"query does not read stream {name!r}")
            for index, routed in self._route(name, rows).items():
                per_replica[index][name] = routed
        return self._feed(lambda replica, index: replica.push_batch(
            timestamp, per_replica[index]))

    def update_relation(self, name: str, row: Mapping[str, Any] | Record,
                        mult: int, timestamp: Timestamp) -> list[Emission]:
        """Relations are replicated: updates broadcast to every replica."""
        self._check_feed_time(timestamp)
        return self._feed(lambda replica, index: replica.update_relation(
            name, row, mult, timestamp))

    def _check_feed_time(self, timestamp: Timestamp) -> None:
        """The replicas' own guard, run once against the newest instant
        any of them logged: replicas log at different instants, and a
        call one of them refuses must feed none."""
        check_feed_time(timestamp, max(
            (replica._last_instant for replica in self._replicas
             if replica._last_instant is not None), default=None))

    def advance_to(self, timestamp: Timestamp) -> list[Emission]:
        return self._feed(
            lambda replica, index: replica.advance_to(timestamp))

    def finish(self) -> list[Emission]:
        return self._feed(lambda replica, index: replica.finish())

    def run_recorded(self, streams: Mapping[str, Stream[Record]],
                     finish: bool = True) -> list[Emission]:
        """Replay recorded streams with exact per-instant batching (the
        same contract as :meth:`ContinuousQuery.run_recorded`)."""
        arrivals: dict[Timestamp, dict[str, list[Record]]] = defaultdict(
            lambda: defaultdict(list))
        for name, stream in streams.items():
            for element in stream:
                arrivals[element.timestamp][name].append(element.value)
        emitted: list[Emission] = list(self.start())
        for t in sorted(arrivals):
            emitted.extend(self.push_batch(t, arrivals[t]))
        if finish:
            emitted.extend(self.finish())
        return emitted

    @staticmethod
    def _merge(per_replica: list[list[Emission]]) -> list[Emission]:
        merged = [e for emissions in per_replica for e in emissions]
        merged.sort(key=lambda e: e.timestamp)  # stable: replica order kept
        return merged

    # -- inspection ----------------------------------------------------------

    def current(self) -> Bag:
        """The maintained relation state (a private copy)."""
        return self.state.copy()

    @property
    def state(self) -> Bag:
        """The maintained relation state: the union of replica states,
        never to be mutated (see :attr:`ContinuousQuery.state`).

        Disjoint by the scheme's key-locality proof, so a plain bag sum;
        with one replica, that replica's state itself.
        """
        if len(self._replicas) == 1:
            return self._replicas[0].state
        merged = Bag()
        for replica in self._replicas:
            for record, mult in replica.state.items():
                merged.add(record, mult)
        return merged

    def emissions(self) -> list[Emission]:
        return self._merge([r.emissions() for r in self._replicas])

    def emitted_stream(self) -> Stream[Record]:
        """The merged output as a :class:`Stream` (sorted within each
        instant, matching :meth:`ContinuousQuery.emitted_stream`)."""
        out: Stream[Record] = Stream(schema=self.output_schema)
        by_time: dict[Timestamp, list[Record]] = defaultdict(list)
        for replica in self._replicas:
            for emission in replica.emissions():
                by_time[emission.timestamp].append(emission.record)
        for t in sorted(by_time):
            for record in sorted(by_time[t], key=repr):
                out.append(record, t)
        return out

    def _merged_log(self) -> list[tuple[Timestamp, Bag]]:
        """The global change-log: at every instant any replica logged,
        the union of each replica's latest state at or before it."""
        logs: list[dict[Timestamp, Bag]] = []
        instants: set[Timestamp] = set()
        for replica in self._replicas:
            last_per_instant: dict[Timestamp, Bag] = {}
            for t, bag in replica._log:
                last_per_instant[t] = bag
            logs.append(last_per_instant)
            instants.update(last_per_instant)
        cursors = [sorted(log) for log in logs]
        positions = [0] * len(logs)
        latest: list[Bag | None] = [None] * len(logs)
        merged_log: list[tuple[Timestamp, Bag]] = []
        for t in sorted(instants):
            merged = Bag()
            for i, log in enumerate(logs):
                times = cursors[i]
                while positions[i] < len(times) and times[positions[i]] <= t:
                    latest[i] = log[times[positions[i]]]
                    positions[i] += 1
                if latest[i] is not None:
                    for record, mult in latest[i].items():
                        merged.add(record, mult)
            merged_log.append((t, merged))
        return merged_log

    @property
    def _log(self) -> list[tuple[Timestamp, Bag]]:
        """Merged change-log, same shape as ``ContinuousQuery._log``
        (computed on demand — the replicas own the authoritative logs)."""
        return self._merged_log()

    def as_relation(self) -> TimeVaryingRelation:
        """The merged change-log as a time-varying relation."""
        relation = TimeVaryingRelation(schema=self.output_schema)
        for t, bag in self._merged_log():
            relation.set_at(t, bag)
        return relation

    @property
    def deltas_processed(self) -> int:
        return sum(r.deltas_processed for r in self._replicas)

    def physical_roots(self) -> list:
        """One physical root per replica (state accounting, EXPLAIN)."""
        return [r._root for r in self._replicas]

    def replicas(self) -> list[ContinuousQuery]:
        return list(self._replicas)

    def publish_metrics(self, registry=None, prefix: str = "exec.operator",
                        **labels: str) -> None:
        """Publish per-operator counters, one ``replica=i`` label per
        replica so fissioned copies of an operator stay distinguishable."""
        for index, replica in enumerate(self._replicas):
            replica.publish_metrics(registry, prefix,
                                    **dict(labels, replica=str(index)))

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "parallelism": self.parallelism,
            "replicas": [r.snapshot() for r in self._replicas],
        }

    def restore(self, payload: Mapping[str, Any]) -> None:
        if payload["parallelism"] != self.parallelism:
            raise StateError(
                f"snapshot taken at parallelism {payload['parallelism']}, "
                f"cannot restore into {self.parallelism} replicas — keys "
                f"would re-route across partitions")
        for replica, state in zip(self._replicas, payload["replicas"]):
            replica.restore(state)

    def barrier(self) -> dict[str, Any]:
        """Every replica's :meth:`ContinuousQuery.barrier`."""
        return {"parallelism": self.parallelism,
                "replicas": [r.barrier() for r in self._replicas]}

    def rollback(self) -> None:
        """Every replica back to its last barrier.  Replicas built by a
        rescale since then have none and refuse."""
        for replica in self._replicas:
            replica.rollback()
