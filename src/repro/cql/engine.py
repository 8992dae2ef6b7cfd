"""The CQL engine facade: catalog + parser + planner + optimizer + executor.

This is the library's front door for CQL (paper Section 3.1):

    >>> from repro.cql import CQLEngine
    >>> from repro.core import Schema, minutes
    >>> engine = CQLEngine()
    >>> engine.register_stream("RoomObservation", Schema(["id", "room"]))
    >>> engine.register_relation("Person", Schema(["id", "name"]),
    ...                          rows=[{"id": 1, "name": "ada"}])
    >>> query = engine.register_query(
    ...     "SELECT COUNT(P.id) AS n "
    ...     "FROM Person P, RoomObservation O [Range 15 MIN] "
    ...     "WHERE P.id = O.id")
    >>> query.push("RoomObservation", {"id": 1, "room": 7}, minutes(1))
    []
    >>> sorted(r["n"] for r in query.current())
    [1]

(The example is Listing 1 of the paper.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Mapping

from repro.core.records import Record, Schema
from repro.core.relation import TimeVaryingRelation
from repro.core.stream import Stream
from repro.plan.ir import LogicalOp
from repro.plan.parallel import decide_parallelism
from repro.plan.rules import optimize as run_rules
from repro.plan.sharing import SubplanMemo
from repro.cql.catalog import Catalog, RelationDef, StreamDef
from repro.cql.executor import ContinuousQuery, Emission, SharedGroup
from repro.cql.parser import parse_query
from repro.cql.planner import plan_statement
from repro.cql.reference import reference_evaluate

#: How many plans an engine keeps (see :meth:`CQLEngine.plan`);
#: the least recently used one goes, with its bound kernels, when a new
#: one would pass it.
PLAN_CACHE_SIZE = 128


class CQLEngine:
    """A continuous-query processor in the style of STREAM's CQL."""

    def __init__(self, optimize: bool = True) -> None:
        self.catalog = Catalog()
        self._optimize = optimize
        self._queries: list[ContinuousQuery] = []
        #: (text, optimize) -> its plan, least recently used first.
        self._plans: OrderedDict[tuple[str, bool], LogicalOp] = OrderedDict()
        #: id(plan) -> the kernels bound for a plan in :attr:`_plans` (see
        #: :func:`~repro.cql.executor.compile_plan`).  The memo keeps the
        #: plan alive, so its identity names no other object.
        self._kernels: dict[int, dict[tuple, Any]] = {}

    # -- catalog -------------------------------------------------------------

    def register_stream(self, name: str, schema: Schema) -> StreamDef:
        """Declare a stream (schema only; elements arrive at runtime)."""
        return self.catalog.register_stream(name, schema)

    def register_relation(self, name: str, schema: Schema,
                          rows: Iterable[Mapping[str, Any] | Record] = (),
                          ) -> RelationDef:
        """Declare a base relation with optional initial contents."""
        return self.catalog.register_relation(name, schema, rows)

    # -- planning ------------------------------------------------------------

    def plan(self, text: str, optimize: bool | None = None) -> LogicalOp:
        """Parse and plan a query without registering it.

        The engine memoises each plan it builds, under the exact text and
        the effective ``optimize`` flag, so a text planned again costs a
        dict lookup and returns the same (frozen) plan.  A memoised plan
        cannot go stale: the catalog only grows (no name is redefined),
        and a plan captures nothing of it but names and schemas.  A text
        that fails is not memoised, so it fails again — or plans, once
        the source it named is declared.  The memo holds at most
        :data:`PLAN_CACHE_SIZE` plans, least recently used out first.
        """
        optimize = bool(self._optimize if optimize is None else optimize)
        key = (text, optimize)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        plan = plan_statement(parse_query(text), self.catalog)
        if optimize:
            plan = run_rules(plan)
        self._plans[key] = plan
        self._kernels[id(plan)] = {}
        if len(self._plans) > PLAN_CACHE_SIZE:
            _, evicted = self._plans.popitem(last=False)
            del self._kernels[id(evicted)]
        return plan

    def explain(self, text: str) -> str:
        """EXPLAIN: the (optimised) plan tree with incremental-strategy
        annotations and the plan's canonical signature."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.plan(text))

    # -- execution -----------------------------------------------------------

    def register_query(self, text: str,
                       optimize: bool | None = None,
                       shared: SharedGroup | None = None,
                       parallelism: int | None = None) -> ContinuousQuery:
        """Register a continuous query: compiled once, runs until cancelled
        (the paper's Figure 1 contract).  Passing a :class:`SharedGroup`
        (see :meth:`shared_group`) as ``shared`` compiles the query *into
        the group*, reusing physical subplans other members already built
        (multi-query optimisation); otherwise the query is its own group
        of one.

        ``parallelism=N`` asks for key-partitioned execution: when the
        planner proves the plan partitionable the query runs N partitions
        of the plan (its ``parallelism`` says how many); otherwise the
        request is clamped back to a serial query (the planner's call,
        not an error — see
        :func:`repro.plan.parallel.decide_parallelism`).  A shared-group
        member cannot be partitioned."""
        return self.register_plan(self.plan(text, optimize), shared=shared,
                                  parallelism=parallelism)

    def register_plan(self, plan: LogicalOp,
                      shared: SharedGroup | None = None,
                      parallelism: int | None = None) -> ContinuousQuery:
        """:meth:`register_query` for a plan :meth:`plan` already built —
        for callers that inspect the plan before registering it.

        A plan the memo holds is compiled with the kernels bound for it
        by the first query compiled from it, so registering it again
        renders no kernel source; every query still gets operators, and
        state, of its own."""
        kernels = self._kernels.get(id(plan))
        if shared is not None:
            query = shared.register(plan, parallelism or 1, kernels)
        else:
            width = (decide_parallelism(plan, requested=parallelism)
                     if parallelism is not None and parallelism > 1 else 1)
            query = ContinuousQuery(plan, self.catalog, parallelism=width,
                                    kernels=kernels)
        self._queries.append(query)
        return query

    def cancel_query(self, query: ContinuousQuery) -> bool:
        """Forget a registered query (the Figure 1 contract's end: active
        *until terminated*): :meth:`push` no longer reaches it, and it
        leaves its group, so neither the engine nor the group keeps its
        operators alive (a shared group keeps those its other members
        read).  The query keeps its answer and emissions.  Returns
        whether it was registered."""
        try:
            self._queries.remove(query)
        except ValueError:
            return False
        query.group._leave(query)
        return True

    def shared_group(self) -> SharedGroup:
        """Create an empty sharing :class:`SharedGroup` bound to this
        engine's catalog; pass it to :meth:`register_query`."""
        return SharedGroup(self.catalog, SubplanMemo())

    def push(self, stream_name: str, row: Mapping[str, Any] | Record,
             timestamp: int) -> dict[int, list[Emission]]:
        """Push one element into every registered query reading the stream.

        Each group reading it (a private query, or a shared group) is fed
        once; returns, per reading query's index, that query's emissions
        not yet returned.
        """
        readers = [(index, query) for index, query in enumerate(self._queries)
                   if stream_name in query._stream_sources]
        fed: list[SharedGroup] = []
        for _, query in readers:
            if query.group not in fed:
                fed.append(query.group)
                query.group.push_batch(timestamp, {stream_name: [row]})
        return {index: query._pending() for index, query in readers}

    def run_one_shot(self, text: str,
                     streams: Mapping[str, Stream[Record]],
                     ) -> TimeVaryingRelation | Stream[Record]:
        """Evaluate a query denotationally over recorded streams.

        This is the reference (non-incremental) evaluation — useful for
        testing and as the "re-execute from scratch" baseline.
        """
        return reference_evaluate(self.plan(text), self.catalog, streams)

    @property
    def queries(self) -> list[ContinuousQuery]:
        return list(self._queries)
