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

from typing import Any, Iterable, Mapping

from repro.core.errors import PlanError
from repro.core.records import Record, Schema
from repro.core.relation import TimeVaryingRelation
from repro.core.stream import Stream
from repro.plan.ir import LogicalOp
from repro.plan.parallel import decide_parallelism
from repro.cql.catalog import Catalog, RelationDef, StreamDef
from repro.cql.executor import ContinuousQuery, Emission
from repro.cql.parser import parse_query
from repro.cql.planner import plan_statement
from repro.cql.reference import reference_evaluate


class CQLEngine:
    """A continuous-query processor in the style of STREAM's CQL."""

    def __init__(self, optimize: bool = True) -> None:
        self.catalog = Catalog()
        self._optimize = optimize
        self._queries: list[ContinuousQuery] = []

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
        """Parse and plan a query without registering it."""
        statement = parse_query(text)
        plan = plan_statement(statement, self.catalog)
        if optimize if optimize is not None else self._optimize:
            from repro.plan.rules import optimize as run_rules
            plan = run_rules(plan)
        return plan

    def explain(self, text: str) -> str:
        """EXPLAIN: the (optimised) plan tree with incremental-strategy
        annotations and the plan's canonical signature."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.plan(text))

    # -- execution -----------------------------------------------------------

    def register_query(self, text: str,
                       optimize: bool | None = None,
                       shared=None,
                       parallelism: int | None = None) -> ContinuousQuery:
        """Register a continuous query: compiled once, runs until cancelled
        (the paper's Figure 1 contract).  Passing a
        :class:`repro.cql.shared.SharedGroup` as ``shared`` compiles the
        query *into the group*, reusing physical subplans other members
        already built (multi-query optimisation).

        ``parallelism=N`` asks for key-partitioned execution: when the
        planner proves the plan partitionable the query runs N partitions
        of the plan (its ``parallelism`` says how many); otherwise the
        request is clamped back to a serial query (the planner's call,
        not an error — see
        :func:`repro.plan.parallel.decide_parallelism`)."""
        return self.register_plan(self.plan(text, optimize), shared=shared,
                                  parallelism=parallelism)

    def register_plan(self, plan: LogicalOp, shared=None,
                      parallelism: int | None = None) -> ContinuousQuery:
        """:meth:`register_query` for a plan :meth:`plan` already built —
        for callers that inspect the plan before registering it."""
        if shared is not None:
            if parallelism is not None and parallelism > 1:
                raise PlanError(
                    "shared-group queries interleave operator state across "
                    "members and cannot be partitioned")
            query = shared.register(plan)
        else:
            width = (decide_parallelism(plan, requested=parallelism)
                     if parallelism is not None and parallelism > 1 else 1)
            query = ContinuousQuery(plan, self.catalog, parallelism=width)
        self._queries.append(query)
        return query

    def cancel_query(self, query) -> bool:
        """Forget a registered query (the Figure 1 contract's end: active
        *until terminated*): :meth:`push` no longer reaches it and the
        engine no longer keeps its operators alive.  Returns whether it
        was registered."""
        try:
            self._queries.remove(query)
        except ValueError:
            return False
        return True

    def shared_group(self):
        """Create an empty :class:`~repro.cql.shared.SharedGroup` bound to
        this engine's catalog; pass it to :meth:`register_query`."""
        from repro.cql.shared import SharedGroup
        return SharedGroup(self.catalog)

    def push(self, stream_name: str, row: Mapping[str, Any] | Record,
             timestamp: int) -> dict[int, list[Emission]]:
        """Push one element into every registered query reading the stream.

        Returns emissions per query index.
        """
        out: dict[int, list[Emission]] = {}
        for index, query in enumerate(self._queries):
            if stream_name in query._stream_sources:
                out[index] = query.push(stream_name, row, timestamp)
        return out

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
