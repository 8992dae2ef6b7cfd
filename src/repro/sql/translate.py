"""Run streaming SQL as a CQL standing query.

A parsed :class:`~repro.sql.ast.SQLStatement` lowers onto the unified
logical IR (:mod:`repro.sql.lower` → :mod:`repro.plan`), is optimised by
the shared rule rewriter, and compiles into one
:class:`~repro.cql.executor.ContinuousQuery` (see
:func:`~repro.sql.lower.standing_query`), on the executor CQL, the DSMS
and dynamic tables share: a SQL query is checkpointed, profiled and
fissioned like any standing query.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from repro.core.records import Record, Schema
from repro.core.time import Timestamp
from repro.cql.catalog import Catalog
from repro.cql.executor import ContinuousQuery
from repro.plan.ir import scans_of
from repro.plan.parallel import decide_parallelism
from repro.sql.lower import lower_statement, standing_query
from repro.sql.parser import parse_sql

#: Extra columns a windowed aggregation exposes to SELECT/HAVING.
WINDOW_START = "window_start"
WINDOW_END = "window_end"


class SQLEngine:
    """The streaming-SQL front end: catalog + parser + planner, over the
    CQL executor.  ``parallelism`` is a request: a plan the planner
    cannot prove key-partitionable runs serially
    (:func:`~repro.plan.parallel.decide_parallelism`).
    """

    def __init__(self, parallelism: int = 1, optimize: bool = True) -> None:
        self.catalog = Catalog()
        self.parallelism = parallelism
        self._optimize = optimize

    def register_stream(self, name: str, schema: Schema) -> None:
        self.catalog.register_stream(name, schema)

    def plan(self, text: str, optimize: bool | None = None):
        """Parse and lower a query to the unified IR (optimised)."""
        plan = lower_statement(parse_sql(text), self.catalog)
        if optimize if optimize is not None else self._optimize:
            from repro.plan.rules import optimize as run_rules
            plan = run_rules(plan)
        return plan

    def explain(self, text: str) -> str:
        """EXPLAIN: the optimised IR tree with strategy annotations."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.plan(text))

    def query(self, text: str) -> ContinuousQuery:
        """Compile a query into a standing CQL query, fissioned to the
        engine's parallelism where the plan allows it."""
        plan = standing_query(self.plan(text))
        return ContinuousQuery(
            plan, self.catalog,
            parallelism=decide_parallelism(plan, self.parallelism))

    def run(self, text: str,
            rows: Iterable[tuple[Mapping[str, Any], Timestamp]],
            ) -> list[Record]:
        """Run a query over recorded rows, replayed in timestamp order
        with every row of one timestamp in one batch (as
        :meth:`~repro.cql.executor.ContinuousQuery.run_recorded` does).

        Returns the output records in (timestamp, repr) order: ``EMIT
        FINAL`` rows at window closes, ``EMIT CHANGES`` rows per changed
        instant.
        """
        query = self.query(text)
        (stream,) = {scan.name for scan in scans_of(query.plan)}
        batches: dict[Timestamp, list[Mapping[str, Any]]] = defaultdict(list)
        for row, timestamp in rows:
            batches[timestamp].append(row)
        for timestamp in sorted(batches):
            query.push_batch(timestamp, {stream: batches[timestamp]})
        query.finish()
        return query.emitted_stream().values()


def run_sql(text: str, schema: Schema, stream_name: str,
            rows: Iterable[tuple[Mapping[str, Any], Timestamp]],
            parallelism: int = 1) -> list[Record]:
    """One-shot convenience: register, run, return records."""
    engine = SQLEngine(parallelism=parallelism)
    engine.register_stream(stream_name, schema)
    return engine.run(text, rows)
