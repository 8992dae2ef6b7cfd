"""Compile streaming SQL down the Figure 4 stack.

A parsed :class:`~repro.sql.ast.SQLStatement` lowers onto the unified
logical IR (:mod:`repro.sql.lower` → :mod:`repro.plan`), is optimised by
the shared rule rewriter, and the result compiles to a DSL program
(:mod:`repro.dsl`), which itself compiles to a job graph on the actor
runtime — the same layering (SQL → plan → DSL → dataflow → actors) the
survey attributes to real streaming systems.

Three execution shapes:

* **stateless** (no aggregation): filter + project, ``EMIT CHANGES``;
* **windowed aggregation** (``GROUP BY ..., TUMBLE/HOP/SESSION``):
  key-by group columns → window aggregate → project; ``EMIT FINAL``
  results fire on window close, ``EMIT CHANGES`` would stream refinements;
* **running aggregation** (``GROUP BY`` without a window): per-key
  accumulators emitting an updated result row per input — a changelog.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.operators import AggregateKind
from repro.core.records import Record, Schema
from repro.core.time import Timestamp
from repro.cql.catalog import Catalog
from repro.dsl.environment import StreamEnvironment
from repro.dsl.operators import AggregateFunction
from repro.sql.parser import parse_sql

#: Extra columns a windowed aggregation exposes to SELECT/HAVING.
WINDOW_START = "window_start"
WINDOW_END = "window_end"


class CompositeAggregate(AggregateFunction):
    """Evaluates all of a query's aggregate expressions in one pass.

    The accumulator is one slot per aggregate; windows are append-only so
    no retraction support is needed, and ``merge`` (for sessions) combines
    slot-wise.
    """

    def __init__(self, specs, evaluators) -> None:
        self._specs = specs          # list[AggregateExpr]
        self._evaluators = evaluators  # arg evaluator or None (COUNT(*))

    def create_accumulator(self) -> list:
        out = []
        for spec in self._specs:
            if spec.kind in (AggregateKind.COUNT,):
                out.append(0)
            elif spec.kind is AggregateKind.AVG:
                out.append((0, 0))
            elif spec.kind is AggregateKind.SUM:
                out.append((0, 0))  # (sum, non-null count)
            else:  # MIN / MAX
                out.append(None)
        return out

    def add(self, accumulator: list, record: Record) -> list:
        out = list(accumulator)
        for i, (spec, evaluator) in enumerate(
                zip(self._specs, self._evaluators)):
            value = 1 if evaluator is None else evaluator(record.values)
            if evaluator is not None and value is None:
                continue
            if spec.kind is AggregateKind.COUNT:
                out[i] += 1
            elif spec.kind in (AggregateKind.SUM, AggregateKind.AVG):
                total, count = out[i]
                out[i] = (total + value, count + 1)
            elif spec.kind is AggregateKind.MIN:
                out[i] = value if out[i] is None else min(out[i], value)
            else:
                out[i] = value if out[i] is None else max(out[i], value)
        return out

    def merge(self, left: list, right: list) -> list:
        out = []
        for spec, a, b in zip(self._specs, left, right):
            if spec.kind is AggregateKind.COUNT:
                out.append(a + b)
            elif spec.kind in (AggregateKind.SUM, AggregateKind.AVG):
                out.append((a[0] + b[0], a[1] + b[1]))
            elif a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            elif spec.kind is AggregateKind.MIN:
                out.append(min(a, b))
            else:
                out.append(max(a, b))
        return out

    def get_result(self, accumulator: list) -> list:
        out = []
        for spec, slot in zip(self._specs, accumulator):
            if spec.kind is AggregateKind.COUNT:
                out.append(slot)
            elif spec.kind is AggregateKind.SUM:
                total, count = slot
                out.append(total if count else None)
            elif spec.kind is AggregateKind.AVG:
                total, count = slot
                out.append(total / count if count else None)
            else:
                out.append(slot)
        return out


class SQLEngine:
    """The streaming-SQL front end: catalog + parser + planner + DSL
    compiler.

    Queries lower into the unified logical IR (:mod:`repro.plan`), run
    through the shared rule optimizer, and the optimised tree compiles
    to a DSL pipeline on the dataflow runtime (Figure 4's stack).
    """

    def __init__(self, parallelism: int = 1, optimize: bool = True) -> None:
        self.catalog = Catalog()
        self.parallelism = parallelism
        self._optimize = optimize

    def register_stream(self, name: str, schema: Schema) -> None:
        self.catalog.register_stream(name, schema)

    def plan(self, text: str, optimize: bool | None = None):
        """Parse and lower a query to the unified IR (optimised)."""
        from repro.sql.lower import lower_statement
        statement = parse_sql(text)
        plan = lower_statement(statement, self.catalog)
        if optimize if optimize is not None else self._optimize:
            from repro.plan.rules import optimize as run_rules
            plan = run_rules(plan)
        return plan

    def explain(self, text: str) -> str:
        """EXPLAIN: the optimised IR tree with strategy annotations."""
        from repro.plan.explain import explain_logical
        return explain_logical(self.plan(text))

    def run(self, text: str,
            rows: Iterable[tuple[Mapping[str, Any], Timestamp]],
            ) -> list[Record]:
        """Parse, plan, optimise and execute a query over recorded rows.

        Returns output records in (timestamp, repr) order.  ``EMIT FINAL``
        windowed queries fire per window close; ``EMIT CHANGES`` queries
        emit per refinement.
        """
        from repro.sql.lower import compile_to_dsl
        plan = self.plan(text)
        env = StreamEnvironment(parallelism=self.parallelism)
        compile_to_dsl(plan, env, rows).sink("out")
        result = env.execute()
        return [element.value for element in result.sink_outputs["out"]]


def run_sql(text: str, schema: Schema, stream_name: str,
            rows: Iterable[tuple[Mapping[str, Any], Timestamp]],
            parallelism: int = 1) -> list[Record]:
    """One-shot convenience: register, run, return records."""
    engine = SQLEngine(parallelism=parallelism)
    engine.register_stream(stream_name, schema)
    return engine.run(text, rows)
