"""Differential correctness harness across the three evaluators.

The paper defines continuous semantics by re-execution (Section 3.1): the
incremental executor is correct only if it agrees with the denotational
reference evaluator at every instant — Krämer & Seeger's
*snapshot-reducibility*, made machine-checkable.  This package fuzzes
random (query, stream) pairs through

* ``repro.cql.reference`` — the denotational ground truth,
* ``repro.cql.executor`` — the incremental delta executor (both the
  optimised and the naive plan),
* ``repro.dsms`` — the full DSMS engine, its instants serviced whole
  and split across scheduling quanta,

plus a core-layer leg comparing the sparse S2R change-log against dense
per-instant evaluation for every window class.  Any divergence is shrunk
with delta debugging to a minimal repro and emitted as a standalone pytest
file.  A mutation smoke-check injects known bug classes to prove the
oracle actually catches them.
"""

from repro.difftest.generators import (
    ALERTS_SCHEMA,
    OBS_SCHEMA,
    ROOMS_ROWS,
    ROOMS_SCHEMA,
    Case,
    CoreWindowCase,
    ViewCase,
    build_engine,
    build_streams,
    build_view_plans,
    gen_case,
    gen_core_window_case,
    gen_view_case,
)
from repro.difftest.oracle import (
    Divergence,
    check_negative_timestamp_rejection,
    run_case,
    run_core_window_case,
    run_view_case,
)
from repro.difftest.runner import FuzzReport, fuzz
from repro.difftest.shrinker import (
    emit_core_repro,
    emit_repro,
    emit_view_repro,
    shrink_case,
    shrink_core_case,
)
from repro.difftest.mutations import MUTANTS, apply_mutant

__all__ = [
    "ALERTS_SCHEMA",
    "OBS_SCHEMA",
    "ROOMS_ROWS",
    "ROOMS_SCHEMA",
    "Case",
    "CoreWindowCase",
    "Divergence",
    "ViewCase",
    "FuzzReport",
    "MUTANTS",
    "apply_mutant",
    "build_engine",
    "build_streams",
    "check_negative_timestamp_rejection",
    "build_view_plans",
    "emit_core_repro",
    "emit_repro",
    "emit_view_repro",
    "fuzz",
    "gen_view_case",
    "run_view_case",
    "shrink_core_case",
    "gen_case",
    "gen_core_window_case",
    "run_case",
    "run_core_window_case",
    "shrink_case",
]
