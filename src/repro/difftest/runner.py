"""Fuzz campaign driver for the differential oracle.

``fuzz`` runs a seeded campaign over CQL cases and core-window cases,
optionally shrinking any divergence and emitting repro files.  Timing and
throughput go into the standard ``BENCH_<name>.json`` payload via the
bench harness, so fuzz runs are tracked like any other benchmark.
"""

from __future__ import annotations

import pathlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.bench.harness import bench_result, write_bench_json

from repro.difftest.generators import (
    Case,
    CoreWindowCase,
    ViewCase,
    gen_case,
    gen_core_window_case,
    gen_view_case,
)
from repro.difftest.oracle import (
    AXES,
    RESCALE_CONFIGS,
    Config,
    Divergence,
    check_negative_timestamp_rejection,
    run_case,
    run_core_window_case,
    run_view_case,
)
from repro.difftest import shrinker


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int | None
    cases: int
    core_cases: int
    view_cases: int = 0
    rescale_cases: int = 0
    #: CQL divergences, the rescale campaign's included.
    failures: list[tuple[Case, Divergence]] = field(default_factory=list)
    core_failures: list[tuple[CoreWindowCase, Divergence]] = \
        field(default_factory=list)
    view_failures: list[tuple[ViewCase, Divergence]] = \
        field(default_factory=list)
    consistency_problems: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    repro_paths: list[pathlib.Path] = field(default_factory=list)
    #: Axis → value → configs run with it (see :data:`AXES`).
    coverage: dict[str, Counter] = field(
        default_factory=lambda: {axis: Counter() for axis in AXES})
    #: Query shape → CQL cases drawn of it (see
    #: :func:`~repro.difftest.generators.draw_query`).
    shapes: Counter = field(default_factory=Counter)

    def count(self, configs: list[Config]) -> None:
        for config in configs:
            for axis, values in self.coverage.items():
                values[getattr(config, axis)] += 1

    @property
    def clean(self) -> bool:
        return (not self.failures and not self.core_failures
                and not self.view_failures and not self.consistency_problems)

    def summary(self) -> str:
        status = "clean" if self.clean else (
            f"{len(self.failures)} CQL + {len(self.core_failures)} core "
            f"+ {len(self.view_failures)} view divergences, "
            f"{len(self.consistency_problems)} consistency problems")
        runs = "; ".join(
            f"{axis} " + " ".join(f"{value}={values[value]}"
                                  for value in AXES[axis])
            for axis, values in self.coverage.items())
        shapes = ", ".join(f"{shape}={n}"
                           for shape, n in sorted(self.shapes.items()))
        return (f"difftest: {self.cases} CQL cases, {self.core_cases} core "
                f"cases, {self.view_cases} view cases, "
                f"{self.rescale_cases} rescale cases in "
                f"{self.elapsed_seconds:.1f}s — {status}\n"
                f"  config runs per axis value: {runs}\n"
                f"  CQL and rescale cases per query shape: {shapes}")


def fuzz(seed: int | None = 0, cases: int = 500, core_cases: int = 200,
         view_cases: int = 100, rescale_cases: int = 0,
         shrink: bool = True, max_failures: int = 5,
         repro_dir: str | pathlib.Path | None = None,
         bench_dir: str | pathlib.Path | None = None,
         bench_name: str = "difftest_fuzz") -> FuzzReport:
    """Run one fuzz campaign.

    ``seed=None`` draws fresh system entropy (the long-run mode behind
    ``make fuzz``); any integer gives a fully deterministic campaign.
    Stops early after ``max_failures`` divergences.  ``rescale_cases``
    runs *additional* cases through only the live-rescale configs
    (:data:`RESCALE_CONFIGS`; every regular case draws one as a
    baseline) — the targeted campaign behind ``--rescale-cases`` and
    ``make bench-rescale``.  Each divergence is shrunk under the config
    that diverged.
    """
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases=cases, core_cases=core_cases,
                        view_cases=view_cases,
                        rescale_cases=rescale_cases)
    started = time.perf_counter()

    report.consistency_problems = check_negative_timestamp_rejection()

    def campaign(count: int, failures: list, label: str, gen, run,
                 shrink_case, emit) -> None:
        for index in range(count):
            if len(failures) >= max_failures:
                break
            case = gen(rng, seed=index)
            divergence = run(case)
            if divergence is None:
                continue
            if shrink and shrink_case is not None:
                case, divergence = shrink_case(case, divergence)
            failures.append((case, divergence))
            if repro_dir is not None:
                name = f"test_repro_{label}_{index}.py"
                report.repro_paths.append(
                    emit(case, divergence, pathlib.Path(repro_dir) / name))

    def cql(configs: list[Config] | None):
        def run(case: Case) -> Divergence | None:
            report.shapes[case.shape] += 1
            ran: list[Config] = []
            divergence = run_case(case, configs, ran)
            report.count(ran)
            return divergence
        return run

    campaign(cases, report.failures, "cql", gen_case, cql(None),
             shrinker.shrink_case, shrinker.emit_repro)
    campaign(core_cases, report.core_failures, "core", gen_core_window_case,
             run_core_window_case, shrinker.shrink_core_case,
             shrinker.emit_core_repro)
    # View cases are not shrunk: the event script's meaning depends on DAG
    # order, so slicing it produces mostly-invalid cases.  The repro
    # embeds the full case instead.
    campaign(view_cases, report.view_failures, "views", gen_view_case,
             run_view_case, None, shrinker.emit_view_repro)
    campaign(rescale_cases, report.failures, "rescale", gen_case,
             cql(list(RESCALE_CONFIGS)), shrinker.shrink_case,
             shrinker.emit_repro)

    report.elapsed_seconds = time.perf_counter() - started

    if bench_dir is not None:
        write_bench_json(_bench_payload(report, bench_name), bench_dir)
    return report


def _bench_payload(report: FuzzReport, name: str) -> dict[str, Any]:
    total = (report.cases + report.core_cases + report.view_cases
             + report.rescale_cases)
    rate = total / report.elapsed_seconds if report.elapsed_seconds else 0.0
    return bench_result(
        name,
        seed=report.seed,
        cql_cases=report.cases,
        core_cases=report.core_cases,
        view_cases=report.view_cases,
        rescale_cases=report.rescale_cases,
        failures=(len(report.failures) + len(report.core_failures)
                  + len(report.view_failures)),
        consistency_problems=list(report.consistency_problems),
        coverage={axis: {str(value): n for value, n in values.items()}
                  for axis, values in report.coverage.items()},
        elapsed_seconds=round(report.elapsed_seconds, 3),
        cases_per_second=round(rate, 1),
    )
