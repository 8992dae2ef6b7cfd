"""CLI for differential fuzz campaigns.

Bounded seeded run (what CI does, also reachable via ``make fuzz``)::

    PYTHONPATH=src python -m repro.difftest --cases 500 --seed 0

Long unseeded run, emitting repro files for anything it finds::

    PYTHONPATH=src python -m repro.difftest --cases 20000 --unseeded \\
        --repro-dir ./difftest-repros --bench-dir .
"""

from __future__ import annotations

import argparse
import sys

from repro.difftest.runner import fuzz


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.difftest",
        description="Differential fuzzing across the three evaluators.")
    parser.add_argument("--cases", type=int, default=500,
                        help="CQL cases to run (default 500)")
    parser.add_argument("--core-cases", type=int, default=200,
                        help="core window cases to run (default 200)")
    parser.add_argument("--view-cases", type=int, default=100,
                        help="dynamic-table cases to run (default 100)")
    parser.add_argument("--rescale-cases", type=int, default=0,
                        help="extra cases through only the live-rescale "
                             "configs (every regular case draws one too; "
                             "default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--unseeded", action="store_true",
                        help="draw fresh entropy instead of --seed")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimising them")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many divergences (default 5)")
    parser.add_argument("--repro-dir", default=None,
                        help="emit standalone pytest repro files here")
    parser.add_argument("--bench-dir", default=None,
                        help="write BENCH_difftest_fuzz.json here")
    args = parser.parse_args(argv)

    report = fuzz(
        seed=None if args.unseeded else args.seed,
        cases=args.cases,
        core_cases=args.core_cases,
        view_cases=args.view_cases,
        rescale_cases=args.rescale_cases,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        repro_dir=args.repro_dir,
        bench_dir=args.bench_dir,
    )
    print(report.summary())
    for case, divergence in report.failures:
        print(f"  CQL divergence: {divergence}")
        print(f"    query: {case.query}")
        print(f"    streams: {case.streams}")
    for case, divergence in report.core_failures:
        print(f"  core divergence: {divergence}")
        print(f"    window: {case.window!r} rows: {case.rows}")
    for case, divergence in report.view_failures:
        print(f"  view divergence: {divergence}")
        print(f"    views: {case.views} events: {case.events}")
    for problem in report.consistency_problems:
        print(f"  consistency: {problem}")
    for path in report.repro_paths:
        print(f"  repro written: {path}")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
