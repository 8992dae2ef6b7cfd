"""Command line of cqbench.

``python3 -m cqbench [run] --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process and prints its metrics; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Without ``--workload`` every workload runs in a
subprocess of its own.  ``--smoke`` runs 1/20 of the ticks, one pass.
``python3 -m cqbench aa --sets 3`` runs the suite several times back to
back and compares the spread of every end-to-end metric with its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SCALE = 1 / 20


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m cqbench")
    parser.add_argument("mode", nargs="?", choices=("run", "aa"),
                        default="run")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --trace 1: write the last traced "
                             "pass's spans here as JSON")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=3)
    args = parser.parse_args(argv)
    args.spec = spec
    return args


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this process."""
    from cqbench.harness import END_TO_END, PER_LAYER, Run

    run = Run(args.workload, args.seed, args.seconds,
              scale=SMOKE_SCALE if args.smoke else 1.0)
    if args.trace:
        metrics, units = run.trace(args.trace_out), PER_LAYER
    else:
        metrics, units = run.measure(), END_TO_END
    print(run.report(metrics, units))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def child(args: argparse.Namespace, workload: str, seed: int) -> dict | None:
    """Run one workload in a subprocess; returns its result object."""
    command = [sys.executable, "-m", "cqbench", "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    results = [child(args, w["name"], args.seed)
               for w in args.spec["workloads"]]
    return 0 if all(results) else 1


def aa(args: argparse.Namespace) -> int:
    """Same code, ``--sets`` suites back to back: every end-to-end
    metric's (max - min) / median must stay within its bound.  Set ``i``
    runs with ``--seed + i``: the driver that accepts the benchmark gives
    every run another seed, so the spread shown here includes what the
    inputs add to it."""
    bounds = {m["name"]: m["bound"] for m in args.spec["end_to_end"]}
    args.trace = 0
    values: dict[tuple[str, str], list[float]] = {}
    for index in range(args.sets):
        for workload in args.spec["workloads"]:
            result = child(args, workload["name"], args.seed + index)
            if result is None:
                print(f"aa: {workload['name']} failed in set {index + 1}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault((workload["name"], name), []) \
                    .append(metric["value"])
    worst = 0
    print(f"\nA/A over {args.sets} sets: (max - min) / median vs bound")
    for (workload, name), series in values.items():
        spread = (max(series) - min(series)) / statistics.median(series)
        verdict = "ok" if spread <= bounds[name] else "EXCEEDS"
        worst += verdict != "ok"
        print(f"  {workload:13s} {name:15s} {spread:7.2%}  "
              f"bound {bounds[name]:.0%}  {verdict}  "
              + " ".join(f"{v:.5g}" for v in series))
    return 1 if worst else 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.mode == "aa":
        return aa(args)
    if args.workload is None:
        return run_all(args)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"cqbench: no engine sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
