"""Alternating A/B runs of one cqbench workload: a base revision vs the
working tree.

    python3 tools/cqbench_pairs.py --workload join_recover --pairs 10 \\
        --base HEAD [--trace]

(or ``make cqbench-pairs W=join_recover N=10 BASE=HEAD``).  The base
revision is exported with ``git archive`` into a temporary directory;
the change is the checkout this script lives in, uncommitted edits
included.  Pair ``i`` (from 0) runs both sides with seed ``1 + i``, and
which side runs first flips from pair to pair, so a slow spell of the
box lands on both sides alike.  Every run is one ``python3 -m cqbench
--workload W`` subprocess in its side's directory, at the run length its
own ``BENCHMARK.json`` sets.

One line is printed per run, then per metric: each side's median and
quartiles, the change of the medians, whether that change exceeds the
base's interquartile range, and the pairs the change won (by the metric's
``better`` direction in ``BENCHMARK.json``).  ``--trace`` runs
``--trace 1`` and compares the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` (``git archive``)."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run(side: Path, args: argparse.Namespace, seed: int) -> dict:
    """One cqbench run; returns ``{metric: value}``."""
    command = [sys.executable, "-m", "cqbench", "--workload", args.workload,
               "--seed", str(seed), "--trace", "1" if args.trace else "0"]
    done = subprocess.run(command, cwd=side, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"cqbench failed in {side} (seed {seed}):\n"
                         + done.stdout)
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{result['failed']} failed ops in {side}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(series: dict[str, list[dict]], better: dict[str, str]) -> None:
    base, change = series["base"], series["change"]
    print(f"\n{'metric':26s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'delta':>8s} "
          f"{'> base IQR':>10s} {'wins':>6s}")
    for name in base[0]:
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        delta = (bm - am) / am if am else float("nan")
        beyond = sign * (bm - am) > a3 - a1
        spread = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
                  for q1, m, q3 in ((a1, am, a3), (b1, bm, b3))]
        print(f"{name:26s} {spread[0]:>30s} {spread[1]:>30s} "
              f"{delta:+8.1%} {'yes' if beyond else 'no':>10s} "
              f"{wins:3d}/{len(a)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="cqbench_pairs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    series: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="cqbench-base-") as tmp:
        sides = {"base": Path(tmp), "change": ROOT}
        export(args.base, sides["base"])
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 \
                else ("change", "base")
            seed = 1 + pair
            for name in order:
                metrics = run(sides[name], args, seed)
                series[name].append(metrics)
                print(f"pair {pair + 1:2d} {name:6s} seed={seed} "
                      + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                      flush=True)
    summarise(series, better)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
