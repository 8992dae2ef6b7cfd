"""Alternating A/B runs of one cqbench workload: a base revision vs the
working tree.

    python3 tools/cqbench_pairs.py --workload join_recover --pairs 10 \\
        --base HEAD [--trace]

(or ``make cqbench-pairs W=join_recover N=10 BASE=HEAD``).  ``--workload``
takes one workload, a comma list, or ``all`` (every workload
``BENCHMARK.json`` declares): "did anything get slower" in one command.
The base revision is exported with ``git archive`` into a temporary
directory, once; the change is the checkout this script lives in,
uncommitted edits included.  Pair ``i`` (from 0) runs both sides with
seed ``1 + i``, and which side runs first flips from pair to pair, so a
slow spell of the box lands on both sides alike.  Every run is one
``python3 -m cqbench --workload W`` subprocess in its side's directory,
at the run length its own ``BENCHMARK.json`` sets, that neither reads
nor writes compiled bytecode (:func:`child_env`).

Each workload prints one block: a line per run, then per metric each
side's median and quartiles, the change of the medians, whether that
change exceeds the base's interquartile range, and the pairs the change
won (by the metric's ``better`` direction in ``BENCHMARK.json``), then
the verdict: ``claim`` says whether the change meets the rule for
claiming a gain on that metric (wins in at least 9 of 10 pairs and a
median better by more than the base's interquartile range), ``bound``
whether an end-to-end metric's median stays within the ``bound``
``BENCHMARK.json`` gives it (``ok``), or is worse by more (``WORSE``).
``--trace`` runs ``--trace 1`` and compares the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` (``git archive``)."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def child_env(cache: str) -> dict[str, str]:
    """The environment of one cqbench run: this one, with bytecode
    neither written nor read from the side's tree.  ``cache`` is an
    empty directory that stands in for every ``__pycache__``, so both
    sides compile from source whatever caches their trees hold (a
    compiled cache moves ``peak_rss_mb`` by ~10%)."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPYCACHEPREFIX=cache)


def run(side: Path, workload: str, trace: bool, seed: int) -> dict:
    """One cqbench run; returns ``{metric: value}``."""
    command = [sys.executable, "-m", "cqbench", "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    with tempfile.TemporaryDirectory(prefix="cqbench-pycache-") as cache:
        done = subprocess.run(command, cwd=side, stdout=subprocess.PIPE,
                              text=True, env=child_env(cache))
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


class Verdict(NamedTuple):
    """One metric's comparison over the pairs: each side's ``(q1, median,
    q3)``, the relative change of the medians, whether the change is
    better by more than the base's interquartile range, the pairs it
    won, whether that meets the rule for claiming a gain, and whether
    the median stays within the metric's bound (None: it declares
    none)."""

    base: tuple[float, float, float]
    change: tuple[float, float, float]
    delta: float
    beyond: bool
    wins: int
    claim: bool
    within: bool | None


def compare(a: list[float], b: list[float], better: str,
            bound: float | None) -> Verdict:
    """Compare the base runs ``a`` with the change runs ``b`` (pair ``i``
    is ``a[i]``, ``b[i]``).  A claimed gain needs wins in at least 9 of
    every 10 pairs and a median better by more than the base's
    interquartile range; a metric stays within its ``bound`` unless its
    median is worse than the base median by more than that fraction."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    beyond = sign * (bm - am) > a3 - a1
    within = None if bound is None else -sign * (bm - am) <= bound * abs(am)
    return Verdict((a1, am, a3), (b1, bm, b3),
                   (bm - am) / am if am else float("nan"), beyond, wins,
                   beyond and 10 * wins >= 9 * len(a), within)


def summarise(series: dict[str, list[dict]], better: dict[str, str],
              bounds: dict[str, float]) -> None:
    base, change = series["base"], series["change"]
    print(f"\n{'metric':26s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'delta':>8s} "
          f"{'> base IQR':>10s} {'wins':>6s} {'claim':>6s} {'bound':>6s}")
    for name in base[0]:
        verdict = compare([run[name] for run in base],
                          [run[name] for run in change],
                          better.get(name, "lower"), bounds.get(name))
        spread = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
                  for q1, m, q3 in (verdict.base, verdict.change)]
        bound = {None: "-", True: "ok", False: "WORSE"}[verdict.within]
        print(f"{name:26s} {spread[0]:>30s} {spread[1]:>30s} "
              f"{verdict.delta:+8.1%} "
              f"{'yes' if verdict.beyond else 'no':>10s} "
              f"{verdict.wins:3d}/{len(base)} "
              f"{'yes' if verdict.claim else 'no':>6s} {bound:>6s}")


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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    declared = [w["name"] for w in spec["workloads"]]
    workloads = declared if args.workload == "all" \
        else args.workload.split(",")
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {declared}")
    with tempfile.TemporaryDirectory(prefix="cqbench-base-") as tmp:
        sides = {"base": Path(tmp), "change": ROOT}
        export(args.base, sides["base"])
        for workload in workloads:
            print(f"\n== {workload} ==", flush=True)
            series: dict[str, list[dict]] = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 \
                    else ("change", "base")
                seed = 1 + pair
                for name in order:
                    metrics = run(sides[name], workload, args.trace, seed)
                    series[name].append(metrics)
                    print(f"pair {pair + 1:2d} {name:6s} seed={seed} "
                          + " ".join(f"{k}={v:.5g}"
                                     for k, v in metrics.items()),
                          flush=True)
            summarise(series, better, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
