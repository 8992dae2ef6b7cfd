"""Calls per service quantum of one cqbench workload, by function, and
calls per tick by layer.

    python3 tools/call_census.py --workload query_fleet [--base HEAD] \\
        [--ticks N] [--top K]

(or ``make census W=query_fleet BASE=HEAD``; ``--workload`` takes one
workload, a comma list, or ``all``).  One seed-1 pass of the
workload runs in a child process at a fixed ``PYTHONHASHSEED``, with a
``sys.setprofile`` hook installed around each ``DSMSEngine.run_until_idle``
(each ``DynamicTableService.tick`` for ``view_cascade``) of the ticks
after the pass's first fifth — the share cqbench's warm-up takes, so
registration at start-up and the fleet filling up stay out.  A *quantum*
is what the hooked call returns for the DSMS workloads (the quanta it
ran), and one hooked call for ``view_cascade``.  The tool prints the
Python-level and C calls per quantum, then each function's calls per
quantum: engine code as ``module:qualified name``, generated kernels by
their pseudo-filename (which spells the shape they render), and C
functions by their qualified name.

The same hook counts more layers over the same ticks: per tick,
``ingest`` (each ``DSMSEngine.ingest`` and ``ingest_many``; each
``DynamicTableService.apply`` for ``view_cascade``) and ``read`` (each
``QueryHandle.store_state``; each ``DynamicTableService.read``), and per
checkpoint, ``checkpoint``: the calls inside each ``DSMSEngine.snapshot``
(the engine's barrier, which a recovery checkpoint takes inside a drain
or an ingest).  A call made inside another hooked call counts under the
outer one's layer, and a call inside a snapshot counts under its
caller's layer as well as under ``checkpoint``, so the drain's
per-quantum numbers are the same as with the drain hooked alone.

Counts, not clocks: two runs of one tree print the same numbers, so one
run answers whether a change added or removed work on the hot path.
With ``--base REV`` the revision is exported with ``git archive`` (as
``tools/cqbench_pairs.py`` exports its base), the same pass runs in it,
and the tool prints base → change per function, largest movers first.
``--ticks`` shortens the pass (default: the workload's full pass).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The hash seed every census child runs at: set and dict orders of
#: strings, and so every count, repeat from run to run.
HASH_SEED = "1"
SEED = 1
#: The layers counted beside the drain's per-quantum census: per tick,
#: except ``checkpoint``, per engine snapshot.
LAYERS = ("ingest", "read", "checkpoint")


def measure(root: Path, workload: str, ticks: int | None) -> dict:
    """One census pass of ``workload`` over the tree at ``root``, in this
    process: ``{"quanta", "ticks", "checkpoints", "python", "c",
    "layers"}``; ``python`` and ``c`` are ``{function: calls}`` summed
    over every hooked drain call, ``layers`` holds the same pair for each
    of :data:`LAYERS`, and ``checkpoints`` counts the snapshots taken.
    """
    sys.path[:0] = [str(root / "src"), str(root)]
    from cqbench.workloads import WORKLOADS
    from repro.dsms import DSMSEngine
    from repro.dsms.engine import QueryHandle
    from repro.views import DynamicTableService

    cls = WORKLOADS[workload]
    ticks = cls.ticks if ticks is None else ticks
    counters = {layer: (Counter(), Counter()) for layer in ("drain", *LAYERS)}
    quanta = [0]
    counting = [False]
    setprofile = sys.setprofile
    snapshot = DSMSEngine.snapshot.__code__
    checkpoint_python, checkpoint_c = counters["checkpoint"]
    #: The snapshot frame being counted, and the snapshots counted.
    inside, checkpoints = [None], [0]

    def profiler_of(layer: str):
        python, c_calls = counters[layer]

        def profiler(frame, event, arg):
            if event == "call":
                code = frame.f_code
                module = frame.f_globals.get("__name__")
                where = code.co_filename if module is None \
                    or code.co_filename.startswith("<") else module
                name = f"{where}:{code.co_qualname}"
                python[name] += 1
                if inside[0] is not None:
                    checkpoint_python[name] += 1
                elif code is snapshot:
                    inside[0] = frame
                    checkpoints[0] += 1
            elif event == "c_call" and arg is not setprofile:
                name = getattr(arg, "__qualname__", None) \
                    or getattr(arg, "__name__", repr(arg))
                c_calls[name] += 1
                if inside[0] is not None:
                    checkpoint_c[name] += 1
            elif event == "return" and frame is inside[0]:
                inside[0] = None
        return profiler

    def hooked(owner, name: str, layer: str, per_call: bool = True):
        original, profiler = getattr(owner, name), profiler_of(layer)

        def wrapper(*args, **kwargs):
            if not counting[0] or sys.getprofile() is not None:
                return original(*args, **kwargs)
            setprofile(profiler)
            try:
                result = original(*args, **kwargs)
            finally:
                setprofile(None)
            if layer == "drain":
                quanta[0] += 1 if per_call else result
            return result
        setattr(owner, name, wrapper)

    if workload == "view_cascade":
        hooked(DynamicTableService, "tick", "drain")
        hooked(DynamicTableService, "apply", "ingest")
        hooked(DynamicTableService, "read", "read")
    else:
        hooked(DSMSEngine, "run_until_idle", "drain", per_call=False)
        hooked(DSMSEngine, "ingest", "ingest")
        hooked(DSMSEngine, "ingest_many", "ingest")
        hooked(QueryHandle, "store_state", "read")
    passing = cls(cls.generate(SEED, ticks))
    first = ticks // 5
    for i in range(ticks):
        counting[0] = i >= first
        passing.tick(i)
    python, c_calls = counters["drain"]
    return {"quanta": quanta[0], "ticks": [first, ticks - 1],
            "checkpoints": checkpoints[0],
            "python": dict(python), "c": dict(c_calls),
            "layers": {layer: {"python": dict(counters[layer][0]),
                               "c": dict(counters[layer][1])}
                       for layer in LAYERS}}


def census(root: Path, workload: str, ticks: int | None) -> dict:
    """:func:`measure` in a child process over the tree at ``root``, at
    :data:`HASH_SEED`, reading and writing no compiled bytecode."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--root", str(root), "--json"]
    if ticks is not None:
        command += ["--ticks", str(ticks)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="census-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        done = subprocess.run(command, cwd=root, env=env, text=True,
                              stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"census of {workload} in {root} failed")
    return json.loads(done.stdout)


def per_quantum(result: dict, n: int | None = None) -> dict[str, float]:
    """Every function's calls per quantum (per ``n`` when given), Python
    ones first-class and C ones prefixed ``C ``."""
    n = max(1, result["quanta"] if n is None else n)
    out = {name: calls / n for name, calls in result["python"].items()}
    out.update({f"C {name}": calls / n
                for name, calls in result["c"].items()})
    return out


def totals(result: dict, n: int | None = None) -> tuple[float, float]:
    n = max(1, result["quanta"] if n is None else n)
    return (sum(result["python"].values()) / n,
            sum(result["c"].values()) / n)


def counted_ticks(result: dict) -> int:
    first, last = result["ticks"]
    return last - first + 1


def layers(result: dict) -> dict[str, tuple[dict, int, str]]:
    """Each counted layer's census, what its counts are divided by and
    its unit: the drain's and, when the result has them, :data:`LAYERS`'
    (per tick; the checkpoint layer per snapshot, when any was taken)."""
    ticks = counted_ticks(result)
    out = {"drain": (result, ticks, "tick")}
    for layer, counted in result.get("layers", {}).items():
        if layer != "checkpoint":
            out[layer] = (counted, ticks, "tick")
        elif result.get("checkpoints"):
            out[layer] = (counted, result["checkpoints"], "checkpoint")
    return out


def report(workload: str, result: dict, top: int) -> None:
    python, c_calls = totals(result)
    first, last = result["ticks"]
    print(f"{workload}: {result['quanta']} quanta in ticks {first}-{last} "
          f"of a seed-{SEED} pass; per quantum {python:.2f} Python calls, "
          f"{c_calls:.2f} C calls")
    rows = sorted(per_quantum(result).items(), key=lambda kv: (-kv[1], kv[0]))
    for name, calls in rows[:top]:
        print(f"{calls:10.3f}  {name}")
    for layer, (counted, n, unit) in layers(result).items():
        python, c_calls = totals(counted, n)
        print(f"{layer} per {unit}: {python:.2f} Python calls, "
              f"{c_calls:.2f} C calls")
        if layer == "drain":
            continue
        rows = sorted(per_quantum(counted, n).items(),
                      key=lambda kv: (-kv[1], kv[0]))
        for name, calls in rows[:top]:
            print(f"{calls:10.3f}  {name}")


def print_moved(a: dict[str, float], b: dict[str, float], top: int) -> None:
    """The ``top`` functions whose calls moved most from ``a`` to ``b``."""
    moved = [(b.get(name, 0.0) - a.get(name, 0.0), name)
             for name in set(a) | set(b)
             if round(a.get(name, 0.0), 6) != round(b.get(name, 0.0), 6)]
    moved.sort(key=lambda item: (-abs(item[0]), item[1]))
    print(f"{'base':>10s} {'change':>10s} {'delta':>10s}  function")
    for delta, name in moved[:top]:
        print(f"{a.get(name, 0.0):10.3f} {b.get(name, 0.0):10.3f} "
              f"{delta:+10.3f}  {name}")


def report_diff(workload: str, base: dict, change: dict, top: int) -> None:
    (bp, bc), (cp, cc) = totals(base), totals(change)
    print(f"{workload}: quanta {base['quanta']} -> {change['quanta']}; "
          f"per quantum Python calls {bp:.2f} -> {cp:.2f} ({cp - bp:+.2f}), "
          f"C calls {bc:.2f} -> {cc:.2f} ({cc - bc:+.2f})")
    print_moved(per_quantum(base), per_quantum(change), top)
    if "layers" not in base or "layers" not in change:
        return
    before, after = layers(base), layers(change)
    for layer in [layer for layer in before if layer in after]:
        (was, n, unit), (now, m, _) = before[layer], after[layer]
        (bp, bc), (cp, cc) = totals(was, n), totals(now, m)
        print(f"{workload} {layer} per {unit}: Python calls {bp:.2f} -> "
              f"{cp:.2f} ({cp - bp:+.2f}), C calls {bc:.2f} -> {cc:.2f} "
              f"({cc - bc:+.2f})")
        if layer != "drain":
            print_moved(per_quantum(was, n), per_quantum(now, m), top)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="call_census")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default=None)
    parser.add_argument("--ticks", type=int, default=None)
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--root", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.json:
        json.dump(measure(Path(args.root), args.workload, args.ticks),
                  sys.stdout)
        return 0
    declared = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = declared if args.workload == "all" \
        else args.workload.split(",")
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {declared}")
    if args.base is None:
        for workload in workloads:
            report(workload, census(ROOT, workload, args.ticks), args.top)
        return 0
    sys.path.insert(0, str(ROOT / "tools"))
    from cqbench_pairs import export

    with tempfile.TemporaryDirectory(prefix="census-base-") as tmp:
        export(args.base, Path(tmp))
        for workload in workloads:
            base = census(Path(tmp), workload, args.ticks)
            change = census(ROOT, workload, args.ticks)
            report_diff(workload, base, change, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
