"""Which function lines of ``src/`` an entry reaches: a reach census.

    python3 tools/reach.py

(or ``make reach``).  Each entry runs in a child process under a global
trace hook that records every function of ``src/`` it calls.  The
non-test entries are:

* one seed-1 pass of each ``BENCHMARK.json`` workload, imported from
  ``cqbench.workloads`` and driven tick by tick, then its answers read
  and verified, as the harness does;
* every ``examples/`` script, run as ``__main__``;
* a 50-case ``repro.difftest`` run (50 cases in each of its campaigns);
* a 20-case ``repro.chaos`` run (20 crash cases, 20 broker seeds).

The tier-1 suite (``pytest tests``) is the last entry.  Every function
line then falls in one class: *reached* by a non-test entry, reached
only by *tier-1*, or reached by *nothing*.  The tool prints each
module's lines by class, then each package's and the total.

A function's lines are the source lines its bytecode spans, each line
counted once, in the innermost function that holds it.  Comprehensions
and lambdas count with the function around them; module-level code and
class bodies are not counted.  A function is reached when it is called
at all, not line by line.  The hook is ``sys.settrace`` (returning no
local tracer, so it sees calls only), not ``sys.setprofile``: several
tier-1 tests install and clear a profile hook of their own, which would
remove a profiling census hook for the rest of the run.  Tier-1 runs
slower under the hook; a test that fails there (a timing bound, say)
still counts what it reached, and the tool prints pytest's exit status
when it is not 0.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 1
CLASSES = ("reached", "tier-1", "never")
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

#: A function is one unit of the census: (file, first line, name).
Key = tuple[str, int, str]


def function_lines(path: Path) -> dict[Key, set[int]]:
    """Every function of the module at ``path`` → the source lines it
    holds (see the module docstring for what a function's lines are)."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    units: list[tuple[Key, list[CodeType]]] = []

    def walk(code: CodeType, unit: list[CodeType] | None) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            if unit is not None and const.co_name.startswith("<"):
                unit.append(const)  # a comprehension or lambda inside
                walk(const, unit)
            elif const.co_flags & CO_NEWLOCALS \
                    and const.co_name not in COMPREHENSIONS:
                # A function: a class body has no CO_NEWLOCALS.
                units.append(((str(path), const.co_firstlineno,
                               const.co_name), [const]))
                walk(const, units[-1][1])
            else:
                walk(const, None)

    walk(module, None)
    # Nested units come after their parent, so the innermost one keeps
    # a line both hold (a nested def's own line, say).
    owner: dict[int, Key] = {}
    for key, codes in units:
        for code in codes:
            for _, _, line in code.co_lines():
                if line is not None:
                    owner[line] = key
    lines: dict[Key, set[int]] = {key: set() for key, _ in units}
    for line, key in owner.items():
        lines[key].add(line)
    return lines


class Recorder:
    """The functions under ``prefix`` called while it is active, as
    census keys; the trace hook it replaces is put back on exit."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.codes: set[CodeType] = set()

    def _hook(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self.prefix):
            self.codes.add(code)
        return None

    def __enter__(self) -> "Recorder":
        self._previous = sys.gettrace()
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def keys(self) -> set[Key]:
        return {(code.co_filename, code.co_firstlineno, code.co_name)
                for code in self.codes}


def classify(functions: dict[Key, set[int]], entries: set[Key],
             tests: set[Key]) -> dict[str, dict[str, int]]:
    """Per file, its function lines by class: reached by a non-test
    entry, by tier-1 only, or by nothing."""
    out: dict[str, dict[str, int]] = defaultdict(
        lambda: dict.fromkeys(CLASSES, 0))
    for key, lines in functions.items():
        kind = "reached" if key in entries else \
            "tier-1" if key in tests else "never"
        out[key[0]][kind] += len(lines)
    return dict(out)


# -- the entries, each run in a child process ------------------------------


def run_workload(name: str) -> None:
    from cqbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    inputs = cls.generate(SEED, cls.ticks)
    driver = cls(inputs)
    for i in range(cls.ticks):
        driver.tick(i)
    problems = cls.verify(inputs, cls.ticks, driver.observe())
    if problems:
        raise SystemExit(f"{name}: {problems[:3]}")


def run_example(name: str) -> None:
    runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")


def run_difftest() -> None:
    from repro.difftest.__main__ import main

    if main(["--cases", "50", "--core-cases", "50", "--view-cases", "50",
             "--rescale-cases", "50", "--seed", "0"]):
        raise SystemExit("difftest found a divergence")


def run_chaos() -> None:
    from repro.chaos.__main__ import main

    if main(["--cases", "20", "--broker-seeds", "20", "--seed", "0"]):
        raise SystemExit("chaos campaign failed")


def run_tests() -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def entries() -> list[str]:
    declared = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return ([f"workload:{name}" for name in declared]
            + [f"example:{path.name}"
               for path in sorted((ROOT / "examples").glob("*.py"))]
            + ["difftest", "chaos", "tests"])


def run_entry(entry: str, out: Path) -> int:
    """Run one entry in this process under a :class:`Recorder`; write
    the keys it reached (paths relative to ``src/``) to ``out``."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    kind, _, name = entry.partition(":")
    status = 0
    with Recorder(str(SRC) + os.sep) as recorder:
        if kind == "tests":
            status = run_tests()
        else:
            {"workload": lambda: run_workload(name),
             "example": lambda: run_example(name),
             "difftest": run_difftest,
             "chaos": run_chaos}[kind]()
    keys = [[str(Path(f).relative_to(SRC)), line, fn]
            for f, line, fn in recorder.keys()]
    out.write_text(json.dumps({"keys": keys, "status": int(status)}))
    return 0


def census() -> tuple[dict[str, dict[str, int]], int]:
    """Run every entry in its own child; returns the per-file classes and
    the tier-1 exit status."""
    reached: set[Key] = set()
    tested: set[Key] = set()
    status = 0
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for entry in entries():
            out = Path(tmp) / "keys.json"
            print(f"reach: running {entry}", file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--entry",
                 entry, "--out", str(out)], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise SystemExit(f"reach: entry {entry} failed")
            result = json.loads(out.read_text())
            keys = {(f, line, fn) for f, line, fn in result["keys"]}
            if entry == "tests":
                tested |= keys
                status = result["status"]
            else:
                reached |= keys
    functions: dict[Key, set[int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for (_, line, fn), lines in function_lines(path).items():
            functions[(rel, line, fn)] = lines
    return classify(functions, reached, tested), status


def row(name: str, counts: dict[str, int]) -> str:
    total = sum(counts.values())
    return (f"{name:<40s} {total:>6d} "
            + " ".join(f"{counts[kind]:>8d}" for kind in CLASSES))


def report(per_file: dict[str, dict[str, int]]) -> None:
    header = f"{'lines of functions in':<40s} {'total':>6s} " \
        + " ".join(f"{kind:>8s}" for kind in CLASSES)
    print(header)
    packages: dict[str, dict[str, int]] = defaultdict(
        lambda: dict.fromkeys(CLASSES, 0))
    for rel in sorted(per_file):
        name = rel.removeprefix("repro/")
        print(row(name, per_file[rel]))
        package = name.rpartition("/")[0] + "/" if "/" in name else "./"
        for kind in CLASSES:
            packages[package][kind] += per_file[rel][kind]
            packages["total"][kind] += per_file[rel][kind]
    print()
    print(header)
    for package in sorted(packages, key=lambda p: (p == "total", p)):
        print(row(package, packages[package]))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="reach")
    parser.add_argument("--entry", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.entry:
        return run_entry(args.entry, Path(args.out))
    per_file, status = census()
    report(per_file)
    if status:
        print(f"\nreach: tier-1 exited {status} under the trace hook "
              "(its failures still count what they reached)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
