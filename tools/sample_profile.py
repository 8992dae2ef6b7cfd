"""Where one cqbench workload pass spends its CPU time, by sampling.

    python3 tools/sample_profile.py --workload agg_firehose [--ticks N] \\
        [--top K]

(or ``make profile W=agg_firehose``; ``--workload`` takes one workload,
a comma list, or ``all``).  Five seed-1 passes of the workload run in
this process under a statistical profiler: a ``SIGPROF`` timer
(``setitimer(ITIMER_PROF)``, which counts the process's CPU time) is
armed to fire every millisecond, and each firing records the Python stack it
interrupted.  The ticks before each pass's first fifth are not sampled
(the share cqbench's warm-up takes), so registration and the first
fill stay out.  The tool prints, per function, its *leaf* share — the
samples taken while it was the innermost Python frame, which includes
the C calls it made — and its *inclusive* share — the samples with it
anywhere on the stack, counted once per sample however deep it recurs.
The kernel serves the timer at its tick rate, so on a 250 Hz kernel a
sample lands every ~4 ms and a 1.4 s pass gives ~300 samples: the
header prints the samples and the CPU seconds they cover.
Engine code is named ``module:qualified name`` and generated kernels by
their pseudo-filename, which spells the shape they render.

Why sample rather than trace: a tracing profiler (cProfile,
``sys.setprofile``) pays per call, so it overstates code that makes
many small calls against code that makes few; a sample costs the same
wherever it lands.  And why shares: on a shared box the clock speed can
swing by a third within seconds, which moves every absolute time, but
the shares within one run do not depend on it.  For counts that do not
move at all, see ``tools/call_census.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
#: Passes sampled per run.
PASSES = 5
#: Seconds of process CPU time between two samples.
INTERVAL = 0.001


def where(code, module: str | None) -> str:
    """A code object's name in a report: ``module:qualified name``, or
    the pseudo-filename of generated code (and of code with no module)."""
    place = code.co_filename if module is None \
        or code.co_filename.startswith("<") else module
    return f"{place}:{code.co_qualname}"


class Sampler:
    """A ``SIGPROF`` sampler of the calling (main) thread's stacks.

    ``start()`` arms the timer, ``stop()`` disarms it and puts the old
    handler back; in between every firing adds one sample.  ``leaf``
    and ``inclusive`` count samples per function (see the module doc).
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples = 0
        self.leaf: Counter = Counter()
        self.inclusive: Counter = Counter()
        #: Process CPU seconds while armed.
        self.cpu_seconds = 0.0
        self._previous = None
        self._started = 0.0

    def _sample(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.leaf[where(frame.f_code, frame.f_globals.get("__name__"))] += 1
        seen = set()
        while frame is not None:
            seen.add(where(frame.f_code, frame.f_globals.get("__name__")))
            frame = frame.f_back
        self.inclusive.update(seen)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_seconds += time.process_time() - self._started
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def shares(self, counts: Counter) -> dict[str, float]:
        """``counts`` as shares of the samples, largest first."""
        n = max(1, self.samples)
        return {name: hits / n for name, hits in sorted(
            counts.items(), key=lambda item: (-item[1], item[0]))}


def profile(workload: str, ticks: int | None) -> Sampler:
    """:data:`PASSES` sampled seed-1 passes of ``workload`` over this
    checkout, into one :class:`Sampler`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from cqbench.workloads import WORKLOADS

    cls = WORKLOADS[workload]
    ticks = cls.ticks if ticks is None else ticks
    inputs = cls.generate(SEED, ticks)
    sampler = Sampler()
    first = ticks // 5
    for _ in range(PASSES):
        passing = cls(inputs)
        for i in range(ticks):
            if i == first:
                sampler.start()
            passing.tick(i)
        sampler.stop()
    return sampler


def report(workload: str, ticks: int | None, sampler: Sampler,
           top: int) -> None:
    print(f"{workload}: {sampler.samples} samples over "
          f"{sampler.cpu_seconds:.2f} CPU s of {PASSES} seed-{SEED} passes"
          + (f" of {ticks} ticks" if ticks is not None else ""))
    for title, counts in (("leaf", sampler.leaf),
                          ("inclusive", sampler.inclusive)):
        print(f"{title}:")
        for name, share in list(sampler.shares(counts).items())[:top]:
            print(f"{share:8.1%}  {name}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="sample_profile")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ticks", type=int, default=None)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    declared = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = declared if args.workload == "all" \
        else args.workload.split(",")
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {declared}")
    for workload in workloads:
        report(workload, args.ticks, profile(workload, args.ticks), args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
