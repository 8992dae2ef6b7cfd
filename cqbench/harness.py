"""Pass loop, machine-speed canary, statistics and reporting.

One *run* of one workload (one process): inputs are generated from the
seed, one warm-up pass (fresh engine, the first 20% of the ticks) is run
and its answers kept for the correctness check, then ``PASSES`` full
passes over fresh engines are measured.  A fixed pure-Python loop (the
*canary*) runs between ticks all through a pass; every tick's time is
scaled by the canary's speed around that tick, so a box that ran 15% slow
for ten seconds does not read as a 15% slower engine.  A run's
value for a metric is taken over each tick's median (scaled) time among
the passes (see :func:`fold`); the per-pass values and their quartiles
are printed beside it.  Correctness is checked outside every timed
region.

Closed loop, one client thread: a tick's events are ingested, the engine
is drained, the result read back — only then does the next tick start.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import statistics
from time import perf_counter

from cqbench.trace import NULL_TRACER, Tracer
from cqbench.workloads import WARMUP_SHARE, WORKLOADS, Workload

#: Measured passes of a run.  They take about 25 s at the seed commit;
#: ``--seconds`` cuts the count, never below ``MIN_PASSES``, only on a
#: box too slow to fit them, so the count does not depend on how fast the
#: code under test is.
PASSES = 9
MIN_PASSES = 5
#: Pairs of (untraced, traced) passes of a ``--trace 1`` run.
TRACE_PAIRS = 4
#: One canary chunk (about 0.4 ms) runs between two ticks whenever this
#: much of the pass has gone by since the last one: 2-8% of a pass.
CANARY_LOOPS = 5000
CANARY_EVERY_S = 0.005
#: A tick is scaled by the median of this many chunks run nearest to it
#: (25 ms of the pass or more): the box's slow spells last 2-15 s.
LOCAL_CHUNKS = 5
#: Canary loops per second on an undisturbed box of the kind the baseline
#: was measured on; times are reported as that box would have taken them.
CANARY_REFERENCE = 13_500_000.0

END_TO_END = {
    "throughput_eps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dsms.ingest.busy_s": "s",
    "dsms.ingest.count": "count",
    "dsms.drain.busy_s": "s",
    "dsms.drain.quanta": "count",
    "dsms.register.busy_s": "s",
    "dsms.register.count": "count",
    "dsms.cancel.busy_s": "s",
    "dsms.store_read.busy_s": "s",
    "dsms.state_entries": "count",
    "plan.compile.busy_s": "s",
    "plan.compile.count": "count",
    "plan.signature.busy_s": "s",
    "plan.distinct_signatures": "count",
    "exec.kernel.busy_s": "s",
    "exec.kernel.share": "ratio",
    "views.apply.busy_s": "s",
    "views.tick.busy_s": "s",
    "views.tick.refreshed": "count",
    "views.read.busy_s": "s",
    "views.changelog_entries": "count",
    "views.snapshot.busy_s": "s",
    "views.snapshot.bytes": "bytes",
    "chaos.checkpoint.count": "count",
    "chaos.checkpoint.bytes": "bytes",
    "chaos.ckpt_tick.busy_s": "s",
    "chaos.recover.count": "count",
    "chaos.recover.busy_s": "s",
    "chaos.replayed_records": "count",
    "gen.self_s": "s",
    "gen.canary_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (``p`` in (0, 100])."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def canary_chunk() -> int:
    """The fixed unit of pure-Python work the box's speed is read from."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(CANARY_LOOPS):
        acc += i & 7
        table[i & 1023] = acc
    return acc


def summarize(events: int, latencies: list[float],
              durations: list[float]) -> dict[str, float]:
    """Wall time, throughput and latency percentiles of one pass's ticks."""
    wall_s = sum(durations)
    ordered = sorted(latencies)
    return {"wall_s": wall_s,
            "throughput_eps": events / wall_s,
            "latency_p50_ms": 1e3 * percentile(ordered, 50),
            "latency_p95_ms": 1e3 * percentile(ordered, 95)}


def local_speeds(chunks: list[tuple[int, float]], ticks: int) -> list[float]:
    """Per tick, the canary's loops per second over the ``LOCAL_CHUNKS``
    chunks run nearest to it; ``chunks`` holds, in order, the tick each
    chunk ran before and the seconds it took."""
    before = [tick for tick, _ in chunks]
    seconds = [s for _, s in chunks]
    speeds = []
    for i in range(ticks):
        low = bisect.bisect_left(before, i) - LOCAL_CHUNKS // 2
        low = max(0, min(low, len(seconds) - LOCAL_CHUNKS))
        speeds.append(CANARY_LOOPS
                      / statistics.median(seconds[low:low + LOCAL_CHUNKS]))
    return speeds


class PassResult:
    """What one pass over a fresh engine measured, tick by tick.

    ``speed`` is the canary's loops per second over the whole pass and
    ``scale`` the factor that turns the pass's seconds into the reference
    box's; ``local`` is the canary's speed around each tick (``speed``
    itself where it is not given).  Every time kept here is already
    scaled, a tick's by its own local speed.
    """

    def __init__(self, driver: Workload, speed: float, build_s: float,
                 latencies: list[float], durations: list[float],
                 warm_ticks: int, local: list[float] | None = None) -> None:
        self.driver = driver
        self.speed = speed
        scale = self.scale = speed / CANARY_REFERENCE
        scales = [scale] * len(durations) if local is None \
            else [one / CANARY_REFERENCE for one in local]
        #: Seconds the ticks took on this box, unscaled.
        self.clock_s = sum(durations)
        #: Per tick: result latency, and the whole tick including the
        #: generator's share (row building, stamps).
        self.latencies = [k * s for k, s in zip(scales, latencies)]
        self.durations = [k * s for k, s in zip(scales, durations)]
        self.build_s = scale * build_s
        #: Engine construction, registration, priming and the first 20%
        #: of the ticks: what a set-up costs on this engine.
        self.setup_s = self.build_s + sum(self.durations[:warm_ticks])
        self.events = driver.events
        self.failed = driver.failed
        #: wall_s, throughput_eps, latency_p50_ms, latency_p95_ms
        vars(self).update(
            summarize(driver.events, self.latencies, self.durations))


def fold(passes: list[PassResult]) -> dict[str, float]:
    """The passes folded into one: each tick's median time.

    Every pass replays the same input on a fresh engine, so tick ``i``
    does the same work in each; what differs is how much the shared box
    disturbed it.  A burst that slows a twentieth of one pass's ticks
    moves that pass's 95th percentile by a fifth; it moves the median of
    a tick over nine passes not at all.  The median neither drifts with
    the number of passes nor hides a cost that most passes pay.
    """
    median = statistics.median
    return summarize(
        passes[0].events,
        [median(column) for column in zip(*(p.latencies for p in passes))],
        [median(column) for column in zip(*(p.durations for p in passes))])


def run_pass(cls: type[Workload], inputs, ticks: int, warm_ticks: int = 0,
             tracer=NULL_TRACER) -> PassResult:
    """Build a fresh engine and run ``ticks`` ticks through it, with a
    canary chunk between ticks every ``CANARY_EVERY_S``."""
    gc.collect()
    started = perf_counter()
    with tracer.tick(-1):
        driver = cls(inputs, tracer)
    build_s = perf_counter() - started
    latencies = []
    durations = []
    tick = driver.tick
    begun = perf_counter()
    canary_chunk()
    last = perf_counter()
    # Per chunk: the tick it ran before, and its seconds.
    chunks = [(0, last - begun)]
    for i in range(ticks):
        begun = perf_counter()
        with tracer.tick(i):
            latencies.append(tick(i))
        ended = perf_counter()
        durations.append(ended - begun)
        if ended - last >= CANARY_EVERY_S:
            canary_chunk()
            last = perf_counter()
            chunks.append((i + 1, last - ended))
    speed = len(chunks) * CANARY_LOOPS / sum(s for _, s in chunks)
    return PassResult(driver, speed, build_s, latencies, durations,
                      warm_ticks, local_speeds(chunks, ticks))


def span_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """The per-layer metrics one traced pass's spans and counts give,
    seconds scaled like the pass's own."""
    metrics = {}
    for name, busy in tracer.busy_by_name().items():
        if f"{name}.busy_s" in PER_LAYER:
            metrics[f"{name}.busy_s"] = scale * busy
        elif name == "tick":
            metrics["gen.self_s"] = scale * busy
    for name, count in tracer.counts.items():
        metrics[name] = scale * count if name.endswith(".busy_s") else count
    return metrics


class Run:
    """One run of one workload; fills in the fields the report prints."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scale: float = 1.0) -> None:
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = scale < 1.0
        self.ticks = max(10, round(self.cls.ticks * scale))
        self.warm_ticks = max(2, round(self.ticks * WARMUP_SHARE))
        self.inputs = self.cls.generate(seed, self.ticks)
        # The inputs are the generator's, not the engine's: keep them out
        # of every later collection's work.
        gc.collect()
        gc.freeze()
        self.passes: list[PassResult] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _pass(self, ticks: int, tracer=NULL_TRACER) -> PassResult:
        result = run_pass(self.cls, self.inputs, ticks, self.warm_ticks,
                          tracer)
        self.attempted += result.events
        self.failed += result.failed
        return result

    def _warm_up(self):
        """The warm-up pass on a throwaway engine; returns its answers,
        which :meth:`_check` compares with a reference later."""
        return self._pass(self.warm_ticks).driver.observe()

    def _check(self, observed) -> None:
        self.problems = self.cls.verify(self.inputs, self.warm_ticks,
                                        observed)
        self.failed += len(self.problems)

    def _more(self, wanted: int, step: int = 1) -> bool:
        """Whether to run ``step`` more passes: up to ``wanted`` (one
        step in a smoke run), but past ``MIN_PASSES`` only while they fit
        the time budget."""
        walls = [p.clock_s for p in self.passes]
        if self.smoke:
            return not walls
        if len(walls) < MIN_PASSES:
            return True
        return len(walls) < wanted and \
            sum(walls) + step * statistics.median(walls) <= self.seconds

    def measure(self) -> dict[str, float]:
        """The untraced run: the end-to-end metrics."""
        observed = self._warm_up()
        while self._more(PASSES):
            result = self._pass(self.ticks)
            result.driver = None  # let the engine go before the next pass
            self.passes.append(result)
        # Peak RSS is read before the reference computations below, so it
        # is the engine's high-water mark and not the checker's.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._check(observed)
        typical = fold(self.passes)
        return {
            "throughput_eps": typical["throughput_eps"],
            "latency_p50_ms": typical["latency_p50_ms"],
            "latency_p95_ms": typical["latency_p95_ms"],
            "setup_s": statistics.median(p.setup_s for p in self.passes),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }

    def trace(self, trace_out: str | None = None) -> dict[str, float]:
        """The traced run: untraced and traced passes alternate.  Span
        and count metrics are medians over the traced passes; the
        standalone layer timings are taken once, on the last traced
        pass's engine; the throughput ratio of the two kinds of pass
        (each folded by :func:`fold`) is the tracing overhead."""
        self._check(self._warm_up())
        spans: list[dict[str, float]] = []
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        while self._more(2 * TRACE_PAIRS, step=2):
            if traced:
                traced[-1].driver = None
            untraced = self._pass(self.ticks)
            untraced.driver = None
            tracer = Tracer()
            result = self._pass(self.ticks, tracer)
            spans.append(span_metrics(tracer, result.scale))
            plain.append(untraced)
            traced.append(result)
            self.passes += [untraced, result]
        if trace_out:
            tracer.dump(trace_out)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for name in set().union(*spans):
            metrics[name] = statistics.median(
                one.get(name, 0.0) for one in spans)
        last = traced[-1]
        for name, value in last.driver.layer_counts().items():
            metrics[name] = last.scale * value \
                if name.endswith(".busy_s") else value
        typical = fold(traced)
        metrics["exec.kernel.share"] = \
            metrics["exec.kernel.busy_s"] / typical["wall_s"]
        metrics["gen.canary_ops_per_s"] = statistics.median(
            p.speed for p in self.passes)
        metrics["trace.overhead_ratio"] = \
            fold(plain)["throughput_eps"] / typical["throughput_eps"]
        return metrics

    def report(self, metrics: dict[str, float], units: dict[str, str]) -> str:
        """Human-readable lines: every metric by name with its unit, the
        per-pass values, their quartiles and the sample counts."""
        cls = self.cls
        lines = [f"cqbench {cls.name} seed={self.seed} "
                 f"ticks/pass={self.ticks} warm-up ticks={self.warm_ticks} "
                 f"passes={len(self.passes)}",
                 f"  why: {cls.why}"]
        for name, value in metrics.items():
            line = f"  {name} = {value:.6g} {units[name]}"
            per_pass = [getattr(p, name) for p in self.passes
                        if hasattr(p, name)]
            if per_pass:
                q1, q2, q3 = quartiles(per_pass)
                line += (f"  [per pass: q1 {q1:.6g} median {q2:.6g} "
                         f"q3 {q3:.6g}; "
                         + " ".join(f"{v:.6g}" for v in per_pass) + "]")
            if name.startswith("latency"):
                line += f"  ({self.ticks} ticks per pass)"
            lines.append(line)
        lines.append("  box speed per pass (canary / reference, and the "
                     "seconds its ticks took on this box's clock): "
                     + " ".join(f"{p.scale:.3f} ({p.clock_s:.3f} s)"
                                for p in self.passes))
        lines.append(f"  ops_attempted = {self.attempted}  "
                     f"ops_failed = {self.failed}")
        lines += [f"  MISMATCH {problem}" for problem in self.problems]
        return "\n".join(lines)
