"""The differential oracle: one driver over a configuration matrix.

For one :class:`~repro.difftest.generators.Case` the oracle replays the
same inputs through every evaluator and compares results instant by
instant under bag equality:

* ``reference(naive plan)`` is the ground truth — the denotational
  evaluator over the unoptimised plan.
* ``reference(optimised plan)`` must agree: the optimiser may only apply
  equivalence-preserving rewrites.
* Then one driver runs the case under each :class:`Config`: a bare
  ``ContinuousQuery`` or a ``DSMSEngine`` with a value on every feature
  axis (:data:`AXES`).  Each of the :data:`BASELINES` turns its own
  feature on and draws the others per case, and :data:`LEGALITY` skips
  what the engine refuses.  Snapshot-reducibility demands that the state
  logged per instant equals the reference relation of the R2S child
  plan, however the instant was split (see :func:`_judge`).

The core-window leg (:func:`run_core_window_case`) checks the sparse S2R
change-log against dense per-instant evaluation for the window kinds CQL
syntax cannot reach, and merge properties for session windows.
"""

from __future__ import annotations

import pathlib
import random
import traceback
import zlib
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, NamedTuple

import repro.obs as obs
from repro.chaos import CrashFuse, InjectedCrash, install_crash
from repro.chaos.recovery import (
    RecoveryManager,
    apply_query_unit,
    run_with_recovery,
)
from repro.core import Schema, Stream
from repro.core.errors import ReproError, StateError
from repro.core.operators import relation_to_stream, stream_to_relation
from repro.core.relation import Bag
from repro.core.windows import (
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
    merge_sessions,
)
from repro.cql import reference_evaluate
from repro.cql.executor import ContinuousQuery, instant_batches
from repro.dsms import DSMSEngine
from repro.plan.parallel import partition_scheme
from repro.runtime.rescale import rescale

from repro.difftest.generators import (
    OBS_SCHEMA,
    Case,
    CoreWindowCase,
    build_engine,
    build_streams,
    literal_sibling,
)

_R2S_OPS = ("istream", "dstream", "rstream")


@dataclass(frozen=True)
class Config:
    """One point of the configuration matrix: a driver and a value on
    every feature axis (:data:`AXES`).  ``name`` is the baseline it was
    drawn from, and the :attr:`Divergence.kind` it diverges under."""

    name: str = "executor"
    #: "query": a bare ContinuousQuery; "dsms": a DSMSEngine.
    driver: str = "query"
    optimize: bool = True
    #: Key partitions the query runs in from registration.
    width: int = 1
    #: Live-rescale 1→4→2 at a third and two thirds of the instants.
    rescale: bool = False
    #: How the arrivals reach the engine (see :func:`_script`).
    delivery: str = "whole"
    #: An explicit per-query batch cap (state-exact, not emission-exact).
    batch: int | None = None
    #: Queries registered with the same text into one sharing group.
    members: int = 1
    #: "operators": each operator of a bare query killed once in its own
    #: run; "aimed": the :class:`_CrashAim` shots on a recovering DSMS.
    crash: str = "none"
    #: "metrics": obs enabled; "profile": profiling and flight recorder too.
    obs: str = "off"

    def __str__(self) -> str:
        axes = ", ".join(f"{f.name}={getattr(self, f.name)}"
                         for f in fields(self)[1:]
                         if getattr(self, f.name) != f.default)
        return f"{self.name}({axes})"


AXES: dict[str, tuple] = {
    "driver": ("query", "dsms"),
    "optimize": (True, False),
    "width": (1, 2),
    "rescale": (False, True),
    "delivery": ("whole", "split", "upfront", "per-arrival"),
    "batch": (None, 8),
    "members": (1, 2),
    "crash": ("none", "operators", "aimed"),
    "obs": ("off", "metrics", "profile"),
}

#: The legality table, ``(refused, reason)``: a config is illegal for a
#: case when any ``refused(config, partitionable)`` holds, where
#: ``partitionable`` says whether the planner proves the case's plan
#: key-partitionable.  An illegal config is skipped.
LEGALITY: tuple[tuple[Callable[[Config, bool], bool], str], ...] = (
    (lambda c, partitionable: (c.width > 1 or c.rescale)
     and not (partitionable and c.optimize),
     "fission and rescale need a plan the planner proves "
     "key-partitionable, and it proves the optimised plan"),
    (lambda c, _: c.members > 1 and (c.width > 1 or c.rescale),
     "a shared member cannot be fissioned or rescaled: sharing "
     "interleaves the operator state partitioning keeps disjoint"),
    (lambda c, _: c.members > 1 and c.batch is not None,
     "an explicit batch cap isolates a query"),
    (lambda c, _: c.rescale and (c.width > 1 or c.delivery == "upfront"
                                 or c.crash != "none"),
     "the rescale script starts serial, the engine rescales a drained "
     "query only, and a rescale retires the operators a crash is armed "
     "on"),
    (lambda c, _: c.driver == "query" and (
        c.delivery != "whole" or c.batch is not None or c.members > 1
        or c.crash == "aimed"),
     "a bare query has no queue, scheduler, second member or recovery "
     "manager: it takes whole instants"),
    (lambda c, _: c.driver == "dsms" and (not c.optimize
                                          or c.crash == "operators"),
     "the engine plans optimised, and its crashes are the aimed shots"),
    (lambda c, _: c.crash == "aimed" and c.delivery != "per-arrival",
     "the shots aim at the per-arrival script's drains and advances"),
)


def legal(config: Config, partitionable: bool) -> bool:
    """Whether no row of :data:`LEGALITY` refuses ``config``."""
    return not any(refused(config, partitionable)
                   for refused, _ in LEGALITY)


#: The baselines: each config turns its own feature on, and each case
#: draws the axes listed beside it.
BASELINES: tuple[tuple[Config, tuple[str, ...]], ...] = (
    (Config("executor"), ()),
    (Config("executor-naive", optimize=False), ()),
    (Config("kernel-parallel", width=2), ("obs",)),
    (Config("kernel-rescaled", rescale=True), ("obs",)),
    (Config("kernel-crashed", crash="operators"), ("width", "obs")),
    (Config("dsms-crashed", driver="dsms", delivery="per-arrival",
            crash="aimed"), ("width", "batch", "obs")),
    (Config("dsms", driver="dsms", delivery="split"),
     ("rescale", "width", "batch", "obs")),
    (Config("kernel-batched", driver="dsms", delivery="upfront", batch=8),
     ("width", "obs")),
    (Config("dsms-shared", driver="dsms", members=2), ("delivery", "obs")),
)

#: The live-rescale campaign's configs (``fuzz(rescale_cases=)``).
RESCALE_CONFIGS = (
    Config("kernel-rescaled", rescale=True),
    Config("kernel-rescaled", driver="dsms", rescale=True, obs="metrics"),
)


def _draw(case: Case, partitionable: bool) -> list[Config]:
    """The legal baselines, each free axis drawn among the values legal
    with the axes before it, from a Random seeded by the case."""
    rng = random.Random(zlib.crc32(repr((case.query, case.streams)).encode()))
    configs = []
    for config, free in BASELINES:
        if not legal(config, partitionable):
            continue
        for axis in free:
            config = replace(config, **{axis: rng.choice([
                value for value in AXES[axis]
                if legal(replace(config, **{axis: value}), partitionable)])})
        configs.append(config)
    return configs


def case_configs(case: Case) -> list[Config]:
    """The configs :func:`run_case` runs for ``case`` by default."""
    plan = build_engine().plan(case.query, optimize=True)
    return _draw(case, partition_scheme(plan) is not None)


@dataclass
class Divergence:
    """One disagreement between evaluators (or an evaluator crash)."""

    kind: str    # the diverging Config's name (see BASELINES) | optimizer
                 # | kernel-views | core-sparse | core-assign | session | error
    detail: str
    #: The config that diverged; None for the other kinds.
    config: Config | None = None

    def __str__(self) -> str:
        where = "" if self.config is None else f" {self.config}:"
        return f"[{self.kind}]{where} {self.detail}"


def _snapshot_list(relation) -> list[tuple[int, list]]:
    return [(t, sorted(bag, key=repr)) for t, bag in relation.snapshots()]


def _stream_list(stream) -> list[tuple[int, Any]]:
    return list(zip(stream.timestamps(), stream.values()))


def _diff_detail(label_a: str, a: Any, label_b: str, b: Any) -> str:
    return f"{label_a}={a!r} vs {label_b}={b!r}"


class _Truth(NamedTuple):
    """What every config of one case is judged against."""

    case: Case
    streams: dict
    catalog: Any
    #: optimize → the case's plan, shared by every bare-query run.
    plans: dict
    #: The reference output of the naive plan (a stream for R2S queries).
    output: Any
    #: The reference relation of the R2S child plan.
    state: Any
    #: Seeds the split delivery and the crash aim.
    seed: int


def run_case(case: Case, configs: list[Config] | None = None,
             ran: list[Config] | None = None) -> Divergence | None:
    """Replay one case through the reference checks and then ``configs``
    (default :func:`case_configs`); None means agreement.  A config
    :func:`legal` refuses is skipped; ``ran``, when given, collects each
    config that ran."""
    streams = build_streams(case)
    engine = build_engine()
    try:
        plan_naive = engine.plan(case.query, optimize=False)
        plan_opt = engine.plan(case.query, optimize=True)
    except ReproError as exc:
        return Divergence("error", f"planning failed: {exc!r}")

    try:
        truth = reference_evaluate(plan_naive, engine.catalog, streams)
    except ReproError as exc:
        return Divergence("error", f"reference(naive) failed: {exc!r}")

    is_r2s = plan_naive.op_name in _R2S_OPS

    # The optimiser must preserve denotational semantics.  Every config
    # judges the maintained state per instant against the reference
    # relation of the R2S child plan (snapshot-reducibility): evaluated
    # once, it is also the optimized plan's reference, through its R2S.
    state_plan = (plan_opt.child if plan_opt.op_name in _R2S_OPS
                  else plan_opt)
    try:
        state = reference_evaluate(state_plan, engine.catalog, streams)
    except ReproError as exc:
        return Divergence("error", f"reference(optimized) failed: {exc!r}")
    ref_opt = (relation_to_stream(state, plan_opt.kind)
               if state_plan is not plan_opt else state)
    if is_r2s:
        same = (truth.timestamps() == ref_opt.timestamps()
                and truth.values() == ref_opt.values())
        if not same:
            return Divergence("optimizer", _diff_detail(
                "naive", _stream_list(truth),
                "optimized", _stream_list(ref_opt)))
    elif not (truth == ref_opt):
        return Divergence("optimizer", _diff_detail(
            "naive", _snapshot_list(truth),
            "optimized", _snapshot_list(ref_opt)))

    base = _Truth(case, streams, engine.catalog,
                  {True: plan_opt, False: plan_naive}, truth, state,
                  zlib.crc32(case.query.encode()))
    partitionable = partition_scheme(plan_opt) is not None
    if configs is None:
        configs = _draw(case, partitionable)
    for config in configs:
        if not legal(config, partitionable):
            continue
        if ran is not None:
            ran.append(config)
        divergence = _run_config(config, base)
        if divergence is not None:
            return divergence
    return None


def _run_config(config: Config, base: _Truth) -> Divergence | None:
    """Run one config; any exception an evaluator raises (a run-time
    ``PlanError`` included) is a divergence.  Leaves obs reset."""
    try:
        run = _run_query if config.driver == "query" else _run_dsms
        divergence = run(config, base)
    except Exception as exc:  # noqa: BLE001 — every crash is a finding
        divergence = Divergence(config.name,
                                f"crashed: {_raised(exc)}", config)
    if divergence is not None and config.obs == "profile":
        tail = [{key: value for key, value in event.items()
                 if key not in ("seq", "wall")}
                for event in obs.get_flight_recorder().tail(8)]
        divergence.detail += f"; flight recorder tail: {tail}"
    obs.reset()
    return divergence


def _raised(exc: Exception) -> str:
    """The exception and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{exc!r} at {pathlib.Path(frame.filename).name}:"
            f"{frame.lineno} in {frame.name}")


def _observe(config: Config) -> None:
    """Fresh obs state for each run, enabled as ``config.obs`` says."""
    obs.reset()
    if config.obs != "off":
        obs.enable(profile=config.obs == "profile")


def _judge(config: Config, base: _Truth,
           queries: list[tuple[str, Any]]) -> Divergence | None:
    """Every run's surfaces: each query's state per instant against the
    reference relation and its final width, a bare query's emitted
    stream against the reference, the members' emissions alike."""
    for label, query in queries:
        got = query.as_relation()
        if got != base.state:
            return Divergence(config.name, _diff_detail(
                label, _snapshot_list(got),
                "reference", _snapshot_list(base.state)), config)
        width = 2 if config.rescale else config.width
        if query.parallelism != width:
            return Divergence(config.name, (
                f"{label}: expected width {width}, got "
                f"{query.parallelism}"), config)
    if config.driver == "query" and isinstance(base.output, Stream):
        produced = queries[0][1].emitted_stream()
        if produced.timestamps() != base.output.timestamps() \
                or produced.values() != base.output.values():
            return Divergence(config.name, _diff_detail(
                queries[0][0], _stream_list(produced),
                "reference", _stream_list(base.output)), config)
    for label, query in queries[1:]:
        if query.emissions() != queries[0][1].emissions():
            return Divergence(config.name, _diff_detail(
                queries[0][0], queries[0][1].emissions(),
                label, query.emissions()), config)
    return None


def _against_fault_free(config: Config, where: str, crashed,
                        clean) -> Divergence | None:
    """A crash run's change-log against the fault-free run's, and its
    emissions too unless an explicit batch cap makes the replay's
    coarser quanta emission-inexact."""
    parts = ("emissions", "change-log") if config.batch is None \
        else ("change-log",)
    for part in parts:
        got, want = [query.emissions() if part == "emissions"
                     else list(query.as_relation().snapshots())
                     for query in (crashed, clean)]
        if got != want:
            return Divergence(config.name, (
                f"{where}; {part} differs from the fault-free run: "
                + _diff_detail("recovered", got, "fault-free", want)),
                config)
    return None


def _rescaled(config: Config, blocks: list[list[tuple]]) -> list[tuple]:
    """The instants' step blocks, the rescale script's steps (1→4→2)
    before those a third and two thirds in (else after the last)."""
    schedule = {}
    if config.rescale:
        first = max(1, len(blocks) // 3)
        schedule = {first: 4, max(first + 1, 2 * len(blocks) // 3): 2}
    steps: list[tuple] = []
    for position, block in enumerate(blocks):
        if position in schedule:
            steps.append(("rescale", schedule.pop(position)))
        steps += block
    return steps + [("rescale", width)
                    for _, width in sorted(schedule.items())]


# ---------------------------------------------------------------------------
# The bare-query driver
# ---------------------------------------------------------------------------


def _query_run(config: Config, base: _Truth,
               crash: tuple[int, CrashFuse] | None = None):
    """One run of ``config`` on a bare ContinuousQuery: the units of
    :func:`~repro.chaos.recovery.run_query_with_recovery` (one push per
    instant), rescale steps between them, published after every step when
    obs is on.  With ``crash = (position, fuse)`` the fuse is armed on
    that operator and a :class:`RecoveryManager` (a checkpoint every 2
    steps) rolls back and replays.  Returns the query and its instants."""
    _observe(config)
    query = ContinuousQuery(base.plans[config.optimize], base.catalog,
                            parallelism=config.width)
    batches = _batches(base, query)
    steps = [("start",), *_rescaled(config, [[("push", *batch)]
                                             for batch in batches]),
             ("finish",)]

    def apply(step: tuple, _index: int = 0) -> None:
        if step[0] == "rescale":
            rescale(query, step[1])
        else:
            apply_query_unit(query, step)
        if config.obs != "off":
            query.publish_metrics()

    if crash is None:
        for step in steps:
            apply(step)
    else:
        install_crash(query, *crash)
        run_with_recovery(steps, apply, RecoveryManager(
            query, interval=2, label=config.name))
    return query, len(batches)


def _run_query(config: Config, base: _Truth) -> Divergence | None:
    """A bare-query config; ``crash="operators"`` re-runs it once per
    operator position, a fuse blowing at half the instants after the
    operator mutated its state but before its output lands (torn state),
    and demands the fault-free run's change-log and emissions."""
    clean, instants = _query_run(config, base)
    divergence = _judge(config, base, [("executor", clean)])
    if divergence is not None or config.crash == "none":
        return divergence
    for position, (label, _) in enumerate(clean.operators()):
        # A fuse past the stream's end never fires: the run is then
        # fault-free, and the comparison still holds.
        fuse = CrashFuse(at=max(1, (instants + 1) // 2))
        crashed, _ = _query_run(config, base, (position, fuse))
        divergence = _against_fault_free(
            config, f"crashed {label} (operator {position}, fired "
            f"{fuse.fired})", crashed, clean)
        if divergence is not None:
            return divergence
    return None


# ---------------------------------------------------------------------------
# The DSMS driver
# ---------------------------------------------------------------------------

#: Arrivals (and time advances) per checkpoint under crash="aimed".
_DSMS_CHECKPOINT_INTERVAL = 3
#: Beyond every window the generator draws: the per-arrival script's
#: last ``advance_time`` flushes all pending expirations.
_FLUSH_HORIZON = 1000


def _batches(base: _Truth, query) -> list[tuple[int, dict]]:
    """The case's instants, as ``push_batch`` arguments, for the streams
    ``query`` reads (generation order within an instant)."""
    return instant_batches({name: stream
                            for name, stream in base.streams.items()
                            if name in query._stream_sources})


def _script(config: Config, batches: list[tuple[int, dict]],
            seed: int) -> list[tuple]:
    """The DSMS driving script for ``config.delivery``:

    * ``whole`` — each instant ingested, then drained (a relation-output
      query folds it in one quantum);
    * ``split`` — drained after a case-seeded prefix of each instant and
      again after the rest, so an instant also folds in two quanta;
    * ``upfront`` — every arrival ingested, then one drain;
    * ``per-arrival`` — each arrival ingested and drained alone, time
      advanced to just before the next instant (its expirations fire
      inside ``advance_time``, not in the next push) and past every
      window after the last.

    Rescale steps go between instants (see :func:`_rescaled`).
    """
    split = random.Random(seed)
    blocks = []
    for position, (t, arrivals) in enumerate(batches):
        steps = [("ingest", name, row, t)
                 for name, rows in arrivals.items() for row in rows]
        if config.delivery == "whole":
            steps.append(("drain",))
        elif config.delivery == "split":
            prefix = split.randint(0, len(steps))
            steps[prefix:prefix] = [("drain",)]
            steps.append(("drain",))
        elif config.delivery == "per-arrival":
            steps = [step for ingest in steps for step in (ingest, ("drain",))]
            steps.append(("advance", batches[position + 1][0] - 1
                          if position + 1 < len(batches)
                          else t + _FLUSH_HORIZON))
        blocks.append(steps)
    script = _rescaled(config, blocks)
    return script + [("drain",)] if config.delivery == "upfront" else script


def _run_script(dsms: DSMSEngine, script: list[tuple],
                aim: "_CrashAim | None" = None) -> None:
    for step in script:
        if aim is not None:
            aim.before(step)
        if step[0] == "ingest":
            dsms.ingest(*step[1:])
        elif step[0] == "drain":
            dsms.run_until_idle()
        elif step[0] == "advance":
            dsms.advance_time(step[1])
        else:
            dsms.rescale_query("q0", step[1])
        if aim is not None:
            aim.after(step)


def _dsms_run(config: Config, base: _Truth, recovering: bool = False):
    """A DSMS over the difftest catalog, with room to queue every
    arrival, and ``config.members`` queries registered into it; returns
    the engine, the handles and the script that drives them."""
    _observe(config)
    dsms = build_engine(DSMSEngine(
        queue_capacity=1_000_000, sharing=config.members > 1,
        recovery_interval=_DSMS_CHECKPOINT_INTERVAL if recovering else None))
    # A literal sibling compiled first: the case's plan is then bound
    # from the sibling's shape, and its kernels from those rendered for
    # the sibling's literals.
    cql = dsms._cql
    cql.cancel_query(cql.register_query(literal_sibling(base.case.query)))
    handles = [dsms.register_query(f"q{member}", base.case.query,
                                   parallelism=config.width,
                                   batch_size=config.batch)
               for member in range(config.members)]
    return dsms, handles, _script(
        config, _batches(base, handles[0].query), base.seed)


def _run_dsms(config: Config, base: _Truth) -> Divergence | None:
    """A DSMS config.  Under ``crash="aimed"`` the same script then runs
    on a recovering engine (``recovery_interval=3``) crashed by the
    :class:`_CrashAim` shots.  A replay re-offers what was logged since
    the checkpoint at once, so a relation-output query folds an instant
    in one quantum that the fault-free run folded arrival by arrival."""
    dsms, handles, script = _dsms_run(config, base)
    _run_script(dsms, script)
    handles[0].query.finish()
    divergence = _judge(config, base, [(handle.name, handle.query)
                                       for handle in handles])
    if divergence is not None or config.crash == "none":
        return divergence
    crashed, crashed_handles, script = _dsms_run(config, base, True)
    aim = _CrashAim(crashed, crashed_handles[0], len(script), base.seed)
    try:
        _run_script(crashed, script, aim)
    except Exception as exc:  # noqa: BLE001 — every crash is a finding
        return Divergence(config.name, f"{aim.where()}; not recovered: "
                          f"{_raised(exc)}", config)
    return _against_fault_free(config, aim.where(),
                               crashed_handles[0].query, handles[0].query)


class _Shot(CrashFuse):
    """A crash :class:`_CrashAim` aims: once ``armed`` with a name
    it blows at the operator's next step, noting the phase it blew in."""

    def __init__(self, phase: list[str],
                 shots: list[tuple[str, str]]) -> None:
        super().__init__(at=1)
        self.phase = phase
        self.shots = shots
        self.armed: str | None = None

    def record(self, n: int = 1) -> bool:
        shot, self.armed = self.armed, None
        if shot is None:
            return False
        self.fired += 1
        self.shots.append((shot, self.phase[-1]))
        return True


class _CrashAim:
    """Aims ``crash="aimed"``'s three crashes at a recovering engine.

    Every instant steps every operator, so a shot armed before a step of
    the script fires inside it:

    * ``barrier`` — in a drain that ends in a checkpoint (the script
      knows the log length, the manager the last checkpoint's offset),
      from the middle of the script on;
    * ``advance`` — in an ``advance_time`` whose replay must redo an
      arrival (one was logged since the last checkpoint); disarmed again
      if that advance fired nothing due;
    * ``replay`` — armed when recovery from the ``advance`` crash starts,
      so it fires while the replay drains that arrival.

    The phase is ``phase[-1]``: the script step's, or ``replay`` from the
    manager's ``recover`` to its ``record_replayed``.
    """

    def __init__(self, dsms: DSMSEngine, handle, script_length: int,
                 base: int) -> None:
        self.recovery = dsms.recovery
        self.phase = ["setup"]
        #: ``(shot, phase)`` for every crash that fired, in order.
        self.shots: list[tuple[str, str]] = []
        self.fuses: dict[str, _Shot] = {}
        operators = len(handle.query.operators())
        for offset, shot in enumerate(("barrier", "advance", "replay")):
            self.fuses[shot] = _Shot(self.phase, self.shots)
            install_crash(handle.query, (base + offset) % operators,
                          self.fuses[shot])
        self.middle = script_length // 2
        self.steps = 0
        self.logged = 0          # arrival-log entries so far
        self.last_ingest = -1    # log position of the newest ingest
        recover = self.recovery.recover
        record_replayed = self.recovery.record_replayed

        def tracked_recover():
            self.phase[1:] = ["replay"]
            if self.fuses["advance"].fired and not self.fuses["replay"].fired:
                self.fuses["replay"].armed = "replay"
            return recover()

        def tracked_record_replayed(n: int) -> None:
            del self.phase[1:]
            record_replayed(n)

        self.recovery.recover = tracked_recover
        self.recovery.record_replayed = tracked_record_replayed

    def before(self, step: tuple) -> None:
        since = self.recovery.latest().offset
        if step[0] == "drain":
            commits = self.logged - since >= self.recovery.interval
            self.phase[:] = ["barrier" if commits else "drain"]
            fuse = self.fuses["barrier"]
            if commits and not fuse.fired and self.steps >= self.middle:
                fuse.armed = "barrier"
        elif step[0] == "advance":
            self.phase[:] = ["advance"]
            fuse = self.fuses["advance"]
            if self.fuses["barrier"].fired and not fuse.fired \
                    and self.last_ingest >= since:
                fuse.armed = "advance"

    def after(self, step: tuple) -> None:
        self.steps += 1
        if step[0] == "ingest":
            self.last_ingest = self.logged
            self.logged += 1
        elif step[0] == "advance":
            self.logged += 1
            self.fuses["advance"].armed = None

    def where(self) -> str:
        fired = [f"{shot} in {phase}" for shot, phase in self.shots]
        return f"crashes fired: {', '.join(fired) or 'none'}"


# ---------------------------------------------------------------------------
# Core-window leg
# ---------------------------------------------------------------------------

_CORE_SCHEMA = Schema(["id", "v"])


def run_core_window_case(case: CoreWindowCase) -> Divergence | None:
    """Sparse change-log vs dense evaluation (plus session properties)."""
    stream = Stream.of_records(_CORE_SCHEMA, case.rows)
    window = case.window
    if isinstance(window, SessionWindow):
        return _check_sessions(window, stream)
    horizon = (stream.max_timestamp or 0) + 4 * _window_extent(window) + 4
    sparse = stream_to_relation(stream, window)
    dense = stream_to_relation(stream, window, instants=range(horizon))
    bad = [t for t in range(horizon) if sparse.at(t) != dense.at(t)]
    if bad:
        t = bad[0]
        return Divergence("core-sparse", (
            f"{window!r}: change-log diverges from dense evaluation at "
            f"t={t}: sparse={sorted(sparse.at(t), key=repr)} "
            f"dense={sorted(dense.at(t), key=repr)} (and {len(bad) - 1} "
            f"more instants)"))
    if isinstance(window, (TumblingWindow, SlidingWindow)):
        return _check_assign_scope(window, stream, horizon)
    return None


def _window_extent(window: Any) -> int:
    for attribute in ("size", "range", "range_", "slide", "gap"):
        value = getattr(window, attribute, None)
        if isinstance(value, int) and value > 0:
            return value
    return 8


def _check_assign_scope(window: Any, stream: Stream,
                        horizon: int) -> Divergence | None:
    """``assign`` (per-element windows) and ``scope`` (window in force)
    must describe the same visibility: an element is visible at τ exactly
    when one of its assigned windows *is* the window in force."""
    for tau in range(horizon):
        in_force = window.scope(tau)
        scope_view = Bag(e.value for e in stream.up_to(tau)
                         if e.timestamp in in_force)
        assign_view = Bag(e.value for e in stream.up_to(tau)
                          if any(w == in_force
                                 for w in window.assign(e.timestamp)))
        if scope_view != assign_view:
            return Divergence("core-assign", (
                f"{window!r} at tau={tau}: scope view "
                f"{sorted(scope_view, key=repr)} != assign view "
                f"{sorted(assign_view, key=repr)}"))
    return None


def _check_sessions(window: SessionWindow,
                    stream: Stream) -> Divergence | None:
    """Merged sessions must be maximal, disjoint and gap-separated, and
    incremental merging must agree with batch merging."""
    protos = [w for e in stream for w in window.assign(e.timestamp)]
    merged = merge_sessions(protos)
    for left, right in zip(merged, merged[1:]):
        if right.start - left.end < 0:
            return Divergence(
                "session", f"{window!r}: overlapping sessions {left} {right}")
    for proto in protos:
        if not any(s.start <= proto.start and proto.end <= s.end
                   for s in merged):
            return Divergence(
                "session", f"{window!r}: element window {proto} not covered")
    incremental: list = []
    for proto in protos:
        incremental = merge_sessions(incremental + [proto])
    if incremental != merged:
        return Divergence(
            "session", f"{window!r}: incremental merge {incremental} != "
            f"batch merge {merged}")
    return None


# ---------------------------------------------------------------------------
# Negative-timestamp agreement
# ---------------------------------------------------------------------------


def check_negative_timestamp_rejection() -> list[str]:
    """All three evaluators must reject pre-epoch timestamps alike.

    Returns a list of human-readable problems (empty = agreement).  The
    reference path rejects at stream construction; the executor rejects at
    ``push_batch``; the DSMS rejects at ``ingest``.
    """
    from repro.core.errors import TimeError

    problems: list[str] = []
    row = {"id": 0, "room": "a", "temp": 1}
    try:
        Stream.of_records(OBS_SCHEMA, [(row, -1)])
        problems.append("Stream accepted a negative timestamp")
    except TimeError:
        pass
    engine = build_engine()
    query = engine.register_query("SELECT id FROM Obs [Range 2]")
    query.start()
    try:
        query.push("Obs", row, -1)
        problems.append("executor accepted a negative timestamp")
    except TimeError:
        pass
    dsms = build_engine(DSMSEngine())
    dsms.register_query("q", "SELECT id FROM Obs [Range 2]")
    try:
        dsms.ingest("Obs", row, -1)
        problems.append("DSMS accepted a negative timestamp")
    except TimeError:
        pass
    return problems


# ---------------------------------------------------------------------------
# Dynamic-table leg (kernel-views)
# ---------------------------------------------------------------------------


def run_view_case(case) -> Divergence | None:
    """The kernel-views check: every dynamic table vs recompute-from-base.

    The case's view DAG is installed in a :class:`DynamicTableService`
    and its event script replayed.  After **every** event, each view's
    materialisation must equal a full recompute of its (unabsorbed,
    unoptimised) definition over the base tables *as of the view's own
    version* — the oracle keeps its own per-version base history, so the
    reference never reads service state.  Suspension must block exactly
    the refreshes the DAG says it blocks; a ``create`` event installs a
    view mid-stream (over sources whose consumed history GC has already
    dropped) and must be refused, leaving no trace, exactly when a
    suspended view holds a source back; a ``crash`` event tears one
    operator mid-refresh and recovery must converge to the same
    contents; at the end, every retained snapshot version must replay.
    """
    from repro.core.records import Record
    from repro.views import DynamicTableService, recompute

    from repro.difftest.generators import (
        VIEW_BASES,
        ViewCase,
        build_view_plans,
        scanned_views,
    )
    assert isinstance(case, ViewCase)

    plans = build_view_plans(case)
    sources = {spec["name"]: tuple(sorted(set(spec["sources"])))
               for spec in case.views}
    upstreams = dict(sources)

    service = DynamicTableService()
    for table, schema in VIEW_BASES.items():
        service.create_table(table, schema)

    # Oracle-side base history: (version, Bag) after every commit,
    # maintained from the raw event rows — independent of service state.
    base_bags = {name: Bag() for name in VIEW_BASES}
    base_history: dict[str, list[tuple[int, Bag]]] = \
        {name: [] for name in VIEW_BASES}

    def commit(table: str, inserts, deletes) -> int:
        version = service.apply(table, inserts, deletes,
                                at=service.clock + 1)
        record_commit(table, inserts, deletes, version)
        return version

    def record_commit(table: str, inserts, deletes, version: int) -> None:
        schema = VIEW_BASES[table]
        for row in inserts:
            base_bags[table].add(Record.from_mapping(schema, row))
        for row in deletes:
            base_bags[table].discard(Record.from_mapping(schema, row))
        base_history[table].append((version, base_bags[table].copy()))

    def reference(name: str, version: int, cache: dict) -> Bag:
        key = (name, version)
        if key not in cache:
            if name in VIEW_BASES:
                chosen = Bag()
                for recorded, bag in base_history[name]:
                    if recorded <= version:
                        chosen = bag
                    else:
                        break
                cache[key] = chosen
            else:
                cache[key] = recompute(plans[name], {
                    src: reference(src, version, cache)
                    for src in sources[name]})
        return cache[key]

    def bag_key(bag: Bag):
        return sorted(bag.items(), key=repr)

    lags = {spec["name"]: spec["lag"] for spec in case.views}
    late = {event[1] for event in case.events if event[0] == "create"}
    installed = [name for name in lags if name not in late]

    def check(where: str) -> Divergence | None:
        cache: dict = {}
        for name in installed:
            view = service.view(name)
            got = service.read(name)
            want = reference(name, view.version, cache)
            if bag_key(got) != bag_key(want):
                return Divergence("kernel-views", (
                    f"{where}: view {name} (version {view.version}, clock "
                    f"{service.clock}): maintained={bag_key(got)} vs "
                    f"recompute-from-base={bag_key(want)}"))
        return None

    try:
        if any(case.initial.values()):
            commit_rows = {t: rows for t, rows in case.initial.items()}
            version = service.clock + 1
            for table, rows in commit_rows.items():
                service.apply(table, rows, at=version)
                record_commit(table, rows, (), version)
        for name in installed:
            service.create_from_plan(name, plans[name],
                                     target_lag=lags[name])
    except ReproError as exc:
        return Divergence("kernel-views", f"installation failed: {exc!r}")

    divergence = check("after install")
    if divergence is not None:
        return divergence

    def scanned(name: str) -> list[str]:
        # The service's own DAG, which the sharing memo may have rewired.
        if name not in installed:
            return scanned_views(case.views, installed, name)
        return [src for src in service.view(name).sources
                if src not in VIEW_BASES]

    def advance_blocked(name: str, target: int) -> bool:
        # Mirrors _refresh_to: a suspended view only blocks when the
        # refresh actually needs to advance through it.
        view = service.view(name)
        if view.version >= target:
            return False
        for src in scanned(name):
            if service.view(src).suspended or advance_blocked(src, target):
                return True
        return False

    def refresh_blocked(name: str) -> bool:
        return (service.view(name).suspended
                or advance_blocked(name, service.clock))

    for index, event in enumerate(case.events):
        kind = event[0]
        where = f"event {index} {event!r}"
        try:
            if kind == "apply":
                _, table, inserts, deletes = event
                commit(table, inserts, deletes)
            elif kind == "tick":
                service.tick()
            elif kind == "refresh":
                name = event[1]
                expected = refresh_blocked(name)
                try:
                    service.refresh(name)
                except StateError:
                    if not expected:
                        return Divergence("kernel-views", (
                            f"{where}: refresh refused but no suspended "
                            f"ancestor needed to advance"))
                else:
                    if expected:
                        return Divergence("kernel-views", (
                            f"{where}: refresh succeeded through a "
                            f"suspended view"))
            elif kind == "create":
                name = event[1]
                expected = any(
                    service.view(src).suspended
                    or advance_blocked(src, service.clock)
                    for src in scanned(name))
                before = (service.view_names(), service.upstreams(),
                          service.catalog.relation_names())
                try:
                    service.create_from_plan(name, plans[name],
                                             target_lag=lags[name])
                except StateError:
                    if not expected:
                        return Divergence("kernel-views", (
                            f"{where}: create refused but no suspended "
                            f"view holds a source back"))
                    if before != (service.view_names(), service.upstreams(),
                                  service.catalog.relation_names()):
                        return Divergence("kernel-views", (
                            f"{where}: refused create left the view "
                            f"half-registered"))
                else:
                    if expected:
                        return Divergence("kernel-views", (
                            f"{where}: create succeeded over a source "
                            f"held back by a suspended view"))
                    installed.append(name)
            elif kind == "suspend":
                service.suspend(event[1])
            elif kind == "resume":
                service.resume(event[1])
            elif kind == "crash":
                divergence = _view_crash_event(
                    event, where, service, record_commit, advance_blocked)
                if divergence is not None:
                    return divergence
            else:
                return Divergence("kernel-views",
                                  f"{where}: unknown event kind")
        except ReproError as exc:
            return Divergence("kernel-views", f"{where}: crashed: {exc!r}")
        divergence = check(where)
        if divergence is not None:
            return divergence

    # Snapshot-isolated reads: every retained version must replay against
    # recompute-from-base at that version.
    cache: dict = {}
    for name in installed:
        for version in service.view(name).history:
            got = service.read(name, version=version)
            want = reference(name, version, cache)
            if bag_key(got) != bag_key(want):
                return Divergence("kernel-views", (
                    f"snapshot read: view {name} at version {version}: "
                    f"retained={bag_key(got)} vs "
                    f"recompute-from-base={bag_key(want)}"))
    return None


_CRASH_ROW = {"k": 4, "g": 1, "v": 2}


def _view_crash_event(event, where, service, record_commit,
                      advance_blocked) -> Divergence | None:
    """Tear one operator mid-refresh; recovery must erase the damage."""

    _, name, op_index = event
    if service.view(name).suspended or advance_blocked(name,
                                                       service.clock + 1):
        # The commit below would make the refresh need a suspended
        # ancestor; skip the crash machinery and just pin the error path.
        version = service.clock + 1
        service.apply("fact", [_CRASH_ROW], at=version)
        record_commit("fact", [_CRASH_ROW], (), version)
        try:
            service.refresh(name)
        except StateError:
            return None
        return Divergence("kernel-views", (
            f"{where}: refresh succeeded through a suspended view"))

    snap = service.snapshot()
    view = service.view(name)
    fuse = CrashFuse(at=1)
    install_crash(view, op_index % len(view.operators()), fuse)
    version = service.clock + 1
    crashed = False
    service.apply("fact", [_CRASH_ROW], at=version)
    try:
        service.refresh(name)
    except InjectedCrash:
        crashed = True
    if crashed:
        service.restore(snap)
        service.apply("fact", [_CRASH_ROW], at=version)
        service.refresh(name)
    else:
        # The commit never reached the view's plan: disarm the fuse
        # before a later refresh blows it.
        fuse.times = 0
    # Whether the fuse fired or not, exactly one commit stands in the end;
    # mirror it into the oracle's base history once the dust settles.
    record_commit("fact", [_CRASH_ROW], (), version)
    return None
