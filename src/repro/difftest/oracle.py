"""The three-way differential oracle.

For one :class:`~repro.difftest.generators.Case` the oracle replays the
same inputs through every evaluator and compares results instant by
instant under bag equality:

* ``reference(naive plan)`` is the ground truth — the denotational
  evaluator over the unoptimised plan.
* ``reference(optimised plan)`` must agree: the optimiser may only apply
  equivalence-preserving rewrites.
* The incremental executor runs both plan variants via ``run_recorded``
  (exact per-instant batching).  R2S queries compare emitted streams;
  relation queries compare the maintained change-log.
* The DSMS engine services a relation-output query one instant per
  quantum and a stream-output query one tuple per quantum; the legs
  drive it so that an instant's arrivals also arrive split across
  quanta.  Snapshot-reducibility demands that the state logged per
  instant — one, however the instant was split — equals the reference
  relation of the R2S child plan (intermediate same-instant states are
  an artifact of scheduling, not a result).

The core-window leg (:func:`run_core_window_case`) checks the sparse S2R
change-log against dense per-instant evaluation for the window kinds CQL
syntax cannot reach, and merge properties for session windows.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any

from repro.chaos import CrashFuse, InjectedCrash, install_crash
from repro.core import Schema, Stream
from repro.core.errors import ReproError, StateError
from repro.core.operators import stream_to_relation
from repro.core.relation import Bag
from repro.core.windows import (
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
    merge_sessions,
)
from repro.cql import reference_evaluate
from repro.dsms import DSMSEngine
from repro.dsms.shedding import NoShedding

from repro.difftest.generators import (
    ALERTS_SCHEMA,
    OBS_SCHEMA,
    ROOMS_ROWS,
    ROOMS_SCHEMA,
    Case,
    CoreWindowCase,
    build_engine,
    build_streams,
)

_R2S_OPS = ("istream", "dstream", "rstream")


@dataclass
class Divergence:
    """One disagreement between evaluators (or an evaluator crash)."""

    kind: str    # which leg diverged: optimizer | executor | executor-naive
                 # | kernel-parallel
                 # | kernel-rescaled | kernel-crashed | dsms-crashed | dsms
                 # | kernel-batched | dsms-shared
                 # | kernel-views | core-sparse | core-assign | session
                 # | error
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def _snapshot_list(relation) -> list[tuple[int, list]]:
    return [(t, sorted(bag, key=repr)) for t, bag in relation.snapshots()]


def _stream_list(stream) -> list[tuple[int, Any]]:
    return list(zip(stream.timestamps(), stream.values()))


def _diff_detail(label_a: str, a: Any, label_b: str, b: Any) -> str:
    return f"{label_a}={a!r} vs {label_b}={b!r}"


def run_case(case: Case) -> Divergence | None:
    """Replay one case through all evaluators; None means agreement."""
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

    # Leg 1: the optimiser must preserve denotational semantics.
    try:
        ref_opt = reference_evaluate(plan_opt, engine.catalog, streams)
    except ReproError as exc:
        return Divergence("error", f"reference(optimized) failed: {exc!r}")
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

    # Legs 2-3: the incremental executor with the rule optimiser toggled
    # on and off — every generated query runs both ways, and every
    # instant of both must match the reference.
    for optimize, leg in ((True, "executor"), (False, "executor-naive")):
        exec_engine = build_engine()
        try:
            query = exec_engine.register_query(case.query, optimize=optimize)
            query.run_recorded(
                {name: stream for name, stream in streams.items()
                 if name in query._stream_sources})
        except ReproError as exc:
            return Divergence(leg, f"executor crashed: {exc!r}")
        divergence = _output_divergence(leg, "executor", query, truth,
                                        is_r2s)
        if divergence is not None:
            return divergence

    # Leg 4: key-partitioned execution.  When the planner proves the
    # plan partitionable, the same query runs fissioned into two key
    # partitions inside one query and must match the reference instant
    # by instant.  Unpartitionable plans skip — the planner's refusal is
    # itself under test in tests/plan.
    divergence = _kernel_parallel_leg(case, streams, truth, is_r2s)
    if divergence is not None:
        return divergence

    # Leg 5: live rescale.  The same query starts serial, is live-migrated
    # 1→4→2 at one-third and two-thirds of its instants (checkpoint,
    # re-key by the target width, resume), and the output must still be
    # byte-identical to the never-rescaled reference.
    divergence = _kernel_rescaled_leg(case, streams, truth, is_r2s)
    if divergence is not None:
        return divergence

    # The DSMS legs judge the maintained state per instant against the
    # reference relation of the R2S child plan (snapshot-reducibility).
    state_plan = (plan_opt.child if plan_opt.op_name in _R2S_OPS
                  else plan_opt)
    ref_state = reference_evaluate(state_plan, engine.catalog, streams)

    # Leg 6: crash-consistent recovery.  The query re-runs once per
    # operator position; each run blows a fuse inside that operator
    # mid-stream (state mutated, output lost), rolls back to the newest
    # barrier-by-instant checkpoint, replays, and must still agree with
    # the reference instant by instant.  Then the whole DSMS recovers
    # from crashes on a checkpoint tick, in advance_time and in a replay,
    # through its incremental checkpoints.
    divergence = _kernel_crashed_leg(case, streams, truth, is_r2s)
    if divergence is not None:
        return divergence
    divergence = _dsms_crashed_leg(case, streams, ref_state)
    if divergence is not None:
        return divergence

    # DSMS leg: the default engine, each instant whole or split in two.
    divergence = _dsms_leg(case, streams, ref_state)
    if divergence is not None:
        return divergence

    # Batched leg: the same engine draining capped instant quanta.
    # Batched vs per-element execution must agree instant by instant.
    divergence = _kernel_batched_leg(case, streams, ref_state)
    if divergence is not None:
        return divergence

    # Final leg: multi-query plan sharing.  The same query registered
    # twice in a sharing engine runs as one shared operator DAG; both
    # members must still match the reference instant by instant, and
    # must agree with each other emission for emission.
    return _dsms_shared_leg(case, streams, ref_state)


def _kernel_parallel_leg(case: Case, streams, truth,
                         is_r2s: bool) -> Divergence | None:
    """Run the query fissioned into 2 key partitions inside one query.

    Exercises the §4.2 stack under fuzzing: the planner's
    partition-scheme proof, hash routing of every arrival, and the
    per-partition operator copies under one agenda and one root fold.
    Width 2, not more: at width 3 the generator's hot rooms 'a' and 'b'
    share a partition, which would leave the cross-partition union
    mostly untested.
    """
    from repro.cql.executor import ContinuousQuery
    from repro.plan.parallel import partition_scheme

    exec_engine = build_engine()
    try:
        plan = exec_engine.plan(case.query, optimize=True)
    except ReproError as exc:
        return Divergence("kernel-parallel", f"planning failed: {exc!r}")
    if partition_scheme(plan) is None:
        return None
    try:
        query = ContinuousQuery(plan, exec_engine.catalog, parallelism=2)
        relevant = {name: stream for name, stream in streams.items()
                    if name in query._stream_sources}
        query.run_recorded(relevant)
    except ReproError as exc:
        return Divergence("kernel-parallel",
                          f"partitioned run crashed: {exc!r}")
    return _output_divergence("kernel-parallel", "partitioned",
                              query, truth, is_r2s)


def _output_divergence(leg: str, label: str, query, truth,
                       is_r2s: bool) -> Divergence | None:
    """The query's emitted stream (R2S) or change-log against the
    reference."""
    if is_r2s:
        produced = query.emitted_stream()
        if produced.timestamps() != truth.timestamps() \
                or produced.values() != truth.values():
            return Divergence(leg, _diff_detail(
                label, _stream_list(produced),
                "reference", _stream_list(truth)))
    elif not (query.as_relation() == truth):
        return Divergence(leg, _diff_detail(
            label, _snapshot_list(query.as_relation()),
            "reference", _snapshot_list(truth)))
    return None


def _kernel_rescaled_leg(case: Case, streams, truth,
                         is_r2s: bool) -> Divergence | None:
    """Live-rescale 1→4→2 mid-stream; output must not diverge.

    Exercises the elasticity stack under fuzzing: recompiling at the new
    width at an instant boundary and re-keying every per-partition
    operator's state by ``partition_of`` placement, with the one
    agenda, change-log and emission list carried across untouched.
    Unpartitionable plans skip, exactly like the kernel-parallel leg.
    """
    from repro.cql.executor import ContinuousQuery, instant_batches
    from repro.plan.parallel import partition_scheme
    from repro.runtime.rescale import rescale

    exec_engine = build_engine()
    try:
        plan = exec_engine.plan(case.query, optimize=True)
    except ReproError as exc:
        return Divergence("kernel-rescaled", f"planning failed: {exc!r}")
    if partition_scheme(plan) is None:
        return None
    try:
        query = ContinuousQuery(plan, exec_engine.catalog)
        batches = instant_batches(
            {name: stream for name, stream in streams.items()
             if name in query._stream_sources})
        first = max(1, len(batches) // 3)
        second = max(first + 1, 2 * len(batches) // 3)
        schedule = {first: 4, second: 2}
        query.start()
        for position, (t, arrivals) in enumerate(batches):
            if position in schedule:
                rescale(query, schedule[position])
            query.push_batch(t, arrivals)
        for position in sorted(schedule):
            # Degenerate cases (≤ 2 instants): still exercise both
            # migrations, after the stream instead of inside it.
            if position >= len(batches):
                rescale(query, schedule[position])
        query.finish()
    except ReproError as exc:
        return Divergence("kernel-rescaled",
                          f"rescaled run crashed: {exc!r}")
    if query.parallelism != 2:
        return Divergence("kernel-rescaled",
                          f"expected final width 2, got "
                          f"{query.parallelism}")
    return _output_divergence("kernel-rescaled", "rescaled", query, truth,
                              is_r2s)


def run_rescale_case(case: Case) -> Divergence | None:
    """Run only the live-rescale leg of one case (targeted campaigns:
    ``--rescale-cases`` on the fuzz CLI and the rescale benchmark).
    Skipped (None) when the plan is not key-partitionable."""
    streams = build_streams(case)
    engine = build_engine()
    try:
        plan_naive = engine.plan(case.query, optimize=False)
        truth = reference_evaluate(plan_naive, engine.catalog, streams)
    except ReproError as exc:
        return Divergence("error", f"reference failed: {exc!r}")
    is_r2s = plan_naive.op_name in _R2S_OPS
    return _kernel_rescaled_leg(case, streams, truth, is_r2s)


def _kernel_crashed_leg(case: Case, streams, truth,
                        is_r2s: bool) -> Divergence | None:
    """Kill each physical operator once mid-stream; recovery must erase it.

    One recovery run per operator position: a :class:`CrashFuse` is armed
    at half the case's instants, the crash fires after the operator has
    mutated its state but before its output lands (torn state), and
    :class:`RecoveryManager` rolls the query back to the newest
    checkpoint and replays.  Exactly-once means the final emissions and
    change-log are indistinguishable from the fault-free legs.
    """
    from repro.chaos.recovery import RecoveryManager, run_query_with_recovery

    probe = build_engine()
    try:
        probe_query = probe.register_query(case.query, optimize=True)
    except ReproError as exc:
        return Divergence("kernel-crashed", f"registration failed: {exc!r}")
    operator_count = len(probe_query.operators())
    relevant = {name: stream for name, stream in streams.items()
                if name in probe_query._stream_sources}
    instants = {element.timestamp
                for stream in relevant.values() for element in stream}
    fuse_at = max(1, (len(instants) + 1) // 2)

    for position in range(operator_count):
        exec_engine = build_engine()
        query = exec_engine.register_query(case.query, optimize=True)
        fuse = CrashFuse(at=fuse_at)
        label = install_crash(query, position, fuse)
        manager = RecoveryManager(query, interval=2,
                                  sleep=lambda _delay: None,
                                  backoff_base=0.0,
                                  label="kernel-crashed")
        try:
            run_query_with_recovery(query, relevant, manager)
        except ReproError as exc:
            return Divergence("kernel-crashed", (
                f"crash in {label} (operator {position}) not recovered: "
                f"{exc!r}"))
        # A fuse scheduled past the stream's end never fires; the run is
        # then just a fault-free run and the comparison still holds.
        divergence = _output_divergence("kernel-crashed", "recovered",
                                        query, truth, is_r2s)
        if divergence is not None:
            where = (f"crashed {label} (operator {position}, "
                     f"fired {fuse.fired})")
            return Divergence(divergence.kind,
                              f"{where}: {divergence.detail}")
    return None


def _dsms(**options: Any) -> DSMSEngine:
    """A DSMS over the difftest catalog, with room to queue every arrival."""
    dsms = DSMSEngine(queue_capacity=1_000_000, **options)
    dsms.register_stream("Obs", OBS_SCHEMA)
    dsms.register_stream("Alerts", ALERTS_SCHEMA)
    dsms.register_relation("Rooms", ROOMS_SCHEMA, ROOMS_ROWS)
    return dsms


def _arrivals(streams, handle) -> list[tuple[int, str, Any]]:
    """``(t, stream, record)`` for every element ``handle`` reads, in time
    order (stable: generation order within an instant)."""
    arrivals = [(element.timestamp, name, element.value)
                for name, stream in streams.items()
                if handle.reads_stream(name) for element in stream]
    arrivals.sort(key=lambda item: item[0])
    return arrivals


def _state_divergence(leg: str, label: str, handle,
                      ref_state) -> Divergence | None:
    """Snapshot-reducibility: the maintained state per instant must equal
    the reference relation of the R2S child (the relation the stream
    operator samples from)."""
    got = handle.query.as_relation()
    if got == ref_state:
        return None
    return Divergence(leg, _diff_detail(
        label, _snapshot_list(got), "reference", _snapshot_list(ref_state)))


def _dsms_leg(case: Case, streams, ref_state) -> Divergence | None:
    """The default engine, drained after a case-seeded prefix of each
    instant's arrivals and again after the rest: a relation-output query
    sees its instants both whole and split across two quanta (a
    stream-output one is serviced one tuple per quantum either way)."""
    dsms = _dsms()
    try:
        handle = dsms.register_query("q", case.query, shedder=NoShedding())
    except ReproError as exc:
        return Divergence("dsms", f"registration failed: {exc!r}")
    split = random.Random(zlib.crc32(case.query.encode()))
    try:
        for _, instant in groupby(_arrivals(streams, handle),
                                  key=itemgetter(0)):
            instant = list(instant)
            prefix = split.randint(0, len(instant))
            for part in (instant[:prefix], instant[prefix:]):
                for t, name, record in part:
                    dsms.ingest(name, record, t)
                dsms.run_until_idle()
        handle.query.finish()
    except ReproError as exc:
        return Divergence("dsms", f"servicing crashed: {exc!r}")
    return _state_divergence("dsms", "dsms", handle, ref_state)


#: Arrivals (and time advances) per checkpoint in the dsms-crashed leg.
_DSMS_CHECKPOINT_INTERVAL = 3
#: Beyond every window the generator draws: the script's last
#: ``advance_time`` flushes all pending expirations, as ``finish`` would.
_FLUSH_HORIZON = 1000


def _dsms_script(arrivals: list[tuple[int, str, Any]]) -> list[tuple]:
    """The dsms-crashed leg's driving script.

    Each arrival is ingested and drained alone.  Between instants time
    advances to just before the next one, so the expirations due there
    fire inside ``advance_time`` rather than in the next push; after the
    last arrival it advances past every window.
    """
    script: list[tuple] = []
    for index, (t, name, record) in enumerate(arrivals):
        script += [("ingest", name, record, t), ("drain",)]
        if index + 1 == len(arrivals):
            script.append(("advance", t + _FLUSH_HORIZON))
        elif arrivals[index + 1][0] > t:
            script.append(("advance", arrivals[index + 1][0] - 1))
    return script


def _run_script(dsms: DSMSEngine, script: list[tuple],
                aim: "_CrashAim | None" = None) -> None:
    for step in script:
        if aim is not None:
            aim.before(step)
        if step[0] == "ingest":
            dsms.ingest(*step[1:])
        elif step[0] == "drain":
            dsms.run_until_idle()
        else:
            dsms.advance_time(step[1])
        if aim is not None:
            aim.after(step)


class _Shot(CrashFuse):
    """A crash the dsms-crashed leg aims: once ``armed`` with a name
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
    """Aims the dsms-crashed leg's three crashes at a recovering engine.

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


def _dsms_crashed_leg(case: Case, streams, ref_state,
                      shots: list[tuple[str, str]] | None = None,
                      ) -> Divergence | None:
    """Recovery through the DSMS's incremental checkpoints, under fuzzing.

    The case runs through ``DSMSEngine(recovery_interval=3)`` by the
    :func:`_dsms_script`, crashed on a checkpoint tick, in
    ``advance_time`` and in the replay that recovers from that (see
    :class:`_CrashAim`), at case-dependent operator positions.  Its
    emissions, change-log and Store history must equal the same script's
    on a fault-free engine, whose state must match the reference.  The
    script drains after every arrival, but a replay re-offers what was
    logged since the checkpoint at once, so a relation-output query
    folds an instant in one quantum that the fault-free run folded
    arrival by arrival: batched × crashed.  ``shots``, when given,
    collects ``(shot, phase it fired in)``.
    """
    clean, crashed = _dsms(), _dsms(
        recovery_interval=_DSMS_CHECKPOINT_INTERVAL)
    try:
        clean_handle = clean.register_query("q", case.query)
        handle = crashed.register_query("q", case.query)
    except ReproError as exc:
        return Divergence("dsms-crashed", f"registration failed: {exc!r}")
    script = _dsms_script(_arrivals(streams, handle))
    try:
        _run_script(clean, script)
    except ReproError as exc:
        return Divergence("dsms-crashed", f"fault-free run crashed: {exc!r}")
    divergence = _state_divergence("dsms-crashed", "fault-free",
                                   clean_handle, ref_state)
    if divergence is not None:
        return divergence
    aim = _CrashAim(crashed, handle, len(script),
                    zlib.crc32(case.query.encode()))
    try:
        _run_script(crashed, script, aim)
    except ReproError as exc:
        return Divergence("dsms-crashed",
                          f"{aim.where()}; not recovered: {exc!r}")
    finally:
        if shots is not None:
            shots.extend(aim.shots)
    for part, got, want in (
            ("emissions", handle.emissions(), clean_handle.emissions()),
            ("change-log", handle.query._log, clean_handle.query._log),
            ("Store history", list(handle.store_history().snapshots()),
             list(clean_handle.store_history().snapshots()))):
        if got != want:
            return Divergence("dsms-crashed", (
                f"{aim.where()}; {part} differs from the fault-free run: "
                + _diff_detail("recovered", got, "fault-free", want)))
    return None


def _kernel_batched_leg(case: Case, streams, ref_state) -> Divergence | None:
    """The eighth leg: DSMS instant quanta under fuzzing.

    The whole arrival log is ingested up front and drained with
    ``batch_size=8`` quanta, so same-instant tuples actually coalesce
    into one ``push_batch`` → one batched instant.  The batch
    size is an *explicit* per-query override — the planner's
    emission-safety clamp is deliberately bypassed so aggregate, join
    and windowed plans run batched too — which makes the state log the
    comparison surface: snapshot-reducibility demands the maintained
    relation per instant equals the reference relation of the R2S child
    plan, exactly as the per-element DSMS leg is judged.
    """
    dsms = _dsms()
    try:
        handle = dsms.register_query("q", case.query, shedder=NoShedding(),
                                     batch_size=8)
    except ReproError as exc:
        return Divergence("kernel-batched", f"registration failed: {exc!r}")
    try:
        for t, name, record in _arrivals(streams, handle):
            dsms.ingest(name, record, t)
        dsms.run_until_idle()
        handle.query.finish()
    except ReproError as exc:
        return Divergence("kernel-batched", f"servicing crashed: {exc!r}")
    return _state_divergence("kernel-batched", "batched", handle, ref_state)


def _dsms_shared_leg(case: Case, streams, ref_state) -> Divergence | None:
    dsms = _dsms(sharing=True)
    try:
        first = dsms.register_query("q1", case.query)
        second = dsms.register_query("q2", case.query)
    except ReproError as exc:
        return Divergence("dsms-shared", f"registration failed: {exc!r}")
    try:
        for t, name, record in _arrivals(streams, first):
            dsms.ingest(name, record, t)
            dsms.run_until_idle()
        first.query.finish()
    except ReproError as exc:
        return Divergence("dsms-shared", f"servicing crashed: {exc!r}")
    for handle in (first, second):
        divergence = _state_divergence(
            "dsms-shared", f"shared:{handle.name}", handle, ref_state)
        if divergence is not None:
            return divergence
    if first.emissions() != second.emissions():
        return Divergence("dsms-shared", _diff_detail(
            "q1", first.emissions(), "q2", second.emissions()))
    return None


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
    dsms = DSMSEngine()
    dsms.register_stream("Obs", OBS_SCHEMA)
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
    """The ninth leg: every dynamic table vs recompute-from-base.

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
        for version, _deltas in service.view(name).history:
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
