"""Checkpoint/restore/replay for any checkpoint-capable execution target.

:class:`RecoveryManager` is the in-process counterpart of the actor
runtime's :class:`~repro.runtime.checkpoint.CheckpointCoordinator`: where
the coordinator collects distributed per-subtask reports behind aligned
barriers, the manager checkpoints a *local* target — anything exposing
``snapshot()`` / ``restore(payload)``, i.e. a
:class:`~repro.cql.executor.ContinuousQuery`, a
:class:`~repro.views.DynamicTableService`, or a whole
:class:`~repro.dsms.engine.DSMSEngine` — at input-offset boundaries
(barrier-by-instant), and on failure drives restore-and-replay with
bounded retries.

The CQL stack's targets checkpoint by in-place barrier: ``snapshot()``
moves a recovery image kept inside the target and returns what changed
since the previous one, and ``restore(payload)`` rolls back to the
newest image only.  So the manager keeps one checkpoint, the newest,
which is the only one :meth:`RecoveryManager.recover` ever restores.

Observability (all through :mod:`repro.obs`, gated on ``obs.enable()``):

* ``recovery.attempts`` — restore attempts, labelled by target kind;
* ``checkpoint.bytes`` — the size of taken checkpoints.  A barrier sizes
  itself as it copies (the target's ``barrier_bytes``: the bytes its
  copies of the changed state allocated); a target without one (a
  :class:`~repro.viewmaint.RealTimeDatabase`) is measured with
  :func:`estimate_bytes`;
* ``recovery.replayed_records`` — input records reprocessed after
  rollback (the replay-volume cost of the chosen checkpoint interval);
* span ``recovery.restore`` around each state rollback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.errors import StateError
from repro.chaos.injection import InjectedCrash


def estimate_bytes(state: Any) -> int:
    """A serialized-size estimate (repr length) for obs accounting.

    Linear in everything the payload reaches, including what it holds by
    reference and never copied, and often dearer than taking the
    snapshot.  So it sizes only the full snapshots of targets outside the
    CQL stack (a :class:`~repro.viewmaint.RealTimeDatabase`); a target
    that sizes its own barrier reports ``barrier_bytes`` instead.
    """
    return len(repr(state))


@dataclass
class Checkpoint:
    """One retained snapshot: the state plus the input offset it covers.

    ``offset`` is the number of input units (instants, records — the
    driver's granularity) fully applied before the snapshot was taken;
    replay resumes from exactly there.
    """

    checkpoint_id: int
    offset: int
    state: Any
    size_bytes: int = 0
    taken_at: float = field(default_factory=time.perf_counter)


class RecoveryManager:
    """Periodic checkpoints + bounded-retry restore for one target.

    ``interval`` is measured in the driver's input units: ``committed(n)``
    takes a new checkpoint whenever ``n`` is at least ``interval`` units
    past the last one.  Only the newest checkpoint is kept: it is the
    recovery point, the only one :meth:`recover` uses (and the only one a
    barrier target can restore).  A restore is in-process, so a retry
    runs at once: there is nothing to wait for.  ``recoverable`` is the
    exception family that triggers rollback — anything else propagates,
    because retrying an unknown error replays input into a target of
    unknown integrity.
    """

    def __init__(self, target: Any, interval: int = 1,
                 max_retries: int = 3,
                 recoverable: tuple[type[BaseException], ...]
                 = (InjectedCrash,),
                 label: str | None = None) -> None:
        if interval <= 0:
            raise StateError(
                f"checkpoint interval must be positive, got {interval}")
        self.target = target
        self.interval = interval
        self.max_retries = max_retries
        self.recoverable = recoverable
        self.label = label or type(target).__name__
        #: The newest checkpoint, alone; empty before the first.
        self.checkpoints: list[Checkpoint] = []
        self._next_id = 1
        #: Restore attempts (including failed ones).
        self.attempts = 0
        #: Input units reprocessed after rollbacks.
        self.replayed_records = 0
        #: Bytes across all checkpoints taken (see :meth:`checkpoint`).
        self.checkpoint_bytes = 0
        #: Cumulative wall-clock seconds spent restoring state.
        self.recovery_seconds = 0.0

    # -- checkpointing -------------------------------------------------------

    def start(self) -> Checkpoint:
        """Take the baseline checkpoint (offset 0) if none exists yet."""
        if self.checkpoints:
            return self.checkpoints[-1]
        return self.checkpoint(0)

    def committed(self, offset: int) -> Checkpoint | None:
        """Note that ``offset`` input units are fully applied; checkpoint
        when the interval has elapsed since the last one."""
        if not self.checkpoints:
            return self.checkpoint(offset)
        if offset - self.checkpoints[-1].offset >= self.interval:
            return self.checkpoint(offset)
        return None

    def checkpoint(self, offset: int) -> Checkpoint:
        """Checkpoint the target now, covering inputs up to ``offset``; it
        replaces the previous checkpoint.

        Its size is the target's ``barrier_bytes`` when it has one (the
        bytes an incremental barrier copied, counted as it copied them),
        else the :func:`estimate_bytes` of the snapshot.
        """
        state = self.target.snapshot()
        size = getattr(self.target, "barrier_bytes", None)
        if size is None:
            size = estimate_bytes(state)
        checkpoint = Checkpoint(self._next_id, offset, state, size)
        self._next_id += 1
        self.checkpoints[:] = [checkpoint]
        self.checkpoint_bytes += size
        if obs._STATE.enabled:
            obs.get_registry().counter(
                "checkpoint.bytes", target=self.label).inc(size)
            obs.get_registry().counter(
                "checkpoint.taken", target=self.label).inc()
        if _profile._ENABLED:
            _profile._RECORDER.record(
                "checkpoint", target=self.label,
                checkpoint=checkpoint.checkpoint_id, offset=offset,
                bytes=size)
        return checkpoint

    def latest(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    # -- recovery ------------------------------------------------------------

    def recover(self) -> Checkpoint:
        """Roll the target back to the newest checkpoint (timed, traced)."""
        checkpoint = self.latest()
        if checkpoint is None:
            raise StateError("no checkpoint to recover from")
        self.attempts += 1
        tracer = (obs.get_tracer() if obs._STATE.enabled
                  else obs.NoopTracer())
        if obs._STATE.enabled:
            obs.get_registry().counter(
                "recovery.attempts", target=self.label).inc()
        if _profile._ENABLED:
            _profile._RECORDER.record(
                "recovery.attempt", target=self.label,
                checkpoint=checkpoint.checkpoint_id,
                offset=checkpoint.offset)
        started = time.perf_counter()
        with tracer.span("recovery.restore", target=self.label,
                         checkpoint=checkpoint.checkpoint_id,
                         offset=checkpoint.offset):
            self.target.restore(checkpoint.state)
        self.recovery_seconds += time.perf_counter() - started
        return checkpoint

    def record_replayed(self, n: int) -> None:
        self.replayed_records += n
        if n and obs._STATE.enabled:
            obs.get_registry().counter(
                "recovery.replayed_records", target=self.label).inc(n)


def run_with_recovery(units: Sequence[Any],
                      apply_unit: Callable[[Any, int], None],
                      manager: RecoveryManager,
                      unit_size: Callable[[Any], int] | None = None,
                      ) -> RecoveryManager:
    """Apply ``units`` in order, recovering from injected faults.

    The generic restore-and-replay driver: a baseline checkpoint is taken
    before the first unit, ``manager.committed`` runs after each applied
    unit (checkpointing on the manager's interval), and a recoverable
    failure rolls the target back to the newest checkpoint and resumes
    from that checkpoint's offset — completed units in between are
    **replayed**, counted through ``unit_size`` (default: 1 per unit)
    into ``recovery.replayed_records``.  ``max_retries`` consecutive
    unrecovered failures re-raise.
    """
    manager.start()
    index = 0
    failures = 0
    while index < len(units):
        try:
            apply_unit(units[index], index)
        except manager.recoverable:
            failures += 1
            if failures > manager.max_retries:
                raise
            checkpoint = manager.recover()
            replayed = units[checkpoint.offset:index]
            manager.record_replayed(
                sum(unit_size(u) for u in replayed) if unit_size
                else len(replayed))
            index = checkpoint.offset
            continue
        failures = 0
        index += 1
        manager.committed(index)
    return manager


def run_query_with_recovery(query, streams: Mapping[str, Any],
                            manager: RecoveryManager,
                            finish: bool = True) -> RecoveryManager:
    """Replay recorded streams through a query under fault injection.

    The crash-consistent analogue of
    :meth:`~repro.cql.executor.ContinuousQuery.run_recorded`: input is
    grouped into per-instant batches (the same exact batching), each batch
    is one replay unit, and the manager's checkpoints are taken at instant
    boundaries — barrier-by-instant.  After the final unit the query's
    emissions, log and state are exactly those of a fault-free
    ``run_recorded`` over the same streams, which is the property the
    kernel-crashed difftest config asserts over the same units (with a
    live rescale's steps between them).
    """
    from repro.cql.executor import instant_batches

    units: list[tuple] = [("start",)]
    units.extend(("push", t, arrivals)
                 for t, arrivals in instant_batches(streams))
    if finish:
        units.append(("finish",))

    def size(unit: tuple) -> int:
        if unit[0] != "push":
            return 0
        return sum(len(rows) for rows in unit[2].values())

    return run_with_recovery(
        units, lambda unit, _index: apply_query_unit(query, unit), manager,
        unit_size=size)


def apply_query_unit(query, unit: tuple) -> None:
    """Run one replay unit of :func:`run_query_with_recovery` on a query:
    ``("start",)``, ``("push", t, arrivals)`` or ``("finish",)``."""
    if unit[0] == "start":
        query.start()
    elif unit[0] == "push":
        query.push_batch(unit[1], unit[2])
    else:
        query.finish()
