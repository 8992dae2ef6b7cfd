"""Fault injection and crash recovery for the unified kernel (§4.2).

The survey makes fault tolerance the defining capability of modern
continuous-query systems: aligned barriers, consistent snapshots, and
replay-from-offset turn "the query ran" into "the query ran *exactly
once* despite crashes".  This package supplies both halves of the proof
obligation:

* :mod:`repro.chaos.injection` — provoke the failures: crash an operator
  at the Nth element (:func:`install_crash`), run broker fetches through
  a seeded faulty transport that drops/duplicates/reorders deliveries
  (:class:`ChaosBroker`), or stall a source past its ``idle_timeout``
  (:class:`SourceStall`).
* :mod:`repro.chaos.recovery` — survive them: :class:`RecoveryManager`
  takes periodic checkpoints of any target exposing ``snapshot()`` /
  ``restore()`` (a :class:`~repro.cql.executor.ContinuousQuery`, an
  :class:`~repro.exec.Plan`, a :class:`~repro.dsms.engine.DSMSEngine`)
  and drives restore-and-replay with bounded retries and exponential
  backoff, publishing ``recovery.attempts`` / ``checkpoint.bytes`` /
  ``recovery.replayed_records`` through :mod:`repro.obs`.

The difftest oracle's crash axis composes the two: kill each operator
once mid-stream, recover, and require the fault-free run's output
("kernel-crashed"); or crash a recovering DSMS on a checkpoint tick, in
``advance_time`` and in a replay, and require the fault-free engine's
output ("dsms-crashed").
"""

from repro.chaos.injection import (
    ChaosBroker,
    CrashFuse,
    InjectedCrash,
    SourceStall,
    install_crash,
)
from repro.chaos.recovery import (
    Checkpoint,
    RecoveryManager,
    run_query_with_recovery,
    run_with_recovery,
)

__all__ = [
    "ChaosBroker",
    "Checkpoint",
    "CrashFuse",
    "InjectedCrash",
    "RecoveryManager",
    "SourceStall",
    "install_crash",
    "run_query_with_recovery",
    "run_with_recovery",
]
