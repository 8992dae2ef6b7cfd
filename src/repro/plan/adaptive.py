"""Adaptive re-optimisation: the hysteresis loop behind ``autoscale=``.

The survey's "Query Optimization in the Wild" thread names *adaptive
re-optimization* — re-planning a standing query against observed runtime
conditions — as the live frontier, and Fragkoulis et al. single out
elasticity (changing a running query's parallelism) as the capability
separating modern stream engines.  This module is the decision half of
that loop; the mechanism half (state migration) is
:mod:`repro.runtime.rescale`.

The split is deliberate:

* :class:`Signals` — one poll's worth of runtime evidence (queue
  occupancy and pressure events from the DSMS backpressure telemetry,
  event-time watermark lag, per-partition load skew, live operator
  selectivity from the profiler).  Plain data, built by whoever hosts
  the loop.
* :class:`AdaptiveController` — a *pure, deterministic* policy: feed it
  a :class:`Signals`, get a :class:`Decision` back.  No clocks, no
  engine references, no I/O — so the hysteresis behaviour is unit
  testable poll by poll.

Hysteresis, because naive threshold reactions oscillate: a congested
queue triggers a scale-up, the wider query drains the backlog, the idle
queue triggers a scale-down, congestion returns.  Three guards prevent
that flapping:

* a **band** between ``high_occupancy`` and ``low_occupancy`` where no
  action is taken (the classic dead zone);
* **confirmation** — the same direction must be wanted ``confirm_polls``
  times in a row before a decision is issued (one bursty poll is not a
  trend);
* **cooldown** — after a rescale, ``cooldown_polls`` polls are ignored
  entirely, giving the migrated query time to exhibit steady-state
  behaviour at its new width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import PlanError

__all__ = ["AdaptivePolicy", "Signals", "Decision", "AdaptiveController",
           "skew_ratio"]


def skew_ratio(loads: Sequence[float]) -> float:
    """Max/mean per-partition load — 1.0 is perfectly balanced.

    A fissioned query's load-balance evidence: a ratio
    of N on N partitions means one partition is doing all the work (the
    hot-key pathology rescaling redistributes).
    """
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    if mean <= 0:
        return 1.0
    return max(loads) / mean


@dataclass(frozen=True)
class AdaptivePolicy:
    """Thresholds and hysteresis knobs for the adaptivity loop."""

    min_parallelism: int = 1
    max_parallelism: int = 8
    #: Queue occupancy (depth/capacity at poll time) at or above which
    #: the controller wants to scale up.
    high_occupancy: float = 0.75
    #: Occupancy at or below which it wants to scale down (the dead zone
    #: between the two is where stable configurations live).
    low_occupancy: float = 0.10
    #: Event-time watermark lag at or above which to scale up; ``None``
    #: disables the lag trigger.  The DSMS reads it before each drain as
    #: the newest watermark of the query's streams minus the instant the
    #: query last evaluated, with obs on or off.
    high_watermark_lag: float | None = None
    #: Per-partition load skew (max/mean) at or above which to scale up —
    #: more partitions re-spread hot keys across the hash space.
    high_skew: float | None = None
    #: Same-direction polls required before a decision is issued.
    confirm_polls: int = 2
    #: Polls ignored after a rescale decision.
    cooldown_polls: int = 2
    #: Multiplicative step: up multiplies, down divides (ceil).
    factor: int = 2

    def __post_init__(self) -> None:
        if self.min_parallelism < 1:
            raise PlanError(f"min_parallelism must be >= 1, "
                            f"got {self.min_parallelism}")
        if self.max_parallelism < self.min_parallelism:
            raise PlanError(
                f"max_parallelism {self.max_parallelism} below "
                f"min_parallelism {self.min_parallelism}")
        if not 0.0 <= self.low_occupancy < self.high_occupancy <= 1.0:
            raise PlanError(
                f"need 0 <= low_occupancy < high_occupancy <= 1, got "
                f"{self.low_occupancy} / {self.high_occupancy}")
        if self.confirm_polls < 1:
            raise PlanError(f"confirm_polls must be >= 1, "
                            f"got {self.confirm_polls}")
        if self.factor < 2:
            raise PlanError(f"factor must be >= 2, got {self.factor}")


@dataclass(frozen=True)
class Signals:
    """One poll of runtime evidence about a running query."""

    parallelism: int
    #: Input-queue occupancy in [0, 1] at poll time (backlog pressure).
    queue_occupancy: float = 0.0
    #: Cumulative queue pressure events (the controller differences
    #: successive polls itself, so feed the raw counter).
    pressure_events: int = 0
    #: Event-time lag (max over the query's streams); None = unobserved.
    watermark_lag: float | None = None
    #: Per-partition cumulative load (deltas processed, busy seconds —
    #: any monotone per-replica measure; skew is computed on deltas).
    partition_loads: tuple[float, ...] = ()
    #: Live root selectivity (rows out / rows in); None = unobserved.
    selectivity: float | None = None


@dataclass(frozen=True)
class Decision:
    """What the controller wants done after one poll."""

    action: str              # "hold" | "rescale"
    parallelism: int         # target width (== current when holding)
    reason: str

    @property
    def wants_rescale(self) -> bool:
        return self.action == "rescale"


class AdaptiveController:
    """Hysteresis-guarded rescale decisions from polled signals.

    One controller per standing query; call :meth:`poll` at a steady
    cadence (the DSMS polls once per ``run_until_idle``).  The
    controller is deterministic state: same signal sequence, same
    decision sequence.
    """

    def __init__(self, policy: AdaptivePolicy | None = None) -> None:
        self.policy = policy or AdaptivePolicy()
        self.decisions: list[Decision] = []
        self._pending_direction = 0     # -1 down, 0 none, +1 up
        self._pending_streak = 0
        self._cooldown = 0
        self._last_pressure: int | None = None
        self._last_loads: tuple[float, ...] = ()

    # -- desire ------------------------------------------------------------

    def _wanted(self, signals: Signals) -> tuple[int, str]:
        """The raw (unhysteresised) direction this poll argues for."""
        policy = self.policy
        new_pressure = (0 if self._last_pressure is None
                        else signals.pressure_events - self._last_pressure)
        if signals.queue_occupancy >= policy.high_occupancy:
            return 1, (f"queue occupancy "
                       f"{signals.queue_occupancy:.2f} >= "
                       f"{policy.high_occupancy:.2f}")
        if new_pressure > 0:
            return 1, f"{new_pressure} new queue pressure events"
        if policy.high_watermark_lag is not None \
                and signals.watermark_lag is not None \
                and signals.watermark_lag >= policy.high_watermark_lag:
            return 1, (f"watermark lag {signals.watermark_lag:g} >= "
                       f"{policy.high_watermark_lag:g}")
        if policy.high_skew is not None and len(self._last_loads) == \
                len(signals.partition_loads) and signals.partition_loads:
            fresh = [now - before for now, before
                     in zip(signals.partition_loads, self._last_loads)]
            ratio = skew_ratio(fresh)
            if ratio >= policy.high_skew and any(fresh):
                return 1, (f"partition skew {ratio:.2f} >= "
                           f"{policy.high_skew:.2f}")
        if signals.queue_occupancy <= policy.low_occupancy:
            return -1, (f"queue occupancy "
                        f"{signals.queue_occupancy:.2f} <= "
                        f"{policy.low_occupancy:.2f}")
        return 0, "signals inside the hysteresis band"

    def _target(self, direction: int, parallelism: int) -> int:
        policy = self.policy
        if direction > 0:
            return min(policy.max_parallelism,
                       parallelism * policy.factor)
        return max(policy.min_parallelism,
                   -(-parallelism // policy.factor))  # ceil division

    # -- the loop ----------------------------------------------------------

    def poll(self, signals: Signals) -> Decision:
        """Digest one poll of signals into a decision."""
        direction, reason = self._wanted(signals)
        self._last_pressure = signals.pressure_events
        self._last_loads = tuple(signals.partition_loads)
        if self._cooldown > 0:
            self._cooldown -= 1
            decision = Decision("hold", signals.parallelism,
                                f"cooling down ({self._cooldown} polls "
                                f"left); last signal: {reason}")
            self.decisions.append(decision)
            return decision
        if direction == 0 or \
                self._target(direction, signals.parallelism) \
                == signals.parallelism:
            self._pending_direction = 0
            self._pending_streak = 0
            decision = Decision("hold", signals.parallelism, reason)
            self.decisions.append(decision)
            return decision
        if direction == self._pending_direction:
            self._pending_streak += 1
        else:
            self._pending_direction = direction
            self._pending_streak = 1
        if self._pending_streak < self.policy.confirm_polls:
            decision = Decision(
                "hold", signals.parallelism,
                f"{reason} (confirmation {self._pending_streak}/"
                f"{self.policy.confirm_polls})")
            self.decisions.append(decision)
            return decision
        target = self._target(direction, signals.parallelism)
        self._pending_direction = 0
        self._pending_streak = 0
        self._cooldown = self.policy.cooldown_polls
        decision = Decision("rescale", target, reason)
        self.decisions.append(decision)
        return decision

    # -- introspection -----------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready controller state (surfaced by ``analyze``)."""
        last = self.decisions[-1] if self.decisions else None
        return {
            "polls": len(self.decisions),
            "rescales": sum(1 for d in self.decisions if d.wants_rescale),
            "cooldown": self._cooldown,
            "pending_streak": self._pending_streak,
            "last_decision": None if last is None else {
                "action": last.action, "parallelism": last.parallelism,
                "reason": last.reason},
        }
