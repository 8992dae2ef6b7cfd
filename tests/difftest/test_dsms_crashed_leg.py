"""The dsms-crashed oracle config: recovery through incremental
checkpoints.

Every generated case also runs through ``DSMSEngine(recovery_interval=3)``
with crashes aimed on a checkpoint tick, inside ``advance_time`` and
inside the replay recovering from that.  These tests pin that the aims
land where they are meant to over a seeded campaign, and that the
crash configs are sharp enough to catch an operator that forgets to mark
a key dirty — a bug that would otherwise roll back to a stale image in
silence.  A bare query under a ``RecoveryManager`` checkpoints by the
same barrier, so the kernel-crashed config may catch it first.
"""

import random
from collections import Counter

import pytest

from repro.cql import executor
from repro.cql.state import KeyedState
from repro.difftest import Config, gen_case, oracle, run_case

CASES = 300
DSMS_CRASHED = Config("dsms-crashed", driver="dsms", delivery="per-arrival",
                      crash="aimed")


def crashed_leg(case, shots, monkeypatch):
    """Run ``case`` under the dsms-crashed config; collect
    ``(shot, phase it fired in)`` into ``shots``."""
    aims = []

    class Collecting(oracle._CrashAim):
        def __init__(self, *args):
            super().__init__(*args)
            aims.append(self)

    monkeypatch.setattr(oracle, "_CrashAim", Collecting)
    divergence = run_case(case, configs=[DSMS_CRASHED])
    for aim in aims:
        shots.extend(aim.shots)
    return divergence


@pytest.mark.difftest
def test_crashes_land_on_barrier_ticks_in_advance_and_in_replay(monkeypatch):
    rng = random.Random(0)
    shots = []
    for index in range(CASES):
        divergence = crashed_leg(gen_case(rng, seed=index), shots,
                                 monkeypatch)
        assert divergence is None, f"case {index}: {divergence}"
    landed = Counter(shots)
    # Each shot fires only in the phase it was aimed at...
    assert set(landed) == {("barrier", "barrier"), ("advance", "advance"),
                           ("replay", "replay")}
    # ...and every phase is hit across the campaign.
    assert landed[("barrier", "barrier")] >= CASES // 2
    assert landed[("advance", "advance")] >= CASES // 10
    assert landed[("replay", "replay")] == landed[("advance", "advance")]


def forget_marks(monkeypatch, cls, method, attr):
    """Mutant: ``cls.method`` changes its ``attr`` container without
    marking the keys it changed."""
    original, mark = getattr(cls, method), KeyedState.mark
    muted = set()

    def unmarked(self, *args):
        state = getattr(self, attr)
        muted.add(state)
        try:
            return original(self, *args)
        finally:
            muted.discard(state)

    def selective(self, keys):
        if self not in muted:
            mark(self, keys)

    monkeypatch.setattr(cls, method, unmarked)
    monkeypatch.setattr(KeyedState, "mark", selective)


@pytest.mark.difftest
@pytest.mark.parametrize("cls, method, attr", [
    (executor.StreamSourceOp, "process", "_expiries"),
    (executor.StreamSourceOp, "process", "_per_key"),
    (executor.AggregateOp, "process", "_groups"),
    (executor.JoinOp, "process", "_state1"),
    (executor.DistinctOp, "process", "_counts"),
    (executor.SetOpOp, "process", "_left"),
], ids=lambda value: getattr(value, "__name__", value))
def test_oracle_catches_a_dropped_dirty_mark(monkeypatch, cls, method, attr):
    forget_marks(monkeypatch, cls, method, attr)
    rng = random.Random(0)
    for index in range(CASES):
        divergence = run_case(gen_case(rng, seed=index))
        if divergence is not None:
            assert divergence.kind in ("kernel-crashed", "dsms-crashed"), \
                str(divergence)
            return
    pytest.fail(f"no divergence in {CASES} cases with {cls.__name__}."
                f"{method} forgetting its {attr} marks")
