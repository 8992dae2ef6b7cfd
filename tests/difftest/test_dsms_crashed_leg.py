"""The dsms-crashed oracle leg: recovery through incremental checkpoints.

Every generated case also runs through ``DSMSEngine(recovery_interval=3)``
with crashes aimed on a checkpoint tick, inside ``advance_time`` and
inside the replay recovering from that.  These tests pin that the aims
land where they are meant to over a seeded campaign, and that the
crashed legs are sharp enough to catch an operator that forgets to mark
a key dirty — a bug that would otherwise roll back to a stale image in
silence.  A bare query under a ``RecoveryManager`` checkpoints by the
same barrier, so the kernel-crashed leg may catch it first.
"""

import random
from collections import Counter

import pytest

from repro.cql import executor, reference_evaluate
from repro.cql.state import KeyedState
from repro.difftest import gen_case, run_case
from repro.difftest.generators import build_engine, build_streams
from repro.difftest.oracle import _R2S_OPS, _dsms_crashed_leg

CASES = 300


def crashed_leg(case, shots):
    streams = build_streams(case)
    engine = build_engine()
    plan = engine.plan(case.query, optimize=True)
    state_plan = plan.child if plan.op_name in _R2S_OPS else plan
    ref_state = reference_evaluate(state_plan, engine.catalog, streams)
    return _dsms_crashed_leg(case, streams, ref_state, shots)


@pytest.mark.difftest
def test_crashes_land_on_barrier_ticks_in_advance_and_in_replay():
    rng = random.Random(0)
    shots = []
    for index in range(CASES):
        divergence = crashed_leg(gen_case(rng, seed=index), shots)
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
    (executor.JoinOp, "process", "_right_state"),
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
