"""The kernel-views oracle leg: seeded DAG cases vs recompute-from-base."""

import random

import pytest

from repro.views.operators import DeltaAggregateOp
from repro.difftest import emit_view_repro, gen_view_case, run_view_case
from repro.difftest.runner import fuzz

pytestmark = pytest.mark.views


def test_seeded_sweep_is_clean():
    rng = random.Random(0)
    for seed in range(60):
        case = gen_view_case(rng, seed=seed)
        divergence = run_view_case(case)
        assert divergence is None, (seed, divergence)


def test_generation_is_deterministic_per_seed():
    first = gen_view_case(random.Random(42), seed=42)
    second = gen_view_case(random.Random(42), seed=42)
    assert first.views == second.views
    assert first.initial == second.initial
    assert first.events == second.events


def test_cases_exercise_the_interesting_events():
    rng = random.Random(3)
    kinds = set()
    for seed in range(40):
        case = gen_view_case(rng, seed=seed)
        kinds |= {event[0] for event in case.events}
    assert {"apply", "tick", "refresh", "suspend", "resume",
            "crash", "create"} <= kinds


def test_cases_create_views_mid_stream_and_over_held_sources():
    """Late creates follow commits, ticks and suspensions, and some are
    attempted while a suspended view holds a source (must be refused)."""
    rng = random.Random(3)
    after, retried = set(), 0
    for seed in range(60):
        case = gen_view_case(rng, seed=seed)
        created = [e[1] for e in case.events if e[0] == "create"]
        retried += len(created) - len(set(created))
        for index, event in enumerate(case.events):
            if event[0] == "create":
                after |= {e[0] for e in case.events[:index]}
        installed = {spec["name"] for spec in case.views} - set(created)
        for event in case.events:
            if event[0] == "create":
                installed.add(event[1])
            elif event[0] in ("refresh", "suspend", "resume", "crash"):
                assert event[1] in installed, (seed, event)
    assert {"apply", "tick", "suspend", "resume"} <= after
    assert retried > 0


def cases_caught(cases):
    """How many of the first ``cases`` seeded cases the leg reports."""
    rng = random.Random(0)
    caught = 0
    for seed in range(cases):
        case = gen_view_case(rng, seed=seed)
        try:
            if run_view_case(case) is not None:
                caught += 1
        except Exception:
            caught += 1  # over-retraction surfacing as an error also counts
    return caught


def test_leg_catches_a_broken_aggregate(monkeypatch):
    """Dropping retractions inside the kernel must be reported."""
    original = DeltaAggregateOp.process_batch

    def lossy(self, batch):
        kept = [d for d in batch if d.weight > 0]
        return original(self, kept)

    monkeypatch.setattr(DeltaAggregateOp, "process_batch", lossy)
    assert cases_caught(40) > 0


def test_leg_catches_a_gc_one_version_past_the_mark(monkeypatch):
    """Reclaiming the entry just above the low-water mark loses a slice
    some lagging or suspended consumer has yet to pull."""
    from repro.views.delta import Changelog

    original = Changelog.gc
    monkeypatch.setattr(Changelog, "gc",
                        lambda self, below: original(self, below + 1))
    assert cases_caught(60) > 0


def test_fuzz_reports_view_cases(tmp_path):
    report = fuzz(seed=5, cases=0, core_cases=0, view_cases=10,
                  repro_dir=str(tmp_path))
    assert report.view_cases == 10
    assert report.clean
    assert "10 view cases" in report.summary()


def test_emit_view_repro_round_trips(tmp_path):
    case = gen_view_case(random.Random(1), seed=1)
    path = tmp_path / "test_repro_views_0.py"
    emit_view_repro(case, None, str(path))
    text = path.read_text()
    assert repr(case.views) in text
    assert repr(case.events) in text
    scope = {}
    exec(compile(text, str(path), "exec"), scope)
    scope["test_view_counterexample"]()  # the emitted case replays clean
