"""``tools/sample_profile.py`` samples where the CPU time goes: a
function that burns CPU gets most of the samples, and the leaf shares
of one run sum to 1."""

import importlib.util
import pathlib
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sample_profile():
    spec = importlib.util.spec_from_file_location(
        "sample_profile", ROOT / "tools" / "sample_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def busy(seconds):
    """Burn ``seconds`` of process CPU time in this frame."""
    end = time.process_time() + seconds
    spins = 0
    while time.process_time() < end:
        spins += 1
    return spins


def test_a_busy_function_gets_most_samples(sample_profile):
    sampler = sample_profile.Sampler()
    sampler.start()
    try:
        busy(0.4)
    finally:
        sampler.stop()
    assert sampler.samples >= 10
    name = f"{__name__}:busy"
    leaf = sampler.shares(sampler.leaf)
    inclusive = sampler.shares(sampler.inclusive)
    assert leaf[name] > 0.5
    assert inclusive[name] >= leaf[name]
    assert sum(leaf.values()) == pytest.approx(1.0)
    assert max(inclusive.values()) <= 1.0
    assert sampler.cpu_seconds >= 0.4
