"""Mutation smoke-check: the oracle must catch every seeded bug.

For each mutant the harness fuzzes until a divergence appears, shrinks
it, emits a standalone pytest repro, and verifies the repro actually
fails under the mutant and passes on the fixed code — the full
counterexample lifecycle, per injected bug class.
"""

import importlib.util
import random
from dataclasses import replace

import pytest

from repro.difftest import (
    MUTANTS,
    build_engine,
    case_configs,
    emit_core_repro,
    emit_repro,
    gen_case,
    gen_core_window_case,
    run_case,
    run_core_window_case,
    shrink_case,
    shrink_core_case,
)
from repro.plan.ir import Join, Project, walk

#: Detection budget per mutant.  Empirically the slowest mutant to catch
#: (state-log-coalesce) falls within ~120 seed-0 cases; 600 gives slack
#: without letting a broken oracle burn minutes.
BUDGET = 600


def _find_divergence(leg: str, rng: random.Random):
    for _ in range(BUDGET):
        if leg == "cql":
            case = gen_case(rng)
            divergence = run_case(case)
        else:
            case = gen_core_window_case(rng)
            divergence = run_core_window_case(case)
        if divergence is not None:
            return case, divergence
    return None, None


def _load_test(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (test_fn,) = [getattr(module, name) for name in dir(module)
                  if name.startswith("test_")]
    return test_fn


@pytest.mark.difftest
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_oracle_catches_mutant_and_repro_roundtrips(name, tmp_path):
    factory, leg = MUTANTS[name]
    with factory():
        case, divergence = _find_divergence(leg, random.Random(0))
        assert divergence is not None, (
            f"oracle missed mutant {name!r} within {BUDGET} cases")
        if leg == "cql":
            case, divergence = shrink_case(case, divergence)
            path = emit_repro(case, divergence,
                              tmp_path / "test_repro_mutant.py")
        else:
            case, divergence = shrink_core_case(case, divergence)
            path = emit_core_repro(case, divergence,
                                   tmp_path / "test_repro_mutant.py")
        # The emitted repro must fail while the bug is present...
        repro = _load_test(path)
        with pytest.raises(AssertionError):
            repro()
    # ...and pass on the fixed code.
    repro = _load_test(path)
    repro()


@pytest.mark.difftest
def test_the_two_axis_mutant_needs_obs():
    """obs-rescale-marks needs obs and a rescale at once: over the cases
    the oracle scans until it catches the mutant, the same configs with
    obs off run clean."""
    factory, _leg = MUTANTS["obs-rescale-marks"]
    rng = random.Random(0)
    with factory():
        for _ in range(BUDGET):
            case = gen_case(rng)
            obs_off = [replace(config, obs="off")
                       for config in case_configs(case)]
            assert run_case(case, obs_off) is None
            divergence = run_case(case)
            if divergence is not None:
                assert divergence.config.rescale
                assert divergence.config.obs != "off"
                return
    pytest.fail(f"oracle missed obs-rescale-marks within {BUDGET} cases")


@pytest.mark.difftest
def test_shrunk_counterexamples_are_small():
    """Shrinking must actually minimise: the known state-log mutant case
    lands well under the generated stream sizes."""
    factory, _leg = MUTANTS["state-log-coalesce"]
    with factory():
        case, divergence = _find_divergence("cql", random.Random(0))
        assert divergence is not None
        original_rows = case.total_rows()
        shrunk, _ = shrink_case(case, divergence)
        assert shrunk.total_rows() <= original_rows
        assert shrunk.total_rows() <= 8


@pytest.mark.difftest
def test_the_fused_emission_mutant_is_caught_on_a_fused_join():
    """join-probe-own-row breaks only the generated probe of a join that
    reads the other row's columns in place — one that emits the
    projection above it: the bounded seed-0 fuzz catches it within the
    budget, on a case whose plan has a Project directly on a Join, and
    that case runs clean on the unmutated tree."""
    factory, _leg = MUTANTS["join-probe-own-row"]
    with factory():
        case, divergence = _find_divergence("cql", random.Random(0))
    assert divergence is not None, (
        f"oracle missed mutant 'join-probe-own-row' within {BUDGET} cases")
    plan = build_engine().plan(case.query)
    assert any(isinstance(node, Project) and isinstance(node.child, Join)
               for node in walk(plan))
    assert run_case(case) is None


@pytest.mark.difftest
@pytest.mark.parametrize("name", ["null-counting-count", "join-probe-own-row"])
def test_a_renderer_mutant_is_caught_after_its_shapes_compiled_clean(name):
    """Both mutants patch a kernel renderer (``kernels.STEPS``,
    ``kernels._join_column``).  Each case the seed-0 fuzz draws runs
    unmutated first, which renders, compiles and caches its kernels in
    this process; the mutant must still be caught on the same cases: no
    cache between a plan and its kernels may bypass a patched renderer."""
    factory, _leg = MUTANTS[name]
    rng = random.Random(0)
    for _ in range(BUDGET):
        case = gen_case(rng)
        assert run_case(case) is None
        with factory():
            if run_case(case) is not None:
                return
    pytest.fail(f"oracle missed mutant {name!r} within {BUDGET} cases "
                f"once its shapes had compiled clean")
