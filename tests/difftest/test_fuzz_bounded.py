"""Tier-1 bounded differential fuzz: fixed seeds, <60 s, must run clean.

This is the CI face of the harness — 500 CQL cases plus 200 core-window
cases, deterministic under seed 0.  A failure here means two evaluators
disagree on some (query, stream) pair: the report carries the shrunk
counterexample.
"""

import json
import random

import pytest

from repro.difftest import fuzz, gen_case, oracle
from repro.difftest.__main__ import main as difftest_main
from repro.difftest.oracle import AXES


@pytest.mark.difftest
def test_bounded_seeded_fuzz_is_clean(tmp_path):
    report = fuzz(seed=0, cases=500, core_cases=200, bench_dir=tmp_path)
    detail = "\n".join(
        [str(d) for _, d in report.failures]
        + [str(d) for _, d in report.core_failures]
        + report.consistency_problems)
    assert report.clean, f"{report.summary()}\n{detail}"
    assert report.elapsed_seconds < 60
    # Every value of every axis of the configuration matrix ran.
    missing = [(axis, value) for axis, values in AXES.items()
               for value in values if not report.coverage[axis][value]]
    assert not missing, report.summary()
    # Every query shape was drawn, and the summary counts each.
    assert set(report.shapes) == {
        "projection", "filter", "expression", "global aggregate",
        "grouped aggregate", "stream join", "relation join",
        "relation-grouped join", "shared-key three-way join",
        "mixed-key three-way join", "set operation", "distinct"}
    assert sum(report.shapes.values()) == 500
    assert f"relation-grouped join={report.shapes['relation-grouped join']}" \
        in report.summary()

    payload = json.loads(
        (tmp_path / "BENCH_difftest_fuzz.json").read_text())
    assert payload["name"] == "difftest_fuzz"
    assert payload["cql_cases"] == 500
    assert payload["core_cases"] == 200
    assert payload["failures"] == 0
    assert "obs" in payload


@pytest.mark.difftest
def test_fuzz_is_deterministic_per_seed():
    first = fuzz(seed=7, cases=40, core_cases=20)
    second = fuzz(seed=7, cases=40, core_cases=20)
    assert first.clean and second.clean
    assert [(c.query, c.streams) for c, _ in first.failures] == \
        [(c.query, c.streams) for c, _ in second.failures]


@pytest.mark.difftest
def test_cli_exit_code_clean(capsys):
    code = difftest_main(["--cases", "30", "--core-cases", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out
    assert "config runs per axis value: driver query=" in out


@pytest.mark.difftest
def test_one_reference_evaluation_per_plan(monkeypatch):
    """A CQL case evaluates the reference twice: the naive plan, and the
    optimised plan's R2S child, whose relation is also the optimised
    plan's reference through its R2S."""
    calls = [0]
    evaluate = oracle.reference_evaluate

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(oracle, "reference_evaluate", counted)
    rng = random.Random(0)
    kinds = set()
    for index in range(20):
        case = gen_case(rng, seed=index)
        calls[0] = 0
        assert oracle.run_case(case, configs=[]) is None
        assert calls[0] == 2
        kinds.add(" ISTREAM " in case.query or " RSTREAM " in case.query
                  or " DSTREAM " in case.query)
    assert kinds == {True, False}
