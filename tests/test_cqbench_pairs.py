"""``tools/cqbench_pairs.py``'s summary on fixed series: the claim rule
(wins in at least 9 of 10 pairs and a median better by more than the
base IQR) and each end-to-end metric's bound, as ``BENCHMARK.json``
declares them."""

import importlib.util
import json
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "cqbench_pairs", ROOT / "tools" / "cqbench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


class TestCompare:
    def test_a_clear_gain_meets_the_claim(self, pairs):
        verdict = pairs.compare(BASE, [v * 1.1 for v in BASE], "higher", 0.25)
        assert verdict.wins == 10
        assert verdict.beyond and verdict.claim and verdict.within
        assert verdict.delta == pytest.approx(0.1)

    def test_nine_wins_meet_the_claim_and_eight_do_not(self, pairs):
        change = [v * 1.1 for v in BASE]
        change[0] = BASE[0] - 1
        assert pairs.compare(BASE, change, "higher", None).claim
        change[1] = BASE[1] - 1
        verdict = pairs.compare(BASE, change, "higher", None)
        assert (verdict.wins, verdict.beyond, verdict.claim) == \
            (8, True, False)

    def test_wins_inside_the_base_iqr_are_no_claim(self, pairs):
        verdict = pairs.compare(BASE, [v + 0.5 for v in BASE], "higher",
                                None)
        assert verdict.wins == 10
        assert not verdict.beyond and not verdict.claim

    def test_lower_is_better_reads_the_other_way(self, pairs):
        verdict = pairs.compare(BASE, [v * 0.8 for v in BASE], "lower", 0.1)
        assert verdict.claim and verdict.within
        assert not pairs.compare(BASE, [v * 1.2 for v in BASE], "lower",
                                 0.25).claim

    @pytest.mark.parametrize("better, factor, within", [
        ("higher", 0.76, True), ("higher", 0.74, False),
        ("lower", 1.24, True), ("lower", 1.26, False)])
    def test_the_bound(self, pairs, better, factor, within):
        verdict = pairs.compare(BASE, [v * factor for v in BASE], better,
                                0.25)
        assert verdict.within is within

    def test_a_metric_with_no_bound(self, pairs):
        assert pairs.compare(BASE, BASE, "lower", None).within is None


def test_the_summary_prints_the_verdict_columns(pairs, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base = [{"throughput_eps": v, "peak_rss_mb": 25.0,
             "views.tick.busy_s": 1.0} for v in BASE]
    change = [{"throughput_eps": v * 1.1, "peak_rss_mb": 28.0,
               "views.tick.busy_s": 0.9} for v in BASE]
    pairs.summarise({"base": base, "change": change}, better, bounds)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[-2:] == ["claim", "bound"]
    rows = {line.split()[0]: line.split()[-3:] for line in lines[1:]}
    assert rows == {"throughput_eps": ["10/10", "yes", "ok"],
                    "peak_rss_mb": ["0/10", "no", "WORSE"],
                    "views.tick.busy_s": ["10/10", "yes", "-"]}


def test_each_run_compiles_from_source(pairs, monkeypatch, tmp_path):
    """Both sides run with no bytecode written and an empty cache
    prefix, so a ``__pycache__`` one tree happens to hold is not read."""
    seen = {}

    def fake_run(command, cwd, env, **kwargs):
        seen.update(env=env, cache=sorted(
            pathlib.Path(env["PYTHONPYCACHEPREFIX"]).iterdir()))

        class Done:
            returncode = 0
            stdout = json.dumps({"failed": 0, "metrics": {
                "peak_rss_mb": {"value": 24.0}}})
        return Done()

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    assert pairs.run(tmp_path, "join_recover", False, 1) \
        == {"peak_rss_mb": 24.0}
    env = seen["env"]
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPYCACHEPREFIX"] != str(tmp_path)
    assert seen["cache"] == []
    assert env["PATH"] == os.environ["PATH"]
