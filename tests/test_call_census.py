"""``tools/call_census.py`` counts, it does not time: two runs of one
tree give the same calls per function, at a smoke-sized pass."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location(
        "call_census", ROOT / "tools" / "call_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, ticks", [("query_fleet", 10),
                                             ("view_cascade", 10)])
def test_two_runs_count_the_same(census, workload, ticks):
    first = census.census(ROOT, workload, ticks)
    second = census.census(ROOT, workload, ticks)
    assert first["quanta"] > 0 and first["python"] and first["c"]
    assert first == second


def test_the_diff_names_what_moved(census, capsys):
    base = {"quanta": 2, "ticks": [0, 1], "python": {"m:f": 4, "m:g": 2},
            "c": {"len": 6}}
    change = {"quanta": 2, "ticks": [0, 1], "python": {"m:f": 4},
              "c": {"len": 4, "sorted": 2}}
    census.report_diff("w", base, change, top=10)
    lines = capsys.readouterr().out.splitlines()
    assert "Python calls 3.00 -> 2.00 (-1.00)" in lines[0]
    assert "C calls 3.00 -> 3.00 (+0.00)" in lines[0]
    moved = [line.split()[-1] for line in lines[2:]]
    assert sorted(moved) == ["len", "m:g", "sorted"]
    assert "m:f" not in moved
