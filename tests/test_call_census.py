"""``tools/call_census.py`` counts, it does not time: two runs of one
tree give the same calls per function, at a smoke-sized pass, in the
drain and in the ingest, read and checkpoint layers beside it."""

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
    for layer in ("ingest", "read"):
        assert first["layers"][layer]["python"]
    assert first == second


def test_a_read_is_counted_under_read_not_the_drain(census):
    result = census.census(ROOT, "query_fleet", 10)
    store_state = "repro.dsms.engine:QueryHandle.store_state"
    ingest = "repro.dsms.engine:DSMSEngine.ingest"
    # Ticks 2-9 are counted: one read and four arrivals a tick.
    assert result["layers"]["read"]["python"][store_state] == 8
    assert result["layers"]["ingest"]["python"][ingest] == 32
    assert store_state not in result["python"]
    assert ingest not in result["python"]


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


def test_the_diff_prints_each_layer_per_tick(census, capsys):
    def result(read_calls):
        return {"quanta": 4, "ticks": [0, 1], "python": {"m:f": 4},
                "c": {}, "layers": {
                    "ingest": {"python": {"m:in": 2}, "c": {}},
                    "read": {"python": read_calls, "c": {}}}}

    census.report_diff("w", result({"m:r": 6, "m:h": 100}),
                       result({"m:r": 6}), top=10)
    lines = capsys.readouterr().out.splitlines()
    assert "w drain per tick: Python calls 2.00 -> 2.00" in lines[2]
    assert "w ingest per tick: Python calls 1.00 -> 1.00" in lines[3]
    read = lines.index(next(line for line in lines
                            if line.startswith("w read per tick")))
    assert "Python calls 53.00 -> 3.00 (-50.00)" in lines[read]
    assert lines[read + 2].split()[-1] == "m:h"


def test_a_checkpoint_is_counted_under_its_caller_and_checkpoint(census):
    """Every call inside an engine snapshot counts in the checkpoint
    layer and, as before, in the layer of the call that took it: so each
    of them is counted as often in the checkpoint layer as in the drain
    and ingest layers together, and the snapshot call itself only
    there."""
    result = census.census(ROOT, "join_recover", 40)
    assert result == census.census(ROOT, "join_recover", 40)
    # Ticks 8-39, one checkpoint every eighth tick.
    assert result["checkpoints"] == 4
    checkpoint = result["layers"]["checkpoint"]
    ingest = result["layers"]["ingest"]
    barrier = "repro.cql.state:KeyedState.barrier"
    assert checkpoint["python"][barrier] > 0
    for kind in ("python", "c"):
        for name, calls in checkpoint[kind].items():
            assert result[kind].get(name, 0) \
                + ingest[kind].get(name, 0) >= calls, name
    assert checkpoint["python"][barrier] == result["python"].get(
        barrier, 0) + ingest["python"].get(barrier, 0)
    snapshot = "repro.dsms.engine:DSMSEngine.snapshot"
    assert snapshot not in checkpoint["python"]
    assert result["python"].get(snapshot, 0) \
        + ingest["python"].get(snapshot, 0) == 4


def test_the_diff_prints_the_checkpoint_layer_per_checkpoint(census,
                                                             capsys):
    def result(copies, checkpoints):
        return {"quanta": 4, "ticks": [0, 1], "checkpoints": checkpoints,
                "python": {"m:f": 4}, "c": {}, "layers": {
                    "ingest": {"python": {}, "c": {}},
                    "read": {"python": {}, "c": {}},
                    "checkpoint": {"python": {"m:copy": copies}, "c": {}}}}

    census.report_diff("w", result(30, 3), result(20, 4), top=10)
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines
               if line.startswith("w checkpoint per checkpoint")]
    assert "Python calls 10.00 -> 5.00 (-5.00)" in line
    # No checkpoint taken: the layer is not printed.
    census.report_diff("w", result(0, 0), result(0, 0), top=10)
    assert "checkpoint" not in capsys.readouterr().out
