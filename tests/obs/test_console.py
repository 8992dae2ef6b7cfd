"""The ``python -m repro.obs`` console: ``top`` and ``explain`` run the
built-in demo workload, ``snapshot`` writes its profile snapshot, and
``top --snapshot`` renders that file back."""

import json

from repro.obs.__main__ import main


def processed_cell(out, query):
    """The ``processed`` cell of ``query``'s row in the top-queries
    table."""
    row = next(line for line in out.splitlines()
               if line.split("|")[0].strip() == query)
    return row.split("|")[2].strip()


def test_top_runs_the_demo(capsys):
    assert main(["top"]) == 0
    out = capsys.readouterr().out
    assert "== top queries ==" in out
    assert "== hot operators ==" in out
    assert processed_cell(out, "hot_rooms") == "240"
    assert processed_cell(out, "warm_stream") == "240"


def test_top_renders_a_written_snapshot(tmp_path, capsys):
    path = tmp_path / "snapshot.jsonl"
    assert main(["snapshot", "--out", str(path)]) == 0
    assert f"wrote profile snapshot to {path}" in capsys.readouterr().err
    line, = path.read_text(encoding="utf-8").splitlines()
    snapshot = json.loads(line)
    assert snapshot["type"] == "profile"
    assert snapshot["metrics"]

    assert main(["top", "--snapshot", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== top queries ==" in out
    assert processed_cell(out, "hot_rooms") == "240"


def test_explain_renders_the_hottest_query(capsys):
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("query 'hot_rooms': processed=240 ")
    assert "Aggregate(room, count(*) AS count_0)" in out
