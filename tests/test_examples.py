"""Every example script must run cleanly end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def example_env():
    """The current environment with ``src/`` first on PYTHONPATH, so the
    examples import ``repro`` however pytest was started."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env=example_env())
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples narrate what they do"
