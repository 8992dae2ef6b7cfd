"""Parse every Python file of the project at the declared version floor.

    python3 tools/check_grammar.py

``pyproject.toml`` declares ``requires-python = ">=3.10"``, so no file may
use syntax a 3.10 interpreter refuses (``except*``, PEP 695 ``type``
aliases and type parameters, ...).  Each ``.py`` file under the checked
directories is parsed with ``ast.parse(..., feature_version=(3, 10))``;
the script prints every file the floor's grammar refuses and exits 1 if
there is one.  It checks syntax only: a newer library call or regex
feature parses fine.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests", "benchmarks", "tools", "cqbench", "examples")


def version_floor() -> tuple[int, int]:
    """``requires-python``'s lower bound, from ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(
        r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def refused(floor: tuple[int, int]) -> list[str]:
    """``path:line: message`` for each file the floor's grammar refuses."""
    found = []
    for directory in DIRECTORIES:
        for path in sorted((ROOT / directory).rglob("*.py")):
            try:
                ast.parse(path.read_text(), str(path), feature_version=floor)
            except SyntaxError as error:
                found.append(f"{path.relative_to(ROOT)}:{error.lineno}: "
                             f"{error.msg}")
    return found


def main() -> int:
    floor = version_floor()
    found = refused(floor)
    for line in found:
        print(line)
    print(f"grammar: {len(found)} file(s) refused by Python "
          f"{floor[0]}.{floor[1]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
