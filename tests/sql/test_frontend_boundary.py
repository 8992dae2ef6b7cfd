"""Streaming SQL has one executor, CQL's — pinned by its imports, as
``tests/cql/test_values_boundary.py`` pins where Records are built.

No module of ``repro.sql`` may import the DSL (``repro.dsl``) or the
actor job runtime (``repro.runtime``), at module level or inside a
function: a SQL query compiles onto ``repro.cql.executor`` and nothing
else.  The DSL stays in the tree as the reference the differential test
(``test_dsl_differential.py``) compares SQL against.
"""

import ast
from pathlib import Path

import pytest

import repro.sql

#: Packages a SQL module may not import.
FORBIDDEN = ("repro.dsl", "repro.runtime")

MODULES = sorted(Path(repro.sql.__file__).parent.glob("*.py"))


def forbidden_imports(tree: ast.AST) -> list[str]:
    """Every import in ``tree`` of a :data:`FORBIDDEN` package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [name for name in names
                  if any(name == package or name.startswith(package + ".")
                         for package in FORBIDDEN)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_sql_module_imports_the_dsl_or_the_runtime(path):
    assert forbidden_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_finds_a_lazy_import():
    tree = ast.parse(
        "import repro.runtime.job\n"
        "def run():\n"
        "    from repro.dsl.environment import StreamEnvironment\n"
        "    from repro.dslx import ok\n"
        "    from repro.cql.executor import ContinuousQuery\n")
    assert forbidden_imports(tree) == ["repro.runtime.job",
                                       "repro.dsl.environment"]
