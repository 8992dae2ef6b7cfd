"""The reference stays independent of what it checks.

``repro.cql.reference`` is the ground truth the incremental executor,
its kernels, its operator state and the dynamic-table service are
compared against; if it imported any of them, a fault there could show
on both sides of a comparison and cancel out.  An AST scan of its
imports pins that.
"""

import ast
import pathlib

import repro.cql.reference

#: What the reference checks, so must not import.
CHECKED = ("repro.cql.executor", "repro.cql.kernels", "repro.cql.state",
           "repro.views.service")


def checked_imports(source: str) -> list[str]:
    """Each module of :data:`CHECKED` that ``source`` imports, itself or
    anything inside it (``from repro.cql import executor`` included)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return sorted({banned for banned in CHECKED for name in names
                   if name == banned or name.startswith(banned + ".")})


def test_the_reference_imports_nothing_it_checks():
    source = pathlib.Path(repro.cql.reference.__file__).read_text()
    assert checked_imports(source) == []


def test_the_scan_flags_a_checked_import():
    assert checked_imports("import repro.cql.executor") \
        == ["repro.cql.executor"]
    assert checked_imports("from repro.cql import kernels, planner") \
        == ["repro.cql.kernels"]
    assert checked_imports("from repro.cql.state import KeyedState") \
        == ["repro.cql.state"]
    assert checked_imports("from repro.views.service import make_scan") \
        == ["repro.views.service"]
    assert checked_imports("from repro.cql.planner import window_object") \
        == []
