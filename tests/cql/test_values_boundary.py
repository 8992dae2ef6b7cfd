"""Tuples inside the engine, Records at its edge — pinned by a source
scan, as ``test_keyed_state.py`` pins the one keyed-state container.

Inside a compiled plan a row is its values tuple: no operator, kernel
or shared-group path builds or re-labels a Record.  The executor, the
kernel module (and the source it renders) and the shared group may not
call ``Record``, ``trusted_record``, ``with_schema``, ``relabel`` or
``_new(Record)``; only the query's emission fold, which labels the rows
it emits, is exempt.
"""

import ast
from pathlib import Path

import pytest

import repro.cql.executor as executor_module
import repro.cql.kernels as kernels
import repro.cql.shared as shared_module
from repro.core import Schema
from repro.cql import CQLEngine

#: Calls that build or re-label a Record.
LABELLING = {"Record", "trusted_record", "with_schema", "relabel"}

#: ``Class.method`` names allowed to label rows: where the engine hands
#: rows to a caller.
EDGE = {"ContinuousQuery._apply_instant"}


def labelling_calls(tree: ast.AST) -> list[str]:
    """``qualified function name: call`` for every labelling call in
    ``tree`` outside :data:`EDGE`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in EDGE:
                return
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in LABELLING or (
                    name == "_new" and any(
                        isinstance(arg, ast.Name) and arg.id == "Record"
                        for arg in node.args)):
                found.append(f"{scope or '<module>'}: {name}(")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize("module", [executor_module, kernels, shared_module],
                         ids=lambda module: module.__name__)
def test_no_operator_builds_or_relabels_a_record(module):
    path = Path(module.__file__)
    assert labelling_calls(ast.parse(path.read_text(), str(path))) == []


def test_the_rendered_kernels_build_no_record():
    engine = CQLEngine()
    engine.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.register_query(
        "SELECT room, COUNT(*) AS n, SUM(temp + id) AS s, MIN(temp) AS lo "
        "FROM Obs [Range 5] WHERE temp > 10 GROUP BY room")
    engine.register_query("SELECT COUNT(temp) AS n FROM Obs [Rows 3]")
    sources = list(kernels._factories)
    assert any("def aggregate(" in source for source in sources)
    assert any("def prefilter(" in source for source in sources)
    for source in sources:
        assert labelling_calls(ast.parse(source)) == [], source
    assert not {"Record", "_new"} & set(kernels._RUNTIME)


def test_the_scan_finds_a_labelling_call():
    tree = ast.parse(
        "class JoinOp:\n"
        "    def process(self, t, deltas):\n"
        "        return [trusted_record(s, v) for v in deltas]\n"
        "    def stage(self, rows):\n"
        "        return [r.with_schema(s) for r in rows], _new(Record)\n"
        "class ContinuousQuery:\n"
        "    def _apply_instant(self, t, deltas):\n"
        "        return [Record(s, v) for v in deltas]\n")
    assert labelling_calls(tree) == [
        "JoinOp.process: trusted_record(", "JoinOp.stage: with_schema(",
        "JoinOp.stage: _new("]
