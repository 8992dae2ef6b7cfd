"""Tuples inside the engine, Records at its edge — pinned by a source
scan, as ``test_keyed_state.py`` pins the one keyed-state container.

Inside a compiled plan a row is its values tuple: no operator, kernel
or query-group path builds or re-labels a Record.  The executor (whose
``SharedGroup`` feeds every query, private or shared) and the kernel
module (and the source it renders) may not call ``Record``,
``trusted_record``, ``label_rows``, ``with_schema`` or ``relabel``, nor
touch the labelling constructor, a layout's class
(``schema.record_type``); only the query's emission read, which labels
the rows a reader asks for, is exempt.
"""

import ast
from pathlib import Path

import pytest

import repro.cql.executor as executor_module
import repro.cql.kernels as kernels
from repro.core import Schema
from repro.cql import CQLEngine

#: Calls that build or re-label a Record.
LABELLING = {"Record", "trusted_record", "label_rows", "with_schema",
             "relabel"}

#: ``Class.method`` names allowed to label rows: where the engine hands
#: rows to a caller.
EDGE = {"ContinuousQuery._labelled"}


def labelling_calls(tree: ast.AST) -> list[str]:
    """``qualified function name: call`` for every labelling call in
    ``tree`` outside :data:`EDGE`, and ``...: .record_type`` for every
    use of a layout's class."""
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
            if name in LABELLING:
                found.append(f"{scope or '<module>'}: {name}(")
        if isinstance(node, ast.Attribute) and node.attr == "record_type":
            # A layout's class, called or passed to a call: the labelling
            # constructor itself.
            found.append(f"{scope or '<module>'}: .record_type")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def module_tree(module) -> ast.Module:
    path = Path(module.__file__)
    return ast.parse(path.read_text(), str(path))


def shared_group_tree() -> ast.ClassDef:
    """The query-sharing code: the ``SharedGroup`` class of the executor,
    scanned on its own so a labelling call there is reported under the
    sharing layer's name."""
    [group] = [node for node in module_tree(executor_module).body
               if isinstance(node, ast.ClassDef)
               and node.name == "SharedGroup"]
    return group


#: Scan targets by the layer they hold.
SCANNED = {
    "repro.cql.executor": lambda: module_tree(executor_module),
    "repro.cql.kernels": lambda: module_tree(kernels),
    "repro.cql.shared": shared_group_tree,
}


@pytest.mark.parametrize("layer", list(SCANNED))
def test_no_operator_builds_or_relabels_a_record(layer):
    assert labelling_calls(SCANNED[layer]()) == []


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
    assert not {"Record", "label_rows"} & set(kernels._RUNTIME)


def test_the_scan_finds_a_labelling_call():
    tree = ast.parse(
        "class JoinOp:\n"
        "    def process(self, t, deltas):\n"
        "        return [trusted_record(s, v) for v in deltas]\n"
        "    def stage(self, rows):\n"
        "        return [r.with_schema(s) for r in rows]\n"
        "    def emit(self, rows):\n"
        "        return list(map(s.record_type, rows)), s.record_type(v)\n"
        "class ContinuousQuery:\n"
        "    def _labelled(self, start):\n"
        "        return [Record(s, v) for v in deltas]\n")
    assert labelling_calls(tree) == [
        "JoinOp.process: trusted_record(", "JoinOp.stage: with_schema(",
        "JoinOp.emit: .record_type", "JoinOp.emit: .record_type"]
