"""No library function declares `global`: state a call keeps lives on the
object it belongs to (a table's z-profile memo), not in a module name
that calls swap."""

import ast
import importlib.util
from pathlib import Path


def _globals(tree):
    """(function name, declared names) of each `global` statement inside a
    function, nested ones included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.name, tuple(sub.names)) for sub in ast.walk(node)
                      if isinstance(sub, ast.Global)]
    return found


def test_globals_finds_a_declaration_in_a_nested_function():
    tree = ast.parse("x = 0\ndef f():\n    def g():\n        global x\n"
                     "        x = 1\n    return g\n")
    assert _globals(tree) == [("f", ("x",)), ("g", ("x",))]


def test_no_library_function_declares_global():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "eikonal.py" in {path.name for path in paths}
    declared = [f"{path.stem}.{name}: global {', '.join(names)}"
                for path in paths
                for name, names in _globals(ast.parse(
                    path.read_text(encoding="utf-8")))]
    assert declared == []
