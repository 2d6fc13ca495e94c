"""No module of the library or of the tests imports a name it never reads,
unless the import is marked `# noqa: F401`, as the bindings that
perfbench/tracer.py rebinds are."""

import ast
import importlib.util
from pathlib import Path

_MARK = "# noqa: F401"


def _unused_imports(source):
    """(line, name) of each name an import binds that the module never
    reads; a name listed in __all__ counts as read, and a marked import,
    the marker on any of its lines, is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any(_MARK in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read:
                found.append((node.lineno, name))
    return found


def test_the_scan_finds_an_unread_name_and_honours_the_marker():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "from math import (pi,  # noqa: F401\n    tau)\n"
              "from json import dumps, loads\n__all__ = ['dumps']\n"
              "def f():\n    x = np.pi\n    return loads(x)\n")
    assert _unused_imports(source) == [(1, "os"), (2, "os")]
    assert _unused_imports("import a.b\na.b.c()\n") == []


def test_no_module_imports_a_name_it_never_reads():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py")) \
        + sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert {"partial_wave.py", "test_unused_imports.py"} \
        <= {path.name for path in paths}
    unused = [f"{path.parent.name}/{path.name}:{line}: {name}"
              for path in paths
              for line, name in _unused_imports(
                  path.read_text(encoding="utf-8"))]
    assert unused == []
