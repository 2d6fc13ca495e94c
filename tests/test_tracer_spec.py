"""perfbench/tracer.py rebinds names in the namespaces of scatterlab's
modules, and install() raises AttributeError on a name that is gone: every
(module, attribute) pair its SPEC lists must resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [(mod, attr) for mods, attr, _, _ in tracer.SPEC for mod in mods]
    assert len(pairs) > 20
    missing = [(mod, attr) for mod, attr in pairs if not hasattr(
        importlib.import_module(f"scatterlab.{mod}"), attr)]
    assert missing == []


def test_every_unread_import_is_a_traced_name():
    # a name a module imports but neither reads nor exports is there only
    # for install() to rebind; any other such name is a dead import, and a
    # SPEC entry the benchmark drops must take its binding with it
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(mod, attr) for mods, attr, _, _ in tracer.SPEC
              for mod in mods}
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    unread = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        exported = {name for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        unread |= {(path.stem, name)
                   for name in imported - read - exported}
    assert unread - traced == set()
