"""Every parameter a library function declares is read in its body: a
parameter that changes nothing is deleted, not threaded through."""

import ast
import importlib.util
from pathlib import Path


def _unread(tree):
    """(name, parameter) of each function or lambda whose body never names
    that parameter; a nested function's reads count for its parent."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name)}
        name = getattr(node, "name", f"<lambda>:{node.lineno}")
        found += [(name, param) for param in params if param not in read]
    return found


def test_unread_finds_a_parameter_only_passed_through_by_name():
    tree = ast.parse("def f(a, b, c):\n    return g(a, c=c)\n"
                     "h = lambda x, y: x\n")
    assert _unread(tree) == [("f", "b"), ("<lambda>:3", "y")]


def test_every_parameter_of_a_library_function_is_read():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "eikonal.py" in {path.name for path in paths}
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # config's _as_* parsers share the (section, key, raw) signature
        # that _SECTIONS calls them with; some read only raw
        protocol = "_as_" if path.stem == "config" else None
        unread += [f"{path.stem}.{name}({param})"
                   for name, param in _unread(tree)
                   if not (protocol and name.startswith(protocol))]
    assert unread == []
