"""Every refusal of an argument names it: each DomainError, RangeError and
SingularityError that the library raises passes key=, the parameter that
ScatterError.key reports. The exceptions are faults of a value the library
computed, which no one argument caused: an integrand's non-finite or
misshapen output and a non-finite z-profile. A PoleError is where two
parameters meet, and is left out."""

import ast
import importlib.util
from pathlib import Path

_REFUSALS = {"DomainError", "RangeError", "SingularityError"}
# module.function of the raises that name no parameter
_COMPUTED = {"quadrature._check_finite", "quadrature._gk15_panels",
             "quadrature._g_values", "eikonal._z_profile"}


def _unkeyed(tree):
    """(function, line) of each refusal call in tree without key=, the
    function the innermost that encloses it, or None at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) in _REFUSALS and \
                not any(kw.arg == "key" for kw in node.keywords):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_unkeyed_finds_a_refusal_without_a_key():
    tree = ast.parse("def f(x):\n"
                     "    def g():\n"
                     "        raise DomainError('no key')\n"
                     "    raise RangeError('keyed', key='x')\n"
                     "raise SingularityError('at module level')\n")
    assert _unkeyed(tree) == [("g", 3), (None, 5)]


def test_every_refusal_in_the_library_names_its_parameter():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "eikonal.py" in {path.name for path in paths}
    unkeyed, allowed = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _unkeyed(tree):
            where = f"{path.stem}.{function}"
            if where in _COMPUTED:
                allowed.add(where)
            else:
                unkeyed.append(f"{path.name}:{line} in {function}")
    assert unkeyed == []
    # an allowance that no longer excuses anything goes
    assert allowed == _COMPUTED
