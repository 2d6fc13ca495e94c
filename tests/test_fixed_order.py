"""The library forms every sum in a fixed order of its own: a BLAS
product's sum depends on the BLAS build and its thread count, and so
would the CSVs, which are to be byte-identical across hosts and thread
counts. The source of every module must hold no matrix product and no
call that goes through BLAS."""

import ast
import importlib.util
from pathlib import Path

# numpy's products and solvers whose sums run in BLAS or LAPACK, or, for
# einsum, in an order of its own that can go through BLAS
BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "vdot", "linalg"}


def test_the_library_calls_no_blas_product():
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "quadrature.py" in {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = set()
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                names.add("@")
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Import):
                names.update(part for alias in node.names
                             for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in sorted(names & (BLAS_NAMES | {"@"}))]
    assert found == []


def _is_exp_call(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == "exp") or (
        isinstance(func, ast.Name) and func.id == "exp")


def test_only_special_functions_forms_exp_minus_one():
    # e^{ix} - 1 is written once, in special_functions.expm1i, without
    # the cancellation of exp(ix) - 1 at small x; any other module that
    # subtracts 1 from an exp call writes the formula a second time
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    paths = sorted(package.glob("*.py"))
    assert "special_functions.py" in {path.name for path in paths}
    found = []
    for path in paths:
        if path.name == "special_functions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and _is_exp_call(node.left)
                    and isinstance(node.right, ast.Constant)
                    and node.right.value == 1):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# numpy's kernels whose last bit moves with the SIMD level numpy runs at
SIMD_NAMES = {"exp", "log", "log1p", "expm1", "arccosh", "arcsinh", "cosh",
              "sinh", "logaddexp", "power"}


def _numpy_calls(tree):
    """(line, name) of each call np.<name>(...) or numpy.<name>(...) in
    tree whose name is one of SIMD_NAMES."""
    return [(node.lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.func.attr in SIMD_NAMES]


def test_paper_forms_and_the_table_transform_call_no_simd_kernel():
    # their values reach report.txt and a table's CSVs, which are to keep
    # their bytes on every host: exp is libm's, log special_functions'
    package = Path(importlib.util.find_spec("scatterlab").origin).parent
    found = [("paper_forms.py", *call) for call in _numpy_calls(ast.parse(
        (package / "paper_forms.py").read_text(encoding="utf-8")))]
    for name in ("potentials.py", "special_functions.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        functions = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and ("abel" in node.name or node.name == "log")]
        assert functions, name
        found += [(name, *call) for f in functions
                  for call in _numpy_calls(f)]
    assert found == []
