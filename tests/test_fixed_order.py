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
