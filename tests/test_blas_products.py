"""No protoshot module computes a product through BLAS, outside one place
that never reaches a report.

BLAS sums in an order that follows its thread count and the CPU it runs on,
so a score it computes is not a pure function of the data. Every score goes
through einsum without ``optimize`` instead (``adapters.row_scores`` and
``simsel.score_against``). No linter ships with the project, so this stdlib
check stands in for one, like ``test_unused_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protoshot"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, function) pairs allowed a BLAS product: the QR that draws
# synthetic class directions
ALLOWED = {("synthgen.py", "_class_directions")}
PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot"}


def blas_products(source: str) -> list[tuple[str | None, int, str]]:
    """(enclosing function or None, line, what) of every BLAS-backed product
    in `source`: ``@``, a call of a ``PRODUCTS`` name or of a ``linalg``
    routine, and an einsum given ``optimize`` other than False."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            owner = func.value if isinstance(func, ast.Attribute) else None
            if name in PRODUCTS:
                what = name
            elif isinstance(owner, ast.Attribute) and owner.attr == "linalg":
                what = f"linalg.{name}"
            elif name == "einsum" and any(
                kw.arg == "optimize"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                for kw in node.keywords
            ):
                what = "einsum(optimize=...)"
        if what is not None:
            found.append((function, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_check_finds_every_product():
    source = (
        "import numpy as np\n"
        "a = b @ c\n"
        "def f(x):\n"
        "    x @= x\n"
        "    return np.dot(x, x) + x.dot(x) + np.matmul(x, x) + np.inner(x, x)\n"
        "def g(x):\n"
        "    np.tensordot(x, x); np.linalg.qr(x); np.einsum('i,i', x, x, optimize=True)\n"
        "    return np.einsum('i,i', x, x) + np.einsum('i,i', x, x, optimize=False)\n"
    )
    assert blas_products(source) == [
        (None, 2, "@"),
        ("f", 4, "@"),
        ("f", 5, "dot"), ("f", 5, "dot"), ("f", 5, "matmul"), ("f", 5, "inner"),
        ("g", 7, "tensordot"), ("g", 7, "linalg.qr"), ("g", 7, "einsum(optimize=...)"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_products(path):
    found = blas_products(path.read_text(encoding="utf-8"))
    assert [f for f in found if (path.name, f[0]) not in ALLOWED] == []


def test_every_exception_is_used():
    used = {
        (path.name, function)
        for path in MODULES
        for function, _, _ in blas_products(path.read_text(encoding="utf-8"))
    }
    assert ALLOWED <= used
