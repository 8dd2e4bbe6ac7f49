"""No protoshot module imports a ``_``-prefixed name from another protoshot
module: a name two modules share is public, so a module's private helpers
can change without breaking another module.

No linter ships with the project, so this stdlib check stands in for one,
like ``test_unused_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protoshot"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that `source` imports from a protoshot module
    (by a relative import or from ``protoshot``), at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "protoshot":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_check_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .a import _b, c\n"
        "from protoshot.d import _e\n"
        "def f():\n"
        "    from . import _g\n"
    )
    assert sorted(private_imports(source)) == ["_b", "_e", "_g"]
    assert private_imports("from .a import b\nfrom ._c import d\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
