"""Every module-level import of a protoshot module is used in that module,
and so is every private (``_``-prefixed) module-level function, class or
constant.

``__init__.py`` is skipped by those two: its imports are the package's
re-exports, so it is checked against its ``__all__`` instead, both ways.

No linter ships with the project, so these stdlib checks stand in for one.
"""

import ast
from pathlib import Path

import pytest

import protoshot

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protoshot"
INIT = PACKAGE / "__init__.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != INIT)


def names_read(tree: ast.AST) -> set[str]:
    """Every name that some expression in `tree` reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that no
    expression in it reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = names_read(tree)
    return [name for name in bound if name not in read]


def unread_private_names(source: str) -> list[str]:
    """The ``_``-prefixed, non-dunder names bound by the module-level
    definitions and assignments of `source` that no expression in it reads,
    in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for t in targets if isinstance(t, ast.Name)]
    read = names_read(tree)
    return [
        name for name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def unexported_names(source: str) -> tuple[list[str], list[str]]:
    """The public names the module-level imports of `source` bind that its
    ``__all__`` lacks, and the ``__all__`` entries that nothing at module
    level binds, each in source order."""
    tree = ast.parse(source)
    imported, bound, listed = [], set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                listed = [ast.literal_eval(e) for e in node.value.elts]
    bound.update(imported)
    unlisted = [name for name in imported if not name.startswith("_") and name not in listed]
    return unlisted, [name for name in listed if name not in bound]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom a import b as c\n"
    assert unused_imports(source + "sys.exit(c)\n") == ["os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_the_check_finds_an_unread_private_name():
    source = (
        "__all__ = []\n_A = 1\n_B: int = 2\n_C = 3\n"
        "def _f():\n    return _A\n"
        "def _stored(entry):\n    return entry\n"
        "class _Kept:\n    pass\n"
        "class _Unread:\n    pass\n"
        "def public(x: _Kept):\n    _C = 4\n    return _f(), _B\n"
    )
    assert unread_private_names(source) == ["_C", "_stored", "_Unread"]


def test_the_check_finds_an_unexported_name():
    source = (
        "from __future__ import annotations\nfrom . import errors\n"
        "from .a import b, c as _c, d\nimport e.f\n__version__ = '1'\n"
        "def g():\n    pass\n"
        "__all__ = ['b', 'errors', 'gone', 'g', '__version__']\n"
    )
    assert unexported_names(source) == (["d", "e"], ["gone"])


def test_package_exports_match_its_imports():
    assert unexported_names(INIT.read_text(encoding="utf-8")) == ([], [])
    assert all(hasattr(protoshot, name) for name in protoshot.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_module_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
