"""List the statements of ``src/protoshot`` that no test runs: a stdlib
stand-in for a coverage report.

usage: python3 tools/unrun.py [PYTEST_ARGS ...]

Run from the root of a checkout. Runs pytest in this process (by default
``-q -p no:cacheprovider tests``) with a line trace on every thread, then
prints ``file:line: source`` for each statement of the package that the
tests never ran, and the count on stderr. Docstrings and the lines of
``def``, ``class`` and imports are left out: they run at import, not in a
test. The exit status is pytest's.

The trace follows threads but not a fork, so the forked worker's branch of
``embedstore._Worker.__init__`` is always listed. The hooks trace only
frames of files under ``src/protoshot/``; a frame of any other file is not
traced at all, which also keeps them out of the interpreter's own exit.
Tests run several times slower under the trace.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "protoshot"

_LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> dict[int, range]:
    """Each statement of `source` that a line trace can see run, by its
    first line, with the lines that count as running it: a simple
    statement's own lines, or a compound statement's header, up to its
    first inner statement. Docstrings, ``def``, ``class``, imports,
    ``global`` and ``nonlocal`` are left out, but not what they hold."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _LEFT_OUT) or _is_docstring(node):
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        stop = min(inner) if inner else node.end_lineno + 1
        found[node.lineno] = range(node.lineno, max(stop, node.lineno + 1))
    return found


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements of `source` (:func:`statements`)
    none of whose lines is in `ran`, in order."""
    return sorted(first for first, lines in statements(source).items() if ran.isdisjoint(lines))


def main(argv: list[str]) -> int:
    import pytest  # imported before the trace starts, like everything but the package

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if isinstance(name, str) and name.startswith(prefix):
            ran.setdefault(name, set())
            return local
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first in unrun("\n".join(lines), ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
            count += 1
    print(f"{count} statements not run", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
