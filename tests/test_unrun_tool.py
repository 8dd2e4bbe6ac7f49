"""The statement lister of ``tools/unrun.py``, on a short source string; the
tool itself runs the whole suite, so it stays out of it."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "unrun", Path(__file__).resolve().parent.parent / "tools" / "unrun.py"
)
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

SOURCE = '''"""Module docstring."""
import os
from x import y


@decorated
def f(a):
    """Function docstring."""
    global g
    if a:
        return (1 +
                2)
    try:
        pass
    except ValueError:
        raise
    return 0


class C:
    """Class docstring."""
    z = 3
'''


def test_statements_leave_out_docstrings_definitions_and_imports():
    assert unrun.statements(SOURCE) == {
        10: range(10, 11),  # an if: its header only
        11: range(11, 13),  # a statement over two lines
        13: range(13, 14),  # a try: its header only
        14: range(14, 15),
        16: range(16, 17),  # in the except clause
        17: range(17, 18),
        22: range(22, 23),  # in the class body
    }


def test_a_statement_runs_when_any_of_its_lines_ran():
    assert unrun.unrun(SOURCE, {10, 12, 13, 14, 17, 22}) == [16]
    assert unrun.unrun(SOURCE, set()) == [10, 11, 13, 14, 16, 17, 22]
