"""The benchmark's traced pass wraps protoshot functions by name: every
``(module, attribute)`` that ``perfbench/tracer.py`` lists must still exist,
or a refactor breaks the traced run without any other test failing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


@pytest.mark.parametrize("name, module, attr", [entry[:3] for entry in TRACED])
def test_traced_target_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_list_is_not_empty():
    assert TRACED
