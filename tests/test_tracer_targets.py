"""The benchmark's traced pass wraps protoshot functions by name: every
``(module, attribute)`` that ``perfbench/tracer.py`` lists must still exist,
or a refactor breaks the traced run without any other test failing."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_traced_pass_installs_from_the_cli_import():
    """``tracer.install`` imports ``protoshot.cli`` and looks each TRACED
    module up in ``sys.modules``; it must find every one in a fresh process,
    where nothing but that import has loaded protoshot."""
    root = TRACER_PATH.parent.parent
    code = "import tracer; tracer.install(tracer.Tracer())"
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
