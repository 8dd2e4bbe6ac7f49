"""Only ``synth`` loads ``numpy.random`` or OpenSSL.

The folds and support draws come from ``protoshot.pcg64`` and the fixed seed
tags from a table, so ``numpy.random`` (about 2 MB, and through ``secrets``
OpenSSL's ``_hashlib``) is left to ``synthgen``, the one module that draws
with it. An AST check keeps every other module off it, and a fresh process
runs each other command and then looks at ``sys.modules``. ``queue`` is
``synth``'s alone too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from protoshot.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protoshot"
MODULES = sorted(PACKAGE.glob("*.py"))
SYNTH_ONLY = ("numpy.random", "hashlib", "_hashlib", "queue")


def numpy_random_uses(source: str) -> list[int]:
    """The lines of `source` that name ``numpy.random``: ``np.random`` or
    ``numpy.random`` as an attribute, an import of it or of a submodule, or
    ``from numpy import random``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = node.level == 0 and (
                module[:2] == ["numpy", "random"]
                or module == ["numpy"] and any(a.name == "random" for a in node.names)
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import PCG64\n"
        "def f():\n"
        "    return numpy.random.Generator\n"
    )
    assert numpy_random_uses(source) == [2, 3, 4, 5, 7]
    clean = (
        "import random\n"
        "from numpy import linalg\n"
        "from .pcg64 import PCG64\n"
        "x = rng.random()\n"
        "spec = 'numpy.random.PCG64'\n"
    )
    assert numpy_random_uses(clean) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_synthgen_uses_numpy_random(path):
    uses = numpy_random_uses(path.read_text(encoding="utf-8"))
    assert bool(uses) == (path.name == "synthgen.py"), uses


RUN_COMMANDS = """
import json, sys
from protoshot import cli
loaded = {}
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = [name for name in %r if name in sys.modules]
print(json.dumps(loaded))
""" % (SYNTH_ONLY,)


def test_no_command_but_synth_loads_numpy_random_or_openssl(tmp_path):
    data = tmp_path / "ds"
    assert main(["synth", "--classes", "3", "--dim", "8", "--slides-per-class", "4",
                 "--patches", "6:9", "--seed", "3", "--out", str(data)]) == 0
    report, proto = str(tmp_path / "report.json"), str(tmp_path / "proto.pse")
    commands = [
        ["evaluate", "--dataset", str(data), "--folds", "2", "--k-grid", "1",
         "--topk-grid", "2", "--num-seeds", "2", "--out", report],
        ["build-prototypes", "--dataset", str(data), "--top-k", "2", "--out", proto],
        ["predict", "--dataset", str(data), "--prototypes", proto,
         "--out", str(tmp_path / "predict.csv")],
        ["zero-shot", "--dataset", str(data), "--out", str(tmp_path / "zero_shot.csv")],
        ["report", "--reports", report],
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {argv[0]: [] for argv in commands}
