"""The benchmark's grid-ref corpus, made by `protoshot synth`, must hash to
the `dataset` entry of ``perfbench/golden.json``: a change to the draw order
or to any floating-point expression of the generator then fails here, not
only in the benchmark's default-seed gate. The commands the benchmark runs
on that corpus (`evaluate`, `build-prototypes`, `predict`, `zero-shot`) must
write the bytes of their golden entries too. The hash functions, the
workload's flags and the command lines are read from ``perfbench/run.py``;
``golden.json`` is only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from protoshot import embedstore
from protoshot.cli import main
from protoshot.synthgen import SynthConfig, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def grid_ref(tmp_path_factory):
    """(runner, workload, corpus directory, golden entries) of grid-ref at its
    default seed."""
    runner = load_runner()
    workload = runner.WORKLOADS["grid-ref"]
    out = tmp_path_factory.mktemp("grid-ref") / "ds"
    argv = ["synth", *workload.synth, "--seed", str(workload.default_seed), "--out", str(out)]
    assert main(argv) == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    return runner, workload, out, golden["grid-ref"]


def test_grid_ref_synth_matches_golden_and_generate(grid_ref):
    runner, _, out, golden = grid_ref
    assert runner.dataset_sha256(out) == golden["dataset"]

    config = SynthConfig(**json.loads((out / "synth_config.json").read_text(encoding="utf-8")))
    manifest, bags, classifier = generate(config)
    written = embedstore.parse_manifest(out / "manifest.jsonl")
    assert written == manifest
    streamed = embedstore.iter_bags(written, out / "manifest.jsonl")
    for bag, read in zip(bags, streamed, strict=True):
        assert (bag.slide_id, bag.label) == (read.slide_id, read.label)
        assert bag.patches.values.tobytes() == read.patches.values.tobytes()
    stored = embedstore.read_text_classifier(out / "classifier.pse")
    assert stored.class_names == classifier.class_names
    assert stored.weights.tobytes() == classifier.weights.tobytes()


def test_grid_ref_outputs_match_golden(grid_ref, tmp_path):
    runner, workload, data, golden = grid_ref
    checked = []
    for group in runner.command_groups(workload, data, tmp_path).values():
        for _, args, outputs in group:
            assert main([str(arg) for arg in args]) == 0
            for name in outputs:
                assert runner.file_sha256(tmp_path / name) == golden[name], name
                checked.append(name)
    assert sorted(checked) == sorted(set(golden) - {"dataset"})
