"""The benchmark's grid-ref corpus, made by `protoshot synth`, must hash to
the `dataset` entry of ``perfbench/golden.json``: a change to the draw order
or to any floating-point expression of the generator then fails here, not
only in the benchmark's default-seed gate. The hash function and the
workload's flags are read from ``perfbench/run.py``."""

import importlib.util
import json
import sys
from pathlib import Path

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


def test_grid_ref_synth_matches_golden_and_generate(tmp_path):
    runner = load_runner()
    workload = runner.WORKLOADS["grid-ref"]
    out = tmp_path / "ds"
    argv = ["synth", *workload.synth, "--seed", str(workload.default_seed), "--out", str(out)]
    assert main(argv) == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    assert runner.dataset_sha256(out) == golden["grid-ref"]["dataset"]

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
