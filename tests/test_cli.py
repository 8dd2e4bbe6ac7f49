import csv
import json
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoshot import adapters, embedstore, simsel
from protoshot.cli import build_parser, main
from protoshot.errors import ReportError, SidecarError
from protoshot.evalharness import EvalRecord, EvalReport, GridConfig

from conftest import random_unit_rows, small_blocks, write_random_corpus


def run(*argv) -> int:
    return main(list(argv))


def synth_args(out, classes=3, dim=8, slides=6, patches="12:20", rho=1.0, kappa=0.0, seed=5):
    return [
        "synth",
        "--classes", str(classes),
        "--dim", str(dim),
        "--slides-per-class", str(slides),
        "--patches", patches,
        "--rho", str(rho),
        "--kappa", str(kappa),
        "--seed", str(seed),
        "--out", str(out),
    ]


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(*synth_args(out)) == 0
    return out


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        [None, "synth", "evaluate", "build-prototypes", "predict", "zero-shot", "report"],
    )
    def test_help_exits_zero(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exit_info:
            run("synth", "--classes", "3")
        assert exit_info.value.code == 2


class TestSynth:
    def test_writes_dataset(self, dataset):
        assert (dataset / "manifest.jsonl").is_file()
        assert (dataset / "classifier.pse").is_file()
        assert (dataset / "classifier.pse.json").is_file()
        assert (dataset / "synth_config.json").is_file()
        assert len(list(dataset.glob("*.pse"))) == 18 + 1  # slides + classifier
        manifest, bags = embedstore.load_manifest(dataset / "manifest.jsonl")
        assert len(bags) == 18

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(*synth_args(a, rho=0.3, kappa=1.0)) == 0
        assert run(*synth_args(b, rho=0.3, kappa=1.0)) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_config_echo(self, dataset):
        echo = json.loads((dataset / "synth_config.json").read_text())
        assert echo["num_classes"] == 3 and echo["seed"] == 5

    @pytest.mark.parametrize("kappa, rho", [("nan", "0"), ("inf", "0.5"), ("nan", "0.5")])
    def test_non_finite_kappa_rejected(self, tmp_path, capsys, kappa, rho):
        out = tmp_path / "ds"
        assert run(*synth_args(out, rho=rho, kappa=kappa)) == 1
        assert "noise_scale" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (dict(classes=1), "need >= 2 classes, got 1"),
            (dict(classes=2, dim=1), "need dim >= 2, got 1"),
            (dict(classes=3, dim=2), "3 classes cannot be orthogonal in dim 2"),
            (dict(slides=0), "need at least one slide per class"),
            (dict(patches="5:3"), "bad patch range [5, 3]"),
            (dict(patches="0"), "bad patch range [0, 0]"),
            (dict(rho=1.5), "informative_fraction must be in [0, 1], got 1.5"),
        ],
    )
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, flags, message):
        out = tmp_path / "ds"
        assert run(*synth_args(out, **flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_patch_range_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(*synth_args(tmp_path / "ds", patches="x"))
        assert exit_info.value.code == 2
        assert "expected MIN:MAX or a count, got 'x'" in capsys.readouterr().err

    def test_non_empty_out_refused(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run(*synth_args(out, classes=2, slides=4)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len([name for name in before if name.endswith(".pse")]) == 8 + 1
        assert run(*synth_args(out, classes=2, slides=2)) == 1
        assert str(out) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # an existing empty directory is fine; a file in the way is refused
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(*synth_args(empty, classes=2, slides=2)) == 0
        blocker = tmp_path / "file"
        blocker.write_text("keep")
        assert run(*synth_args(blocker, classes=2, slides=2)) == 1
        assert blocker.read_text() == "keep"

    def test_single_patch_count(self, tmp_path):
        out = tmp_path / "ds"
        assert run(*synth_args(out, classes=2, slides=2, patches="16")) == 0
        manifest = embedstore.parse_manifest(out / "manifest.jsonl")
        assert [rec.num_patches for rec in manifest.slides] == [16] * 4

    def test_synth_holds_one_slide(self, tmp_path):
        data = tmp_path / "ds"
        tracemalloc.start()
        try:
            assert run(*synth_args(data, dim=128, slides=25, patches="300:400",
                                   rho=0.05, kappa=1.0)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        manifest = embedstore.parse_manifest(data / "manifest.jsonl")
        payload = sum(4 * rec.num_patches * 128 for rec in manifest.slides)
        assert payload >= 5_000_000
        assert peak < payload / 4, (peak, payload)


class TestEvaluate:
    def evaluate_args(self, dataset, out, *extra):
        return [
            "evaluate",
            "--dataset", str(dataset),
            "--out", str(out),
            "--folds", "3",
            "--k-grid", "2",
            "--topk-grid", "4",
            "--seeds", "11,12",
            *extra,
        ]

    def test_report_written(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(*self.evaluate_args(dataset, out)) == 0
        report = EvalReport.from_json(out.read_text())
        assert report.config["seeds"] == [11, 12]
        assert {r.method for r in report.records} == {
            "visionshot", "simpleshot", "tipadapter", "mizero",
        }
        assert "method" in capsys.readouterr().out

    def test_rerun_identical(self, dataset, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(*self.evaluate_args(dataset, a)) == 0
        assert run(*self.evaluate_args(dataset, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_methods_filter(self, dataset, tmp_path):
        out = tmp_path / "mizero.json"
        assert run(*self.evaluate_args(dataset, out, "--methods", "mizero")) == 0
        report = EvalReport.from_json(out.read_text())
        assert report.records and all(r.method == "mizero" for r in report.records)
        assert all(r.seed is None and r.prompt is not None for r in report.records)

    def test_csv_format(self, dataset, tmp_path):
        out = tmp_path / "report.csv"
        assert run(*self.evaluate_args(dataset, out, "--format", "csv")) == 0
        assert out.read_text().splitlines()[0] == (
            "method,fold,seed,k,top_k,prompt,balanced_accuracy"
        )

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("evaluate", "--dataset", str(tmp_path / "nope"), "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_int_list_exits_two(self, dataset, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_info:
            run("evaluate", "--dataset", str(dataset), "--out", str(out), "--k-grid", "2,x")
        assert exit_info.value.code == 2
        assert "expected comma-separated integers, got '2,x'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_classifier_found_exits_one(self, dataset, tmp_path, capsys):
        (dataset / "classifier.pse").unlink()
        out = tmp_path / "r.json"
        assert run("evaluate", "--dataset", str(dataset), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: no --classifier given and no classifier.pse next to the manifest\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--seeds", "3,3"], "seeds"),
            (["--seeds", "11", "--methods", "mizero,simpleshot,mizero"], "methods"),
            (["--num-seeds", "0"], "num_seeds"),
            (["--folds", "1"], "num_folds"),
            (["--seeds", ","], "seeds"),
        ],
    )
    def test_config_that_changes_the_report_rejected(
        self, dataset, tmp_path, capsys, extra, field
    ):
        out = tmp_path / "r.json"
        args = ["evaluate", "--dataset", str(dataset), "--out", str(out),
                "--k-grid", "2", "--topk-grid", "4", *extra]
        assert run(*args) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()

    def test_failing_cell_named(self, dataset, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(*self.evaluate_args(dataset, out, "--k-grid", "99"))
        assert code == 1
        assert "k=99" in capsys.readouterr().err

    def test_no_seeds_run_zero_shot_only(self, dataset, tmp_path):
        out = tmp_path / "r.json"
        assert run(*self.evaluate_args(dataset, out, "--methods", "mizero", "--seeds", ",")) == 0
        report = EvalReport.from_json(out.read_text())
        assert report.config["seeds"] == [] and report.records

    def test_grid_defaults_come_from_grid_config(self):
        args = build_parser().parse_args(["evaluate", "--dataset", "d", "--out", "o"])
        assert not any(f.name in args for f in fields(GridConfig))
        given = build_parser().parse_args(
            ["evaluate", "--dataset", "d", "--out", "o", "--methods", "mizero,simpleshot",
             "--k-grid", "1,3", "--topk-grid", "4,8", "--folds", "3", "--seeds", "7,9",
             "--num-seeds", "2", "--base-seed", "11", "--tip-alpha", "0.5",
             "--tip-beta", "2.5", "--no-normalize-prototypes"]
        )
        # every flag lands in its field: one whose dest is not a field is dropped
        grid = {f.name: getattr(given, f.name) for f in fields(GridConfig) if f.name in given}
        assert grid == {
            "methods": ("mizero", "simpleshot"), "num_folds": 3, "k_grid": (1, 3),
            "top_k_grid": (4, 8), "seeds": (7, 9), "num_seeds": 2, "base_seed": 11,
            "tip_alpha": 0.5, "tip_beta": 2.5, "normalize_prototypes": False,
        }
        assert len(grid) == len(fields(GridConfig))


class TestPrototypeCommands:
    def test_build_and_predict(self, dataset, tmp_path, capsys):
        proto = tmp_path / "proto.pse"
        assert run(
            "build-prototypes",
            "--dataset", str(dataset),
            "--top-k", "4",
            "--out", str(proto),
        ) == 0
        assert proto.is_file() and proto.with_name("proto.pse.json").is_file()

        preds_csv = tmp_path / "preds.csv"
        assert run(
            "predict",
            "--dataset", str(dataset),
            "--prototypes", str(proto),
            "--out", str(preds_csv),
        ) == 0
        lines = preds_csv.read_text().splitlines()
        assert lines[0] == "slide_id,predicted_class,score_0,score_1,score_2"
        manifest, bags = embedstore.load_manifest(dataset / "manifest.jsonl")
        # rho=1, kappa=0 data is separable: predicting the support slides
        # themselves must be perfect
        for line, rec in zip(lines[1:], manifest.slides):
            slide_id, predicted = line.split(",")[:2]
            assert slide_id == rec.slide_id
            assert predicted == rec.class_name

    def test_cli_matches_library(self, dataset, tmp_path):
        proto_path = tmp_path / "proto.pse"
        run(
            "build-prototypes",
            "--dataset", str(dataset),
            "--top-k", "4",
            "--out", str(proto_path),
        )
        preds_csv = tmp_path / "preds.csv"
        run(
            "predict",
            "--dataset", str(dataset),
            "--prototypes", str(proto_path),
            "--out", str(preds_csv),
        )
        manifest, bags = embedstore.load_manifest(dataset / "manifest.jsonl")
        protos = adapters.read_prototypes(proto_path)
        for line, bag in zip(preds_csv.read_text().splitlines()[1:], bags):
            fields = line.split(",")
            pred = adapters.predict_prototype(bag, protos)
            assert fields[1] == protos.class_names[pred.predicted]
            for text, score in zip(fields[2:], pred.class_scores):
                assert text == format(score, ".6g")

    def test_simpleshot_build(self, dataset, tmp_path):
        proto = tmp_path / "ss.pse"
        assert run(
            "build-prototypes",
            "--dataset", str(dataset),
            "--method", "simpleshot",
            "--out", str(proto),
        ) == 0
        assert adapters.read_prototypes(proto).top_k is None

    def test_zero_shot(self, dataset, tmp_path):
        out = tmp_path / "zs.csv"
        assert run("zero-shot", "--dataset", str(dataset), "--out", str(out)) == 0
        manifest, _ = embedstore.load_manifest(dataset / "manifest.jsonl")
        for line, rec in zip(out.read_text().splitlines()[1:], manifest.slides):
            assert line.split(",")[1] == rec.class_name


class TestDimensionErrors:
    """A prototype or classifier file of another dimension fails the command
    with a message that names the first slide it meets."""

    @pytest.fixture
    def narrow(self, tmp_path):
        out = tmp_path / "narrow"
        assert run(*synth_args(out, dim=4)) == 0
        return out

    @staticmethod
    def first_slide(dataset):
        return embedstore.parse_manifest(dataset / "manifest.jsonl").slides[0].slide_id

    def fails_naming_first_slide(self, dataset, capsys, *argv):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "dimension mismatch" in err
        assert f"slide {self.first_slide(dataset)!r}" in err

    def test_build_prototypes(self, dataset, narrow, tmp_path, capsys):
        self.fails_naming_first_slide(
            dataset, capsys,
            "build-prototypes",
            "--dataset", str(dataset),
            "--classifier", str(narrow / "classifier.pse"),
            "--top-k", "4",
            "--out", str(tmp_path / "proto.pse"),
        )

    def test_build_prototypes_and_evaluate_agree(self, narrow, tmp_path, capsys):
        """For an 8-dim corpus and a 4-dim classifier, both expect the
        classifier's dimension and name the first slide."""
        wide = tmp_path / "wide"
        assert run(*synth_args(wide, dim=8)) == 0
        classifier = ("--classifier", str(narrow / "classifier.pse"))
        messages = []
        for argv in (
            ("build-prototypes", "--dataset", str(wide), *classifier, "--top-k", "4",
             "--out", str(tmp_path / "proto.pse")),
            ("evaluate", "--dataset", str(wide), *classifier, "--k-grid", "2",
             "--out", str(tmp_path / "r.json")),
        ):
            capsys.readouterr()
            assert run(*argv) == 1
            messages.append(capsys.readouterr().err)
        first = self.first_slide(wide)
        assert messages == [f"error: slide {first!r}: dimension mismatch: expected 4, got 8\n"] * 2

    def test_predict(self, dataset, narrow, tmp_path, capsys):
        proto = tmp_path / "narrow.pse"
        assert run("build-prototypes", "--dataset", str(narrow), "--out", str(proto)) == 0
        self.fails_naming_first_slide(
            dataset, capsys,
            "predict",
            "--dataset", str(dataset),
            "--prototypes", str(proto),
            "--out", str(tmp_path / "preds.csv"),
        )

    def test_zero_shot(self, dataset, narrow, tmp_path, capsys):
        self.fails_naming_first_slide(
            dataset, capsys,
            "zero-shot",
            "--dataset", str(dataset),
            "--classifier", str(narrow / "classifier.pse"),
            "--out", str(tmp_path / "zs.csv"),
        )


class TestSidecarTypes:
    """A sidecar value of the wrong type fails the command with a message
    naming the sidecar and the key, and writes nothing."""

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("support", [], "an object of string lists"),
            ("support", {"a": "s0"}, "an object of string lists"),
            ("class_names", "abc", "a list of strings"),
            ("class_names", ["a", 2, "c"], "a list of strings"),
            ("top_k", "4", "an integer or null"),
            ("top_k", True, "an integer or null"),
            ("normalized", "yes", "a boolean"),
        ],
    )
    def test_prototype_sidecar(self, dataset, tmp_path, capsys, key, value, expected):
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(dataset), "--top-k", "4",
                   "--out", str(proto)) == 0
        sidecar = tmp_path / "proto.pse.json"
        fields = json.loads(sidecar.read_text())
        fields[key] = value
        sidecar.write_text(json.dumps(fields))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run("predict", "--dataset", str(dataset), "--prototypes", str(proto),
                   "--out", str(out)) == 1
        message = f"{sidecar}: key {key!r} holds {value!r}, not {expected}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("class_names", "abc", "a list of strings"),
            ("num_prompts", 1.0, "an integer"),
            ("num_classes", "3", "an integer"),
        ],
    )
    def test_classifier_sidecar(self, dataset, tmp_path, capsys, key, value, expected):
        sidecar = dataset / "classifier.pse.json"
        fields = json.loads(sidecar.read_text())
        fields[key] = value
        sidecar.write_text(json.dumps(fields))
        out = tmp_path / "z.csv"
        capsys.readouterr()
        assert run("zero-shot", "--dataset", str(dataset), "--out", str(out)) == 1
        message = f"{sidecar}: key {key!r} holds {value!r}, not {expected}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestInputFileErrors:
    """A prototype or classifier file that disagrees with its sidecar, or
    whose rows cannot be used, fails the command with a message that names
    the file."""

    def fails_naming(self, capsys, path, *argv) -> str:
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: "), err
        return err[len(f"error: {path}: "):]

    @staticmethod
    def predict(dataset, proto, tmp_path):
        return ("predict", "--dataset", str(dataset), "--prototypes", str(proto),
                "--out", str(tmp_path / "p.csv"))

    @staticmethod
    def zero_shot(dataset, tmp_path):
        return ("zero-shot", "--dataset", str(dataset), "--out", str(tmp_path / "z.csv"))

    @staticmethod
    def edit_sidecar(path, **changes):
        sidecar = embedstore.sidecar_path(path)
        fields = json.loads(sidecar.read_text())
        fields.update(changes)
        sidecar.write_text(json.dumps(fields))
        return sidecar

    def test_prototype_class_names_and_rows_disagree(self, dataset, tmp_path, capsys):
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(dataset), "--top-k", "4",
                   "--out", str(proto)) == 0
        sidecar = self.edit_sidecar(proto, class_names=["a", "b", "c", "d"])
        err = self.fails_naming(capsys, sidecar, *self.predict(dataset, proto, tmp_path))
        assert err == "lists 4 class names, but the file holds 3 rows\n"

    @pytest.mark.parametrize(
        "change, key, reason",
        [
            ({"class_names": ["a", "a", "b"]}, "class_names", "class name 'a' is listed twice"),
            ({"top_k": -5}, "top_k", "top_k -5 is below 1"),
            ({"top_k": 0}, "top_k", "top_k 0 is below 1"),
        ],
    )
    def test_prototype_sidecar_rules(self, dataset, tmp_path, capsys, change, key, reason):
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(dataset), "--top-k", "4",
                   "--out", str(proto)) == 0
        sidecar = self.edit_sidecar(proto, **change)
        with pytest.raises(SidecarError) as err:
            adapters.read_prototypes(proto)
        assert (err.value.path, err.value.key) == (str(sidecar), key)
        assert self.fails_naming(capsys, sidecar, *self.predict(dataset, proto, tmp_path)) == (
            reason + "\n"
        )
        assert not (tmp_path / "p.csv").exists()

    def test_zero_prototype_marked_normalized(self, dataset, tmp_path, capsys):
        proto = tmp_path / "zero.pse"
        embedstore.write_embeddings_file(embedstore.PatchMatrix(np.zeros((3, 8))), proto)
        embedstore.write_sidecar(proto, {"class_names": ["a", "b", "c"], "normalized": True})
        err = self.fails_naming(capsys, proto, *self.predict(dataset, proto, tmp_path))
        assert err == "row 0 has near-zero L2 norm and cannot be normalized\n"

    def test_unnormalized_classifier_rows(self, dataset, tmp_path, capsys):
        path = dataset / "classifier.pse"
        weights = embedstore.read_embeddings_file(path).values
        embedstore.write_embeddings_file(embedstore.PatchMatrix(weights * 4), path)
        err = self.fails_naming(capsys, path, *self.zero_shot(dataset, tmp_path))
        assert err == "classifier row 0 has L2 norm 4, expected 1.0\n"

    def test_classifier_rows_and_sidecar_disagree(self, dataset, tmp_path, capsys):
        sidecar = self.edit_sidecar(dataset / "classifier.pse", num_prompts=2)
        err = self.fails_naming(capsys, sidecar, *self.zero_shot(dataset, tmp_path))
        assert err == "declares 2 prompts x 3 classes, but the file holds 3 rows\n"

    @pytest.mark.parametrize("command", ["evaluate", "build-prototypes"])
    def test_classifier_classes_in_another_order(self, dataset, tmp_path, capsys, command):
        """The classifier's class names must be the manifest's, in order; the
        check runs before any bag is read (here, before a missing one)."""
        sidecar = self.edit_sidecar(
            dataset / "classifier.pse", class_names=["class_0", "class_2", "class_1"]
        )
        manifest = embedstore.parse_manifest(dataset / "manifest.jsonl")
        (dataset / manifest.slides[0].path).unlink()
        out = tmp_path / "out"
        err = self.fails_naming(
            capsys, sidecar, command, "--dataset", str(dataset), "--out", str(out)
        )
        assert err == "class 1 is 'class_2' in the classifier, 'class_1' in the manifest\n"
        assert not out.exists()

    def test_more_class_names_than_classes(self, dataset, tmp_path, capsys):
        sidecar = self.edit_sidecar(dataset / "classifier.pse", num_classes=2)
        err = self.fails_naming(capsys, sidecar, *self.zero_shot(dataset, tmp_path))
        assert err == "3 class names for 2 classes\n"


def workflow_outputs(dataset, tmp_path):
    """(argv, output files) of the three streaming commands on `dataset`."""
    proto = tmp_path / "proto.pse"
    assert run("build-prototypes", "--dataset", str(dataset), "--top-k", "4",
               "--out", str(proto)) == 0
    built = tmp_path / "built.pse"
    return [
        (["build-prototypes", "--dataset", str(dataset), "--top-k", "4", "--out", str(built)],
         [built, built.with_name("built.pse.json")]),
        (["predict", "--dataset", str(dataset), "--prototypes", str(proto),
          "--out", str(tmp_path / "p.csv")], [tmp_path / "p.csv"]),
        (["zero-shot", "--dataset", str(dataset), "--out", str(tmp_path / "z.csv")],
         [tmp_path / "z.csv"]),
    ]


class TestStreamingCommands:
    def test_bad_last_bag_writes_nothing(self, dataset, tmp_path, capsys):
        commands = workflow_outputs(dataset, tmp_path)
        manifest = embedstore.parse_manifest(dataset / "manifest.jsonl")
        last = manifest.slides[-1]
        values = embedstore.read_embeddings_file(dataset / last.path).values
        embedstore.write_embeddings_file(embedstore.PatchMatrix(values * 2), dataset / last.path)
        capsys.readouterr()
        for argv, outputs in commands:
            assert run(*argv) == 1, argv[0]
            assert last.slide_id in capsys.readouterr().err
            assert not any(path.exists() for path in outputs), argv[0]

    def test_fails_before_first_bag(self, dataset, tmp_path, capsys):
        # with every slide file gone, an error about anything else shows that
        # no bag was read first
        manifest = embedstore.parse_manifest(dataset / "manifest.jsonl")
        for rec in manifest.slides:
            (dataset / rec.path).unlink()
        out = str(tmp_path / "out.csv")
        cases = [
            (["zero-shot", "--dataset", str(dataset), "--prompt", "3", "--out", out],
             "prompt index 3 out of range"),
            (["predict", "--dataset", str(dataset), "--prototypes",
              str(tmp_path / "none.pse"), "--out", out], "none.pse.json"),
            (["build-prototypes", "--dataset", str(dataset), "--classifier",
              str(tmp_path / "none.pse"), "--out", out], "none.pse.json"),
        ]
        capsys.readouterr()
        for argv, message in cases:
            assert run(*argv) == 1
            assert message in capsys.readouterr().err, argv[0]

    def test_evaluate_fails_before_first_bag(self, dataset, tmp_path, capsys):
        manifest = embedstore.parse_manifest(dataset / "manifest.jsonl")
        for rec in manifest.slides:
            (dataset / rec.path).unlink()
        bad_sidecar = tmp_path / "bad.pse"
        (tmp_path / "bad.pse.json").write_text('{"num_classes": 3, "class_names": []}')
        # two prompts that cancel: every canonical vector is zero
        clf = embedstore.read_text_classifier(dataset / "classifier.pse")
        cancelling = tmp_path / "cancelling.pse"
        embedstore.write_text_classifier(
            embedstore.TextClassifier(clf.class_names, np.stack([clf.weights[0], -clf.weights[0]])),
            cancelling,
        )
        evaluate = ["evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "r.json"),
                    "--folds", "3", "--seeds", "11"]
        cases = [
            (["--k-grid", "99"], ["[fold=0 seed=11 k=99]", "cannot draw 99"]),
            (["--topk-grid", "2,2"], ["top_k_grid [2, 2] repeats a value"]),
            (["--classifier", str(tmp_path / "none.pse")],
             [f"file not found: {tmp_path / 'none.pse.json'}"]),
            (["--classifier", str(bad_sidecar)],
             [f"{tmp_path / 'bad.pse.json'}: missing key 'num_prompts'"]),
            (["--classifier", str(cancelling), "--k-grid", "2",
              "--methods", "simpleshot,mizero,tipadapter"],
             ["error: row 0 has near-zero L2 norm and cannot be normalized"]),
        ]
        capsys.readouterr()
        for extra, messages in cases:
            assert run(*evaluate, *extra) == 1, extra
            err = capsys.readouterr().err
            assert all(message in err for message in messages), (extra, err)
            assert not (tmp_path / "r.json").exists()

    def test_missing_file_message(self, dataset, tmp_path, capsys):
        missing = tmp_path / "nothere"
        assert run("predict", "--dataset", str(dataset), "--prototypes", str(missing),
                   "--out", str(tmp_path / "p.csv")) == 1
        assert capsys.readouterr().err == f"error: file not found: {missing}.json\n"

    def test_manifest_error_names_line(self, dataset, tmp_path, capsys):
        path = dataset / "manifest.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"slide_id"', '"slide"')
        path.write_text("\n".join(lines) + "\n")
        assert run("zero-shot", "--dataset", str(dataset), "--out",
                   str(tmp_path / "z.csv")) == 1
        assert f"{path} line 3: missing key 'slide_id'" in capsys.readouterr().err

    def test_corpus_without_slides_rejected(self, dataset, tmp_path, capsys):
        """A manifest of its classes line alone fails every corpus command with
        one line naming the manifest, and writes nothing."""
        commands = workflow_outputs(dataset, tmp_path)
        commands += [
            (["build-prototypes", "--dataset", str(dataset), "--method", "simpleshot",
              "--out", str(tmp_path / "s.pse")], [tmp_path / "s.pse"]),
            (["evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "r.json")],
             [tmp_path / "r.json"]),
        ]
        path = dataset / "manifest.jsonl"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        for argv, outputs in commands:
            assert run(*argv) == 1, argv
            err = capsys.readouterr().err
            assert err == f"error: {path} line 1: no slide lines follow the classes line\n", argv
            assert not any(out.exists() for out in outputs), argv

    def test_zero_row_names_the_file_with_normalize(self, dataset, tmp_path, capsys):
        """--normalize cannot fix an all-zero row: the error names the file,
        and without --normalize it does not offer that flag as the fix."""
        first = embedstore.parse_manifest(dataset / "manifest.jsonl").slides[0]
        bag = dataset / first.path
        raw = bytearray(bag.read_bytes())
        row = embedstore.HEADER_SIZE + 4 * 8 * 3
        raw[row : row + 4 * 8] = bytes(4 * 8)
        bag.write_bytes(bytes(raw))
        out = tmp_path / "z.csv"
        assert run("zero-shot", "--dataset", str(dataset), "--normalize", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {bag}: row 3 has near-zero L2 norm and cannot be normalized\n"
        )
        assert run("zero-shot", "--dataset", str(dataset), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {bag}: slide {first.slide_id!r} row 3 has L2 norm 0, expected 1.0\n"
        )
        assert not out.exists()

    def test_off_unit_row_names_the_file_and_offers_the_fix(self, dataset, tmp_path, capsys):
        """A row of norm 2.0 fails zero-shot without --normalize, naming the
        file as the read-back does, and offers --normalize as the fix."""
        first = embedstore.parse_manifest(dataset / "manifest.jsonl").slides[0]
        bag = dataset / first.path
        values = embedstore.read_embeddings_file(bag).values.copy()
        values[3] *= 2
        embedstore.write_embeddings_file(embedstore.PatchMatrix(values), bag)
        out = tmp_path / "z.csv"
        assert run("zero-shot", "--dataset", str(dataset), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {bag}: slide {first.slide_id!r} row 3 has L2 norm 2, expected 1.0; "
            "pass renormalize=True (--normalize) to fix at load\n"
        )
        assert not out.exists()

    def test_zero_shot_keeps_no_slide_by_dim_table(self, tmp_path):
        """zero-shot keeps n x C scores, not the n x d pooled means: over 2N
        slides it peaks less than half an N x d float64 table above its
        peak over N slides."""
        peaks = []
        for slides in (20, 40):
            data = tmp_path / f"ds{slides}"
            assert run(*synth_args(data, dim=512, slides=slides, patches="4:6")) == 0
            tracemalloc.start()
            try:
                assert run("zero-shot", "--dataset", str(data),
                           "--out", str(tmp_path / f"z{slides}.csv")) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n = 3 * 20  # slides in the smaller corpus
        assert peaks[1] - peaks[0] < n * 512 * 4, peaks

    def test_predict_holds_one_bag(self, tmp_path):
        data = tmp_path / "ds"
        assert run(*synth_args(data, dim=64, slides=20, patches="300:400")) == 0
        manifest = embedstore.parse_manifest(data / "manifest.jsonl")
        payload = sum(4 * rec.num_patches * 64 for rec in manifest.slides)
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(data), "--out", str(proto)) == 0
        tracemalloc.start()
        try:
            assert run("predict", "--dataset", str(data), "--prototypes", str(proto),
                       "--out", str(tmp_path / "p.csv")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload / 4, (peak, payload)

    def test_evaluate_holds_one_bag(self, tmp_path):
        data = tmp_path / "ds"
        assert run(*synth_args(data, dim=64, slides=20, patches="300:400")) == 0
        manifest = embedstore.parse_manifest(data / "manifest.jsonl")
        payload = sum(4 * rec.num_patches * 64 for rec in manifest.slides)
        tracemalloc.start()
        try:
            assert run("evaluate", "--dataset", str(data), "--out", str(tmp_path / "r.json"),
                       "--folds", "3", "--k-grid", "2,4", "--topk-grid", "4,400",
                       "--seeds", "11") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload / 4, (peak, payload)


def prediction_csv(predictions, class_names) -> str:
    """The CSV of per-bag predictions, written out field by field."""
    lines = ["slide_id,predicted_class," + ",".join(f"score_{c}" for c in range(len(class_names)))]
    for pred in predictions:
        scores = ",".join(format(s, ".6g") for s in pred.class_scores)
        lines.append(f"{pred.slide_id},{class_names[pred.predicted]},{scores}")
    return "\n".join(lines) + "\n"


class TestPooledPredictions:
    """predict and zero-shot score each pooled mean as the reader hands it
    over; their CSVs are those of the per-bag predictions."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 9),
        sizes=st.lists(st.integers(1, 40), min_size=2, max_size=7),
        prompts=st.integers(1, 3),
        block_bytes=st.integers(1, 256),
    )
    def test_csvs_are_the_per_bag_predictions(self, seed, dim, sizes, prompts, block_bytes):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = write_random_corpus(tmp / "ds", rng, dim, sizes)
            weights = random_unit_rows(rng, prompts * 2, dim).reshape(prompts, 2, dim)
            classifier = embedstore.TextClassifier(("a", "b"), weights)
            embedstore.write_text_classifier(classifier, tmp / "ds" / "classifier.pse")
            proto = tmp / "proto.pse"
            adapters.write_prototypes(
                adapters.simpleshot_prototypes(random_bags(rng, dim), num_classes=2), proto
            )
            protos = adapters.read_prototypes(proto)
            _, bags = embedstore.load_manifest(path)
            prompt = prompts - 1
            with small_blocks(block_bytes):
                assert run("predict", "--dataset", str(path), "--prototypes", str(proto),
                           "--out", str(tmp / "p.csv")) == 0
                assert run("zero-shot", "--dataset", str(path), "--prompt", str(prompt),
                           "--out", str(tmp / "z.csv")) == 0
            predicted = [adapters.predict_prototype(bag, protos) for bag in bags]
            zero_shot = [adapters.mizero_predict(bag, classifier, prompt) for bag in bags]
            assert (tmp / "p.csv").read_text() == prediction_csv(predicted, protos.class_names)
            assert (tmp / "z.csv").read_text() == prediction_csv(zero_shot, ("a", "b"))


def random_bags(rng, dim, per_class=2):
    """Labeled random unit-norm support bags, `per_class` of each of 2 classes."""
    return [embedstore.SlideBag(f"r{i}", embedstore.PatchMatrix(random_unit_rows(rng, 3, dim)),
                                i % 2) for i in range(2 * per_class)]


class TestOneWalkPerBag:
    """Every command that reads a corpus walks each bag exactly once, in one
    block buffer per stream, re-normalized or not, and widens no whole bag
    outside that walk except to re-normalize it: a top-K pool of a bag read
    from its file gathers from the block its walk left widened."""

    @pytest.fixture
    def noisy(self, tmp_path):
        out = tmp_path / "noisy"
        assert run(*synth_args(out, rho=0.3, kappa=1.0)) == 0
        return out

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "command", ["evaluate", "visionshot", "simpleshot", "predict", "zero-shot"]
    )
    def test_each_bag_walked_once(self, noisy, tmp_path, monkeypatch, command, normalize):
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(noisy), "--out", str(proto)) == 0
        dataset = ("--dataset", str(noisy))
        argv = {
            "evaluate": ("evaluate", *dataset, "--folds", "3", "--k-grid", "2",
                         "--topk-grid", "4,400", "--out", str(tmp_path / "r.json")),
            "visionshot": ("build-prototypes", *dataset, "--top-k", "4",
                           "--out", str(tmp_path / "v.pse")),
            "simpleshot": ("build-prototypes", *dataset, "--method", "simpleshot",
                           "--out", str(tmp_path / "s.pse")),
            "predict": ("predict", *dataset, "--prototypes", str(proto),
                        "--out", str(tmp_path / "p.csv")),
            "zero-shot": ("zero-shot", *dataset, "--out", str(tmp_path / "z.csv")),
        }[command]
        walked, widened, gathered, holders = [], [], [], []
        walk, blocks, holder = embedstore._walk, embedstore.float64_blocks, embedstore._GrowOnly

        def counted_walk(values, *args, **kwargs):
            # a bag read from its file is named by its path, a re-normalized one by its first row
            payload = isinstance(values, embedstore._Payload)
            walked.append(values.path if payload else values[0].tobytes())
            return walk(values, *args, **kwargs)

        def counted_blocks(values, rows=None, buffer=None):
            (widened if rows is None else gathered).append(values.shape)
            return blocks(values, rows, buffer)

        class CountedHolder(holder):
            def __init__(self):
                holders.append(self)

        monkeypatch.setattr(embedstore, "_walk", counted_walk)
        monkeypatch.setattr(embedstore, "float64_blocks", counted_blocks)
        monkeypatch.setattr(simsel, "float64_blocks", counted_blocks)
        monkeypatch.setattr(embedstore, "_GrowOnly", CountedHolder)
        assert run(*argv, *(["--normalize"] if normalize else [])) == 0
        slides = len(embedstore.parse_manifest(noisy / "manifest.jsonl").slides)
        assert len(walked) == len(set(walked)) == slides
        assert len(widened) == slides * (2 if normalize else 1)
        assert len(holders) == 1
        if not normalize:  # every bag is one block: its top-K pools gather no rows again
            assert gathered == []
        elif command in ("evaluate", "visionshot"):
            assert gathered


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_streaming_makes_few_page_faults(tmp_path):
    """Reading and walking a bag allocates no memory of its own: a second
    zero-shot over 60 bags makes fewer minor page faults than an eighth of
    the pages of the corpus payload."""
    import resource  # Unix only

    data = tmp_path / "ds"
    assert run(*synth_args(data, dim=256, slides=20, patches="250:300", rho=0.05,
                           kappa=1.0)) == 0
    manifest = embedstore.parse_manifest(data / "manifest.jsonl")
    assert len(manifest.slides) == 60
    pages = sum(4 * rec.num_patches * 256 for rec in manifest.slides) / resource.getpagesize()
    argv = ("zero-shot", "--dataset", str(data), "--out", str(tmp_path / "z.csv"))
    assert run(*argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(*argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < pages / 8, (faults, pages)


# the axes of the last record of a 2-fold, 2-seed report of k 1 and top-K 2 and 5
LAST_CELL = '{"method": "visionshot", "fold": 1, "seed": 2, "k": 1, "top_k": 5, "prompt": null}\n'


class TestReportCommand:
    def make_report(self, dataset, tmp_path) -> Path:
        out = tmp_path / "report.json"
        run(
            "evaluate",
            "--dataset", str(dataset),
            "--out", str(out),
            "--folds", "3",
            "--k-grid", "2",
            "--topk-grid", "4",
            "--seeds", "11",
        )
        return out

    def test_summary_and_csv(self, dataset, tmp_path, capsys):
        report = self.make_report(dataset, tmp_path)
        curves = tmp_path / "curves.csv"
        assert run("report", "--reports", str(report), "--csv-out", str(curves)) == 0
        out = capsys.readouterr().out
        assert "visionshot" in out and "k=2" in out
        lines = curves.read_text().splitlines()
        assert lines[0] == "report,method,k,top_k,mean,std"
        assert len(lines) > 1

    def test_tampered_aggregates_rejected(self, dataset, tmp_path, capsys):
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        raw["aggregates"][0]["mean"] += 0.25
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        assert "do not match" in capsys.readouterr().err

    def test_tampered_record_count_rejected(self, dataset, tmp_path, capsys):
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        raw["aggregates"][0]["num_records"] += 7
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        assert "do not match their records" in capsys.readouterr().err

    def test_tampered_aggregate_is_one_error_line_and_no_csv(self, dataset, tmp_path, capsys):
        """The aggregate check is EvalReport.from_json's, so its error names
        the report first, as every other report error does."""
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        raw["aggregates"][1]["std"] += 2**-40
        report_path.write_text(json.dumps(raw))
        curves = tmp_path / "curves.csv"
        assert run("report", "--reports", str(report_path), "--csv-out", str(curves)) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {report_path}: aggregates do not match their records: aggregates[1] is ("
        )
        assert err.count("\n") == 1 and not curves.exists()

    def test_malformed_report_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert run("report", "--reports", str(bad)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, key",
        [
            ("null_accuracy", "balanced_accuracy"),
            ("missing_records", "records"),
            ("not_json", None),
            ("string_fold", "fold"),
        ],
    )
    def test_malformed_report_names_file(self, dataset, tmp_path, capsys, case, key):
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        if case == "null_accuracy":
            raw["records"][0]["balanced_accuracy"] = None
        elif case == "missing_records":
            del raw["records"]
        elif case == "string_fold":
            raw["records"][2]["fold"] = "x"
        text = "{not json" if case == "not_json" else json.dumps(raw)
        report_path.write_text(text)
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}: ")
        if key is not None:
            assert repr(key) in err
        with pytest.raises(ReportError) as info:
            EvalReport.from_json(text, str(report_path))
        assert (info.value.path, info.value.key) == (str(report_path), key)

    @pytest.mark.parametrize(
        "field, value, key",
        [("fold", -1, "fold"), ("per_class_recalls", [1.0], "per_class_recalls")],
    )
    def test_record_that_disagrees_with_config_exits_one(
        self, dataset, tmp_path, capsys, field, value, key
    ):
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        raw["records"][1][field] = value
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}: records[1]: key {key!r} holds ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "method, key, value, held",
        [
            ("mizero", "seed", -3, "-3, not null"),
            ("mizero", "prompt", None, "null, not 0"),
            ("simpleshot", "k", None, "null, not 2"),
            ("simpleshot", "top_k", 4, "4, not null"),
            ("tipadapter", "prompt", 0, "0, not null"),
            ("visionshot", "top_k", None, "null, not 4"),
            ("visionshot", "method", "protoshot", '"protoshot", not "visionshot"'),
        ],
    )
    def test_record_axes_disagree_with_method_exits_one(
        self, dataset, tmp_path, capsys, method, key, value, held
    ):
        """Each method's records set the axes run_grid gives them and leave
        the others null; a record that does not is named, with the key."""
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        i = next(i for i, r in enumerate(raw["records"]) if r["method"] == method)
        raw["records"][i][key] = value
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}: records[{i}]: key {key!r} holds {held}")
        assert err.count("\n") == 1

    def test_off_grid_k_names_the_aggregate(self, dataset, tmp_path, capsys):
        """A record moved to a shot count the grid never ran is not the
        grid's cell at its index: the error names the record and its key
        'k', before the aggregates are compared (their naming is covered by
        test_aggregates_that_differ_from_records_name_the_index)."""
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        i = next(i for i, r in enumerate(raw["records"]) if r["method"] == "simpleshot")
        raw["records"][i]["k"] = 3
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {report_path}: records[{i}]: key 'k' holds 3, not 2\n"

    @staticmethod
    def rederive(raw):
        """Set the aggregates of `raw` to those of its records."""
        records = tuple(EvalRecord(**r) for r in raw["records"])
        raw["aggregates"] = json.loads(EvalReport({}, records).to_json())["aggregates"]

    @staticmethod
    def off_by_two_ulps(r):
        r["balanced_accuracy"] += -2**-52 if r["balanced_accuracy"] > 0.5 else 2**-52

    @pytest.mark.parametrize(
        "edit, key, reason",
        [
            pytest.param(lambda raw: raw.update(config={}), "methods",
                         "config: missing key 'methods'", id="empty-config"),
            pytest.param(lambda raw: raw["config"].update(k_grid="x"), "k_grid",
                         "config: key 'k_grid' holds 'x', not a list of integers",
                         id="string-k-grid"),
            pytest.param(lambda raw: raw["records"].pop(3), "fold",
                         "records[3]: key 'fold' holds 0, not 1\n", id="missing-record"),
            pytest.param(lambda raw: raw["records"].insert(4, raw["records"][3]), "fold",
                         "records[4]: key 'fold' holds 1, not 0\n", id="duplicated-record"),
            pytest.param(lambda raw: [r.update(k=99) for r in raw["records"] if r["k"] == 1],
                         "k", "records[2]: key 'k' holds 99, not 1\n", id="k-off-the-grid"),
            pytest.param(lambda raw: raw["records"].pop(), "records",
                         "records[17] is missing from a grid of 18 records: " + LAST_CELL,
                         id="missing-last-record"),
            pytest.param(lambda raw: raw["records"].append(raw["records"][-1]), "records",
                         "records[18] is extra in a grid of 18 records: " + LAST_CELL,
                         id="extra-record"),
            pytest.param(lambda raw: TestReportCommand.off_by_two_ulps(raw["records"][3]),
                         "balanced_accuracy", "records[3]: key 'balanced_accuracy' holds ",
                         id="accuracy-not-the-mean"),
        ],
    )
    def test_report_off_its_grid_exits_one(self, dataset, tmp_path, capsys, edit, key, reason):
        """A report whose records are not exactly the cells its config
        implies, each once and in report order, or whose accuracy is not
        the mean of its recalls, fails with one line naming the record or
        the key, even with its aggregates re-derived from its records."""
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--out", str(report_path),
                   "--folds", "2", "--k-grid", "1", "--topk-grid", "2,5", "--seeds", "1,2") == 0
        raw = json.loads(report_path.read_text())
        assert len(raw["records"]) == 18
        edit(raw)
        self.rederive(raw)
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}: {reason}") and err.count("\n") == 1
        with pytest.raises(ReportError) as info:
            EvalReport.from_json(report_path.read_text(), str(report_path))
        assert info.value.key == key

    def test_missing_aggregate_is_named_absent(self, dataset, tmp_path, capsys):
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        last = len(raw["aggregates"]) - 1
        del raw["aggregates"][last]
        report_path.write_text(json.dumps(raw))
        assert run("report", "--reports", str(report_path)) == 1
        err = capsys.readouterr().err
        assert f"aggregates[{last}] is absent in the file, (" in err

    @pytest.mark.parametrize(
        "key, field, value",
        [
            ("aggregates", "mean", float("nan")),
            ("aggregates", "std", float("nan")),
            ("records", "per_class_recalls", [float("nan")] * 3),
            ("aggregates", "std", float("inf")),
            ("aggregates", "std", 10**400),
        ],
    )
    def test_non_finite_number_exits_one(self, dataset, tmp_path, capsys, key, field, value):
        """json reads NaN, Infinity and integers no float holds; a report
        holding one is rejected, with no CSV written, rather than printed as
        nan or failing with a traceback."""
        report_path = self.make_report(dataset, tmp_path)
        raw = json.loads(report_path.read_text())
        raw[key][1][field] = value
        report_path.write_text(json.dumps(raw))
        curves = tmp_path / "curves.csv"
        assert run("report", "--reports", str(report_path), "--csv-out", str(curves)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}: {key}[1]: key {field!r} holds ")
        assert err.count("\n") == 1 and not curves.exists()

    def test_two_reports_merged(self, dataset, tmp_path, capsys):
        first = self.make_report(dataset, tmp_path)
        second = tmp_path / "second.json"
        second.write_text(first.read_text())
        curves = tmp_path / "curves.csv"
        assert run(
            "report", "--reports", str(first), str(second), "--csv-out", str(curves)
        ) == 0
        names = {line.split(",")[0] for line in curves.read_text().splitlines()[1:]}
        assert names == {"report.json", "second.json"}

    def test_reports_of_one_name_in_two_directories_keep_apart(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        """Reports are named by their path below the directory that holds
        them all, so two report.json files get two labels."""
        made = self.make_report(dataset, tmp_path)
        for name in ("rA", "rB"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "report.json").write_text(made.read_text())
        curves = tmp_path / "curves.csv"
        monkeypatch.chdir(tmp_path)  # one path absolute, one relative
        assert run(
            "report", "--reports", str(tmp_path / "rA" / "report.json"),
            "rB/report.json", "--csv-out", str(curves),
        ) == 0
        out = capsys.readouterr().out
        assert "== rA/report.json ==" in out and "== rB/report.json ==" in out
        rows = curves.read_text().splitlines()[1:]
        names = [row.split(",")[0] for row in rows]
        half = len(rows) // 2
        assert half and names == ["rA/report.json"] * half + ["rB/report.json"] * half


class TestCsvQuoting:
    """A slide id, class name or report name that holds a comma, a quote or
    a line break is quoted in every CSV a command writes, so csv.reader
    reads it back exactly; other fields are written bare."""

    IDS = ('a,b "c"\nd', "plain", "cr\rlf", '"quoted"')
    CLASSES = ("x,y", 'q"r', "line\nbreak")

    def test_names_read_back_exactly(self, dataset, tmp_path):
        rng = np.random.default_rng(61)
        records, bags = [], []
        for i, slide_id in enumerate(self.IDS * 3):
            slide_id = f"{slide_id}{i}"
            name = self.CLASSES[i % 3]
            records.append(embedstore.SlideRecord(slide_id, name, f"s{i}.pse", 5))
            bags.append(embedstore.SlideBag(slide_id, embedstore.PatchMatrix(
                random_unit_rows(rng, 5, 8)), i % 3))
        data = tmp_path / "odd"
        embedstore.write_dataset(self.CLASSES, zip(records, bags), data)
        weights = random_unit_rows(rng, 3, 8).reshape(1, 3, 8)
        embedstore.write_text_classifier(
            embedstore.TextClassifier(self.CLASSES, weights), data / "classifier.pse"
        )
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(data), "--top-k", "2",
                   "--out", str(proto)) == 0
        for argv in (("predict", "--prototypes", str(proto)), ("zero-shot",)):
            out = tmp_path / f"{argv[0]}.csv"
            assert run(*argv, "--dataset", str(data), "--out", str(out)) == 0
            with out.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["slide_id", "predicted_class", "score_0", "score_1", "score_2"]
            assert [row[0] for row in rows[1:]] == [rec.slide_id for rec in records]
            for row in rows[1:]:
                scores = [float(value) for value in row[2:]]
                assert len(scores) == 3 and row[1] == self.CLASSES[int(np.argmax(scores))]
        lines = (tmp_path / "zero-shot.csv").read_text(encoding="utf-8").split("\n")
        assert sum(line.startswith(("plain1,", "plain5,", "plain9,")) for line in lines) == 3

        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--out", str(report), "--folds", "3",
                   "--k-grid", "2", "--topk-grid", "4", "--seeds", "11") == 0
        odd = tmp_path / 'r,"1".json'
        odd.write_bytes(report.read_bytes())
        curves = tmp_path / "curves.csv"
        assert run("report", "--reports", str(odd), "--csv-out", str(curves)) == 0
        with curves.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["report", "method", "k", "top_k", "mean", "std"]
        assert len(rows) > 1 and {row[0] for row in rows[1:]} == {odd.name}
        assert all(len(row) == 6 for row in rows)


class TestOutputPaths:
    """An output path whose directory does not exist, or that is a
    directory, fails a command before any slide is read or anything is
    written, naming the path."""

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize(
        "command", ["evaluate", "build-prototypes", "predict", "zero-shot", "report"]
    )
    def test_unwritable_output_fails_first(
        self, dataset, tmp_path, monkeypatch, capsys, command, where
    ):
        proto = tmp_path / "proto.pse"
        assert run("build-prototypes", "--dataset", str(dataset), "--out", str(proto)) == 0
        report = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(dataset), "--out", str(report), "--folds", "3",
                   "--k-grid", "2", "--topk-grid", "4", "--seeds", "11") == 0
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
            reason = "it is a directory"
        else:
            out = tmp_path / "nodir" / "out"
            reason = f"no directory {tmp_path / 'nodir'}"
        corpus = ("--dataset", str(dataset))
        argv = {
            "evaluate": ("evaluate", *corpus, "--out", str(out)),
            "build-prototypes": ("build-prototypes", *corpus, "--out", str(out)),
            "predict": ("predict", *corpus, "--prototypes", str(proto), "--out", str(out)),
            "zero-shot": ("zero-shot", *corpus, "--out", str(out)),
            "report": ("report", "--reports", str(report), "--csv-out", str(out)),
        }[command]
        opened = []
        open_payload = embedstore._open_payload

        def counted_open(path):
            opened.append(path)
            return open_payload(path)

        monkeypatch.setattr(embedstore, "_open_payload", counted_open)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == "" and opened == []
        assert sorted(tmp_path.rglob("*")) == before
