import json
import tracemalloc
from pathlib import Path

import pytest

from protoshot import adapters, embedstore
from protoshot.cli import main
from protoshot.errors import ReportError
from protoshot.evalharness import EvalReport


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

    def test_thread_count_invariant(self, dataset, tmp_path):
        one = tmp_path / "one.json"
        eight = tmp_path / "eight.json"
        assert run(*self.evaluate_args(dataset, one)) == 0
        assert run(*self.evaluate_args(dataset, eight)) == 0
        assert one.read_bytes() == eight.read_bytes()

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
        assert out.read_text().splitlines()[0] == "method,fold,seed,k,top_k,balanced_accuracy"

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("evaluate", "--dataset", str(tmp_path / "nope"), "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--seeds", "3,3"], "seeds"),
            (["--seeds", "11", "--methods", "mizero,simpleshot,mizero"], "methods"),
            (["--num-seeds", "0"], "num_seeds"),
            (["--folds", "1"], "num_folds"),
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
        evaluate = ["evaluate", "--dataset", str(dataset), "--out", str(tmp_path / "r.json"),
                    "--folds", "3", "--seeds", "11"]
        cases = [
            (["--k-grid", "99"], ["[fold=0 seed=11 k=99]", "cannot draw 99"]),
            (["--topk-grid", "2,2"], ["top_k_grid [2, 2] repeats a value"]),
            (["--classifier", str(tmp_path / "none.pse")],
             [f"file not found: {tmp_path / 'none.pse.json'}"]),
            (["--classifier", str(bad_sidecar)],
             [f"{tmp_path / 'bad.pse.json'}: missing key 'num_prompts'"]),
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
