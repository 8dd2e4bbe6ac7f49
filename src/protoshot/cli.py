"""Command-line entry point.

Subcommands: synth, evaluate, build-prototypes, predict, zero-shot, report.
Exit status 0 means every requested output was written; argparse reports
bad flags with status 2; runtime failures exit 1 with the cause (for grid
runs, the failing cell) on stderr.

Every command that reads a corpus streams it: each checks that its output
path can be written, loads its classifier or prototypes and checks its
options first (evaluate also makes every support draw), then reads and
pools one slide at a time, a block of its rows at a time, in the reader
(:func:`~protoshot.embedstore.iter_pooled`), which hands over only the
slide's pooled rows, and writes its output only after the last slide, so a
failure leaves no partial file. On a corpus that declares at least
:data:`~protoshot.embedstore.SPLIT_BYTES` of payload, and a host with two
CPUs, the reader pools every other run of 16 slides in one forked worker;
the rows, the output bytes and any error are those of one process.
`synth` checks its config, and that `--out` is absent or empty, first;
then it writes each slide's file while a second thread draws the next
slide, and the manifest, classifier and config after the last one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import adapters, embedstore, evalharness, synthgen
from .errors import IoFailure, OutputNotEmpty, PromptIndexOutOfRange, ProtoshotError


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _str_list(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _patch_range(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX or a count, got {text!r}") from exc


def _dataset_paths(dataset: str) -> tuple[Path, Path]:
    """Accept a manifest file or a directory holding the manifest."""
    path = Path(dataset)
    manifest = path / embedstore.MANIFEST_NAME if path.is_dir() else path
    return manifest, manifest.parent


def _check_outputs(*paths: str | None) -> None:
    """Check, before any slide is read, that each output path given can be
    written: its parent is an existing directory and it is not a directory
    itself. An IoFailure names the path."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise IoFailure(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise IoFailure(f"cannot write {path}: no directory {path.parent}")


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, its quotes doubled, only when it holds
    a comma, a quote or a line break (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _stream_dataset(args) -> tuple[embedstore.DatasetManifest, Callable[..., Iterator], Path]:
    """Parse the manifest now, and return it with a reader of its slides: the
    :func:`~protoshot.embedstore.iter_pooled` stream that a call of the
    reader with a per-slide request gives. The dataset directory comes
    last."""
    manifest_path, root = _dataset_paths(args.dataset)
    manifest = embedstore.parse_manifest(manifest_path)
    read = partial(embedstore.iter_pooled, manifest, manifest_path, renormalize=args.normalize)
    return manifest, read, root


def _full_means(slide_id: str, label: int) -> embedstore.PoolRequest:
    return embedstore.MEAN


def _load_classifier(
    args, dataset_dir: Path, classes: tuple[str, ...] | None = None
) -> embedstore.TextClassifier:
    """The text classifier `args` names, else the one next to the manifest.
    Given `classes`, the manifest's class names, it must hold the same names
    in the same order; ClassNamesMismatch names its sidecar."""
    path = args.classifier
    if path is None:
        candidate = dataset_dir / "classifier.pse"
        if candidate.is_file():
            path = candidate
        else:
            raise ProtoshotError(
                "no --classifier given and no classifier.pse next to the manifest"
            )
    classifier = embedstore.read_text_classifier(path)
    if classes is not None:
        classifier.check_classes(classes, str(embedstore.sidecar_path(path)))
    return classifier


# --- subcommands ------------------------------------------------------------------


def cmd_synth(args) -> int:
    lo, hi = args.patches
    config = synthgen.SynthConfig(
        num_classes=args.classes,
        dim=args.dim,
        slides_per_class=args.slides_per_class,
        patches_min=lo,
        patches_max=hi,
        informative_fraction=args.rho,
        noise_scale=args.kappa,
        seed=args.seed,
    )
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise OutputNotEmpty(str(out))  # an earlier corpus's files would outlive its manifest
    classifier, slides = synthgen.stream(config)
    manifest_path = embedstore.write_dataset(classifier.class_names, slides, out)
    embedstore.write_text_classifier(classifier, out / "classifier.pse")
    (out / "synth_config.json").write_text(
        json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    count = config.num_classes * config.slides_per_class
    print(f"wrote {count} slides, {manifest_path}, classifier.pse, synth_config.json")
    return 0


def cmd_evaluate(args) -> int:
    # only the grid flags given, by field name: GridConfig holds every default and check
    given = {f.name: vars(args)[f.name] for f in fields(evalharness.GridConfig) if f.name in args}
    config = evalharness.GridConfig(**given)
    _check_outputs(args.out)
    manifest, read, root = _stream_dataset(args)
    classifier = _load_classifier(args, root, manifest.classes)
    report = evalharness.run_grid(manifest, read, classifier, config)
    out = Path(args.out)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    out.write_text(payload, encoding="utf-8")
    print(format_summary(report))
    print(f"report written to {out}")
    return 0


def cmd_build_prototypes(args) -> int:
    _check_outputs(args.out)
    manifest, read, root = _stream_dataset(args)
    if args.method == "visionshot":
        classifier = _load_classifier(args, root, manifest.classes)
        protos = adapters.build_prototypes(
            read, classifier, args.top_k, not args.no_normalize_prototypes
        )
    else:
        protos = adapters.simpleshot_prototypes(
            read,
            not args.no_normalize_prototypes,
            num_classes=len(manifest.classes),
            class_names=manifest.classes,
        )
    adapters.write_prototypes(protos, args.out)
    print(f"wrote {protos.num_classes} prototypes to {args.out}")
    return 0


def _write_predictions(path: str, ids, scores, class_names) -> None:
    """One CSV row per slide: its id, the argmax class of its row of the
    ``n x C`` `scores` (the lowest index among ties) and every score; ids
    and class names are quoted as :func:`_csv_field` says."""
    header = "slide_id,predicted_class," + ",".join(
        f"score_{c}" for c in range(len(class_names))
    )
    lines = [header]
    for slide_id, predicted, row in zip(ids, scores.argmax(axis=1).tolist(), scores.tolist()):
        scores_text = ",".join(format(s, ".6g") for s in row)
        lines.append(f"{_csv_field(slide_id)},{_csv_field(class_names[predicted])},{scores_text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_predict(args) -> int:
    _check_outputs(args.out)
    protos = adapters.read_prototypes(args.prototypes)
    manifest, read, _ = _stream_dataset(args)
    ids, scores = adapters.score_means(read(_full_means), protos.prototypes, len(manifest.slides))
    _write_predictions(args.out, ids, scores, protos.class_names)
    print(f"wrote {len(ids)} predictions to {args.out}")
    return 0


def cmd_zero_shot(args) -> int:
    _check_outputs(args.out)
    _, root = _dataset_paths(args.dataset)
    classifier = _load_classifier(args, root)
    if not 0 <= args.prompt < classifier.num_prompts:
        raise PromptIndexOutOfRange(args.prompt, classifier.num_prompts)
    manifest, read, _ = _stream_dataset(args)
    weights = classifier.weights[args.prompt].astype(np.float64)  # as mizero_scores takes them
    ids, scores = adapters.score_means(read(_full_means), weights, len(manifest.slides))
    _write_predictions(args.out, ids, scores, classifier.class_names)
    print(f"wrote {len(ids)} predictions to {args.out}")
    return 0


def cmd_report(args) -> int:
    _check_outputs(args.csv_out)
    # each report is named by its path below the one directory that holds them all
    paths = [os.path.abspath(path) for path in args.reports]
    common = os.path.commonpath([os.path.dirname(path) for path in paths])
    reports = []
    for path, full in zip(args.reports, paths):
        report = evalharness.EvalReport.from_json(Path(path).read_bytes(), path)
        reports.append((os.path.relpath(full, common), report))
    for name, report in reports:
        if len(reports) > 1:
            print(f"== {name} ==")
        print(format_summary(report))
    if args.csv_out:
        lines = ["report,method,k,top_k,mean,std"]
        for name, report in reports:
            for a in report.aggregates:
                lines.append(
                    f"{_csv_field(name)},{_csv_field(a.method)},"
                    f"{'' if a.k is None else a.k},"
                    f"{'' if a.top_k is None else a.top_k},"
                    f"{format(a.mean, '.6g')},{format(a.std, '.6g')}"
                )
        Path(args.csv_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"curves written to {args.csv_out}")
    return 0


def format_summary(report: evalharness.EvalReport) -> str:
    """Mean +/- std per method (rows split by top-K) against the shot grid."""
    ks = sorted({a.k for a in report.aggregates if a.k is not None})
    cells: dict[tuple[str, int | None], dict[int | None, str]] = {}
    for a in report.aggregates:
        cells.setdefault((a.method, a.top_k), {})[a.k] = (
            f"{a.mean:.3f}±{a.std:.3f}"
        )
    width = 12
    header = f"{'method':<12}{'top_k':>6}  " + "".join(f"{f'k={k}':>{width}}" for k in ks)
    lines = [header]
    for (method, top_k), by_k in sorted(
        cells.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])
    ):
        if set(by_k) == {None}:
            row = f"{method:<12}{'-':>6}  " + f"{by_k[None]:>{width}}"
        else:
            row = f"{method:<12}{'-' if top_k is None else top_k:>6}  " + "".join(
                f"{by_k.get(k, '-'):>{width}}" for k in ks
            )
        lines.append(row)
    return "\n".join(lines)


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoshot",
        description="Training-free few-shot slide classification over precomputed embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--slides-per-class", type=int, required=True)
    p.add_argument("--patches", type=_patch_range, required=True, metavar="MIN:MAX")
    p.add_argument("--rho", type=float, default=0.05, help="informative patch fraction")
    p.add_argument("--kappa", type=float, default=1.0, help="noise scale around class directions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "evaluate", help="run the cross-validated few-shot grid",
        argument_default=argparse.SUPPRESS,  # GridConfig holds the grid's defaults
    )
    p.add_argument("--dataset", required=True, help="manifest file or dataset directory")
    p.add_argument("--classifier", default=None,
                   help="text classifier file (default: classifier.pse in dataset dir)")
    p.add_argument("--methods", type=_str_list)
    p.add_argument("--k-grid", type=_int_list)
    p.add_argument("--topk-grid", type=_int_list, dest="top_k_grid", metavar="TOPK_GRID")
    p.add_argument("--folds", type=int, dest="num_folds", metavar="FOLDS")
    p.add_argument("--seeds", type=_int_list, help="explicit few-shot seeds")
    p.add_argument("--num-seeds", type=int)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--tip-alpha", type=float)
    p.add_argument("--tip-beta", type=float)
    p.add_argument("--no-normalize-prototypes", action="store_false", dest="normalize_prototypes")
    p.add_argument("--normalize", action="store_true", default=False,
                   help="re-normalize rows at load")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("build-prototypes", help="build class prototypes from labeled slides")
    p.add_argument("--dataset", required=True)
    p.add_argument("--classifier")
    p.add_argument("--method", choices=("visionshot", "simpleshot"), default="visionshot")
    p.add_argument("--top-k", type=int, default=200)
    p.add_argument("--no-normalize-prototypes", action="store_true")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_prototypes)

    p = sub.add_parser("predict", help="nearest-prototype predictions for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--prototypes", required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("zero-shot", help="text-classifier predictions for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--classifier")
    p.add_argument("--prompt", type=int, default=0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_zero_shot)

    p = sub.add_parser("report", help="summarize one or more evaluation reports")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--csv-out", help="write plot-ready mean/std curves")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProtoshotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
