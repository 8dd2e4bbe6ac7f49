"""Command-line entry point.

Subcommands: synth, evaluate, build-prototypes, predict, zero-shot, report.
Exit status 0 means every requested output was written; argparse reports
bad flags with status 2; runtime failures exit 1 with the cause (for grid
runs, the failing cell) on stderr.

Every command that reads a corpus streams it: each loads its classifier or
prototypes and checks its options first (evaluate also makes every support
draw), then reads, pools and releases one bag at a time, and writes its
output only after the last bag, so a failure leaves no partial file.
`synth` checks its config, and that `--out` is absent or empty, first;
then it writes each slide's file as the slide is drawn, and the manifest,
classifier and config after the last one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from . import adapters, embedstore, evalharness, synthgen
from .errors import OutputNotEmpty, PromptIndexOutOfRange, ProtoshotError

DEFAULT_K_GRID = "2,4,8,16"
DEFAULT_TOPK_GRID = "2,20,200,2000"


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
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
    """Accept a manifest file or a directory holding manifest.jsonl."""
    path = Path(dataset)
    manifest = path / "manifest.jsonl" if path.is_dir() else path
    return manifest, manifest.parent


def _stream_dataset(args) -> tuple[embedstore.DatasetManifest, Iterator, Path]:
    """Parse the manifest now; the bags are read one at a time as the
    returned iterator is consumed. The dataset directory comes last."""
    manifest_path, root = _dataset_paths(args.dataset)
    manifest = embedstore.parse_manifest(manifest_path)
    bags = embedstore.iter_bags(manifest, manifest_path, root, renormalize=args.normalize)
    return manifest, bags, root


def _load_classifier(args, dataset_dir: Path) -> embedstore.TextClassifier:
    path = args.classifier
    if path is None:
        candidate = dataset_dir / "classifier.pse"
        if candidate.is_file():
            path = candidate
        else:
            raise ProtoshotError(
                "no --classifier given and no classifier.pse next to the manifest"
            )
    return embedstore.read_text_classifier(path)


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
    manifest, bags, root = _stream_dataset(args)
    classifier = _load_classifier(args, root)
    config = evalharness.GridConfig(
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        num_folds=args.folds,
        k_grid=tuple(args.k_grid),
        top_k_grid=tuple(args.topk_grid),
        seeds=tuple(args.seeds) if args.seeds else None,
        num_seeds=args.num_seeds,
        base_seed=args.base_seed,
        tip_alpha=args.tip_alpha,
        tip_beta=args.tip_beta,
        normalize_prototypes=not args.no_normalize_prototypes,
    )
    report = evalharness.run_grid(manifest, bags, classifier, config)
    out = Path(args.out)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    out.write_text(payload, encoding="utf-8")
    print(format_summary(report))
    print(f"report written to {out}")
    return 0


def cmd_build_prototypes(args) -> int:
    manifest, bags, root = _stream_dataset(args)
    if args.method == "visionshot":
        classifier = _load_classifier(args, root)
        protos = adapters.build_prototypes(
            bags, classifier, args.top_k, not args.no_normalize_prototypes
        )
    else:
        protos = adapters.simpleshot_prototypes(
            bags,
            not args.no_normalize_prototypes,
            num_classes=len(manifest.classes),
            class_names=manifest.classes,
        )
    adapters.write_prototypes(protos, args.out)
    print(f"wrote {protos.num_classes} prototypes to {args.out}")
    return 0


def _write_predictions(path: str, predictions, class_names) -> None:
    header = "slide_id,predicted_class," + ",".join(
        f"score_{c}" for c in range(len(class_names))
    )
    lines = [header]
    for pred in predictions:
        scores = ",".join(format(s, ".6g") for s in pred.class_scores)
        lines.append(f"{pred.slide_id},{class_names[pred.predicted]},{scores}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_predict(args) -> int:
    protos = adapters.read_prototypes(args.prototypes)
    _, bags, _ = _stream_dataset(args)
    predictions = [adapters.predict_prototype(bag, protos) for bag in bags]
    _write_predictions(args.out, predictions, protos.class_names)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_zero_shot(args) -> int:
    _, root = _dataset_paths(args.dataset)
    classifier = _load_classifier(args, root)
    if not 0 <= args.prompt < classifier.num_prompts:
        raise PromptIndexOutOfRange(args.prompt, classifier.num_prompts)
    _, bags, _ = _stream_dataset(args)
    predictions = [adapters.mizero_predict(bag, classifier, args.prompt) for bag in bags]
    _write_predictions(args.out, predictions, classifier.class_names)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        report = evalharness.EvalReport.from_json(Path(path).read_bytes(), path)
        recomputed = evalharness.aggregate_records(report.records)
        if len(recomputed) != len(report.aggregates) or any(
            (a.method, a.k, a.top_k) != (b.method, b.k, b.top_k)
            or abs(a.mean - b.mean) > 1e-12
            or abs(a.std - b.std) > 1e-12
            for a, b in zip(recomputed, report.aggregates)
        ):
            print(f"error: aggregates in {path} do not match their records", file=sys.stderr)
            return 1
        reports.append((Path(path).name, report))
    for name, report in reports:
        if len(reports) > 1:
            print(f"== {name} ==")
        print(format_summary(report))
    if args.csv_out:
        lines = ["report,method,k,top_k,mean,std"]
        for name, report in reports:
            for a in report.aggregates:
                lines.append(
                    f"{name},{a.method},"
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

    p = sub.add_parser("evaluate", help="run the cross-validated few-shot grid")
    p.add_argument("--dataset", required=True, help="manifest file or dataset directory")
    p.add_argument("--classifier", help="text classifier file (default: classifier.pse in dataset dir)")
    p.add_argument("--methods", default=",".join(evalharness.METHODS))
    p.add_argument("--k-grid", type=_int_list, default=_int_list(DEFAULT_K_GRID))
    p.add_argument("--topk-grid", type=_int_list, default=_int_list(DEFAULT_TOPK_GRID))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seeds", type=_int_list, default=None, help="explicit few-shot seeds")
    p.add_argument("--num-seeds", type=int, default=5)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--tip-alpha", type=float, default=1.0)
    p.add_argument("--tip-beta", type=float, default=5.5)
    p.add_argument("--no-normalize-prototypes", action="store_true")
    p.add_argument("--normalize", action="store_true", help="re-normalize rows at load")
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
    except (ProtoshotError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
