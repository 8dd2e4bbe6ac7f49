"""protoshot benchmark: end-to-end and per-layer numbers on three workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each workload synthesizes a corpus from the seed (set-up, three times),
then for ``--seconds`` alternately runs ``evaluate`` and the standalone
workflow ``build-prototypes`` -> ``predict`` -> ``zero-shot`` on it.
Every command runs in a fresh child process, so that peak RSS (``os.wait4``)
belongs to one command.

--trace 0 prints the end-to-end metrics (medians over the samples).
--trace 1 runs set-up and each command once untraced and then once with
span wrappers installed, and prints the per-layer metrics of the traced pass.

Every output is gated by sha256: at a workload's default seed against
perfbench/golden.json, and at any seed against the first copy made in the
same run (so traced and untraced outputs must be byte-identical). A command
that exits non-zero or writes other bytes is a failed operation. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
INFER_TOP_K = "200"


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]  # synth flags except --seed and --out
    default_seed: int
    evaluate: tuple[str, ...]  # evaluate flags beyond --dataset and --out
    slides: int
    records: int  # report records the evaluate grid yields


WORKLOADS = {
    # small corpus, default grid: per-cell and per-slide Python overhead
    "grid-ref": Workload(
        ("--classes", "3", "--dim", "64", "--slides-per-class", "40",
         "--patches", "400:600", "--rho", "0.05", "--kappa", "1.0"),
        default_seed=7, evaluate=(), slides=120, records=605,
    ),
    # big bags, default grid: bandwidth-bound simsel kernels (bags are half the
    # ROADMAP large config's, so that a traced run fits in the time a run may take)
    "grid-large": Workload(
        ("--classes", "3", "--dim", "512", "--slides-per-class", "20",
         "--patches", "1000:2000"),
        default_seed=7, evaluate=(), slides=60, records=605,
    ),
    # many slides, each used once: ingestion dominates, no repeated pooling
    "infer": Workload(
        ("--classes", "4", "--dim", "256", "--slides-per-class", "500",
         "--patches", "120:320"),
        default_seed=11,
        evaluate=("--folds", "2", "--num-seeds", "1", "--k-grid", "2", "--topk-grid", "200"),
        slides=2000, records=8,
    ),
}


# --- child processes ----------------------------------------------------------------


def run_command(cli_args: list, work: Path, trace: bool = False) -> dict:
    """Run one CLI command in a fresh process; returns rc, wall_s, rss_mb and trace."""
    result_file = work / "child.json"
    log_file = work / "child.log"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_file)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *map(str, cli_args)]
    env = dict(os.environ)
    env.pop("PROTOSHOT_THREADS", None)  # evaluate runs at its default thread count
    with log_file.open("wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = perf_counter() - start
    if result_file.is_file():
        result = json.loads(result_file.read_text(encoding="utf-8"))
    else:
        result = {"wall_s": elapsed}
    result["rc"] = proc.returncode
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        tail = log_file.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"command {cli_args[0]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return result


# --- output gate ----------------------------------------------------------------------


def file_sha256(path: Path) -> str:
    if not path.is_file():
        return "missing"
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dataset_sha256(directory: Path) -> str:
    """sha256 over every file of a dataset directory: relative path and content sha."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        digest.update(f"{rel}\0{file_sha256(path)}\n".encode())
    return digest.hexdigest()


class Gate:
    """Counts commands and failed ones.

    An output's sha256 must equal the golden value when one is given, and
    otherwise the first sha256 seen for that output in this run.
    """

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, result: dict, shas: dict[str, str], problems=()) -> None:
        self.attempted += 1
        bad = list(problems)
        if result["rc"] != 0:
            bad.append(f"exit status {result['rc']}")
        for name, sha in shas.items():
            first = self.seen.setdefault(name, sha)
            expected = self.golden.get(name, first) if self.golden else first
            if sha != expected:
                bad.append(f"{name} sha256 {sha}, expected {expected}")
        if bad:
            self.failed += 1
            print(f"{label} failed: " + "; ".join(bad), file=sys.stderr)


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def structural_problems(label: str, out: Path, w: Workload) -> list[str]:
    """Checks that hold at every seed: the report's record count, one CSV row per slide."""
    try:
        if label == "evaluate":
            records = len(json.loads((out / "report.json").read_text(encoding="utf-8"))["records"])
            if records != w.records:
                return [f"report has {records} records, expected {w.records}"]
        elif label in ("predict", "zero-shot"):
            name = "predict.csv" if label == "predict" else "zero_shot.csv"
            rows = _count_lines(out / name) - 1
            if rows != w.slides:
                return [f"{name} has {rows} rows, expected {w.slides}"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    return []


# --- workload steps ---------------------------------------------------------------------


def synth(w: Workload, seed: int, data: Path, work: Path, gate: Gate, trace=False) -> dict:
    shutil.rmtree(data, ignore_errors=True)
    args = ["synth", *w.synth, "--seed", str(seed % 2**32), "--out", data]
    result = run_command(args, work, trace)
    gate.check("synth", result, {"dataset": dataset_sha256(data)})
    return result


def command_groups(w: Workload, data: Path, out: Path) -> dict:
    """(label, CLI args, output files) of `evaluate` and of the standalone workflow."""
    proto = out / "proto.pse"
    return {
        "evaluate": (
            ("evaluate", ["evaluate", "--dataset", data, *w.evaluate, "--out",
                          out / "report.json"], ("report.json",)),
        ),
        "infer": (
            ("build-prototypes", ["build-prototypes", "--dataset", data, "--top-k", INFER_TOP_K,
                                  "--out", proto], ("proto.pse", "proto.pse.json")),
            ("predict", ["predict", "--dataset", data, "--prototypes", proto, "--out",
                         out / "predict.csv"], ("predict.csv",)),
            ("zero-shot", ["zero-shot", "--dataset", data, "--out", out / "zero_shot.csv"],
             ("zero_shot.csv",)),
        ),
    }


def flush(directory: Path) -> None:
    """fsync every file of `directory`, so no write-back of the data set runs while
    later commands are timed."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with path.open("rb") as fh:
                os.fsync(fh.fileno())


def run_group(w: Workload, group: str, data: Path, out: Path, work: Path, gate: Gate,
              trace=False) -> dict:
    """Run one command group in order; returns each command's result by label."""
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    for label, args, outputs in command_groups(w, data, out)[group]:
        for name in outputs:
            (out / name).unlink(missing_ok=True)
        result = run_command(args, work, trace)
        shas = {name: file_sha256(out / name) for name in outputs}
        gate.check(label, result, shas, structural_problems(label, out, w))
        results[label] = result
    return results


def end_to_end(w: Workload, seed: int, seconds: float, work: Path, gate: Gate) -> dict:
    data = work / "data"
    setup = [synth(w, seed, data, work, gate)["wall_s"] for _ in range(SETUP_REPS)]
    flush(data)
    # evaluate and the workflow alternate, the one measured for less time so far
    # going next, so each gets about half of the run and at least one sample
    samples: dict[str, list[float]] = {"evaluate": [], "infer": []}
    spent = {"evaluate": 0.0, "infer": 0.0}
    rss = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not all(samples.values()):
        group = min(spent, key=spent.get)
        start = perf_counter()
        results = run_group(w, group, data, work / "out", work, gate)
        spent[group] += perf_counter() - start
        samples[group].append(sum(r["wall_s"] for r in results.values()))
        rss.extend(r["rss_mb"] for r in results.values())
    evaluate, infer = samples["evaluate"], samples["infer"]
    for name, values in (("setup_s", setup), ("evaluate_s", evaluate), ("infer_s", infer)):
        print(f"{name}: {len(values)} samples " + " ".join(f"{x:.4f}" for x in values))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "evaluate_s": (statistics.median(evaluate), "s"),
        "infer_s": (statistics.median(infer), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def _merge(traces: list[dict]) -> dict:
    """Sum per-command trace summaries."""
    total: dict = {"calls": {}, "s": {}, "self_s": {}, "bytes": {}, "distinct": {}, "grid": {}}
    for trace in traces:
        for field in ("calls", "s", "self_s", "bytes", "distinct", "grid"):
            for name, value in trace[field].items():
                total[field][name] = total[field].get(name, 0) + value
        for field in ("worker_busy_s", "overlap_s", "cli_self_s"):
            total[field] = total.get(field, 0.0) + trace[field]
    return total


SIMSEL = ("bgap", "score_against", "top_k")
ADAPTERS = (
    "build_prototypes", "visionshot_slide_embedding", "simpleshot_prototypes",
    "build_cache", "predict_prototype", "tip_adapter_predict", "mizero_predict",
)
EVALHARNESS = (
    "sample_few_shot", "balanced_accuracy", "stratified_kfold", "aggregate_records", "to_json",
)


def layer_metrics(t: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from the merged trace of one traced pass."""
    calls, incl, self_s = t["calls"], t["s"], t["self_s"]
    m = {}
    for k in SIMSEL:
        name = f"simsel.{k}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.bytes"] = (t["bytes"].get(name, 0), "bytes")
    for k in ("bgap", "score_against"):
        name = f"simsel.{k}"
        n = calls.get(name, 0)
        m[f"{name}.distinct_ratio"] = (t["distinct"].get(name, 0) / n if n else 0.0, "ratio")
    for k in ADAPTERS:
        name = f"adapters.{k}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    grid = "evalharness.run_grid"
    m[f"{grid}.s"] = (incl.get(grid, 0.0), "s")
    m[f"{grid}.self_s"] = (self_s.get(grid, 0.0), "s")
    for k in ("cells", "records", "threads"):
        m[f"{grid}.{k}"] = (t["grid"].get(k, 0), "count")
    m[f"{grid}.worker_busy_s"] = (t["worker_busy_s"], "s")
    for k in EVALHARNESS:
        name = f"evalharness.{k}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    load = "embedstore.load_manifest"
    load_s = incl.get(load, 0.0)
    read = t["bytes"].get(load, 0)
    m[f"{load}.calls"] = (calls.get(load, 0), "count")
    m[f"{load}.s"] = (load_s, "s")
    m["embedstore.bytes_read"] = (read, "bytes")
    m["embedstore.load_mb_per_s"] = (read / 1e6 / load_s if load_s else 0.0, "MB/s")
    m["embedstore.read_text_classifier.s"] = (incl.get("embedstore.read_text_classifier", 0.0), "s")
    m["synthgen.generate.s"] = (incl.get("synthgen.generate", 0.0), "s")
    m["embedstore.write_dataset.s"] = (incl.get("embedstore.write_dataset", 0.0), "s")
    m["cli.self_s"] = (t["cli_self_s"], "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.parallel_overlap_s"] = (t["overlap_s"], "s")
    return m


def traced(w: Workload, seed: int, work: Path, gate: Gate) -> tuple[dict, dict]:
    """One untraced and one traced pass over set-up and every command.

    Returns the per-layer metrics and the merged trace (with the traced wall
    time) that they came from.
    """
    data, data_traced = work / "data", work / "data-traced"
    plain = [synth(w, seed, data, work, gate)]
    spanned = [synth(w, seed, data_traced, work, gate, trace=True)]
    shutil.rmtree(data_traced, ignore_errors=True)
    flush(data)
    for group in ("evaluate", "infer"):
        plain += run_group(w, group, data, work / "out", work, gate).values()
        spanned += run_group(w, group, data, work / "out-traced", work, gate, True).values()
    merged = _merge([r["trace"] for r in spanned if "trace" in r])  # failed ones have none
    merged["wall_s"] = sum(r["wall_s"] for r in spanned)
    overhead = merged["wall_s"] / sum(r["wall_s"] for r in plain)
    return layer_metrics(merged, overhead), merged


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    w = WORKLOADS[workload]
    golden = None
    if seed == w.default_seed:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8")).get(workload)
    gate = Gate(golden)
    work.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, _ = traced(w, seed, work, gate)
    else:
        metrics = end_to_end(w, seed, seconds, work, gate)
    for name, sha in sorted(gate.seen.items()):
        print(f"sha256 {workload} seed={seed} {name} {sha}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "protoshot" / "cli.py").is_file():
        print(f"no protoshot source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
