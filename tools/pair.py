"""Paired benchmark runs of two revisions, summarized against BENCHMARK.json.

usage: python3 tools/pair.py --parent REV --change REV --seeds A-B
                             [--workloads NAME ...] [--control] [--work DIR]
                             [--claim WORKLOAD:METRIC:PCT] --out BENCH_<n>.json

Run from the root of a git checkout. For each workload, both revisions are
exported with ``git archive`` into two fresh sibling directories, x and y:
the parent in x for the first half of the seeds, then, made afresh, in y
for the rest, so neither side keeps one directory. At each seed both sides
run ``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` with
``PYTHONDONTWRITEBYTECODE=1``, the change first on odd seeds and the parent
first on even ones. A run that exits non-zero or reports an incorrect or
failed operation stops the set: the file is written with what was gathered
and the tool exits 1.

``--control`` runs the parent against a second checkout of itself (an A/A
set): its spread is the floor a change's move must clear on this host.

The file holds every sample, the sha256 of every output at each seed (and
whether the two sides wrote the same bytes), and per workload and metric
of BENCHMARK.json's ``end_to_end`` list: both medians, both quartiles
(``statistics.quantiles(n=4)``), the relative change of the median, the
pairs in which the change is better, and whether its median is worse than
the parent's by more than the metric's bound.

``--claim WORKLOAD:METRIC:PCT`` adds whether the change meets a claimed gain
on that metric (:func:`claim_met`): its median better than the parent's by at
least PCT percent, in at least 90% of the pairs, and by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """The seeds of ``A-B``, A through B inclusive; at least two."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"expected a range A-B of two seeds or more, got {text!r}")
    return seeds


def schedule(seeds: list[int]) -> list[tuple[int, tuple[str, str], str]]:
    """For each seed: the seed, its sides in run order (the change first on
    odd seeds), and the directory that holds the parent ("x" for the first
    half of the seeds, "y" for the rest)."""
    half = len(seeds) // 2
    return [
        (seed, ("change", "parent") if seed % 2 else ("parent", "change"), "x" if i < half else "y")
        for i, seed in enumerate(seeds)
    ]


def summarize(parent: dict, change: dict, better: str, bound: float) -> dict:
    """One metric of one workload over the seeds both sides ran: `parent`
    and `change` map seed to value, `better` is "lower" or "higher", and
    `bound` the relative move of the median that counts as worse."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1 if better == "lower" else -1
    p_median, c_median = statistics.median(p), statistics.median(c)
    delta = (c_median - p_median) / p_median if p_median else 0.0
    p_quartiles = statistics.quantiles(p, n=4)
    c_quartiles = statistics.quantiles(c, n=4)
    return {
        "pairs": len(seeds),
        "parent_median": p_median,
        "parent_q1_q3": [p_quartiles[0], p_quartiles[2]],
        "change_median": c_median,
        "change_q1_q3": [c_quartiles[0], c_quartiles[2]],
        "delta": delta,
        "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
        "bound": bound,
        "worse_than_bound": sign * delta > bound,
    }


def parse_claim(text: str) -> tuple[str, str, float]:
    """The workload, metric and percentage of ``WORKLOAD:METRIC:PCT``."""
    parts = text.rsplit(":", 2)
    try:
        workload, metric, pct = parts
        return workload, metric, float(pct)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC:PCT, got {text!r}") from None


def claim_met(summary: dict, better: str, pct: float) -> dict:
    """Whether one metric's `summary` (:func:`summarize`) meets a claimed
    gain of `pct` percent: the change's median is better than the parent's
    by at least `pct` percent, the change wins at least 90% of the pairs,
    and the gap between the medians is larger than the parent's
    interquartile range."""
    sign = 1 if better == "lower" else -1
    gap = sign * (summary["parent_median"] - summary["change_median"])
    q1, q3 = summary["parent_q1_q3"]
    checks = {
        "gain_at_least_pct": -sign * summary["delta"] >= pct / 100,
        "wins_in_90_percent": summary["change_wins"] >= 0.9 * summary["pairs"],
        "gap_above_parent_iqr": gap > q3 - q1,
    }
    return {"pct": pct, **checks, "met": all(checks.values())}


def export(rev: str, target: Path) -> None:
    """The tracked files of `rev`, from ``git archive``, in the fresh
    directory `target`."""
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run: its JSON result, with the sha256 of each output
    under "sha256", or an "error" when it did not run cleanly."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "15", "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit status {proc.returncode}: {proc.stderr[-2000:]}"}
    result["sha256"] = {
        line.split()[3]: line.split()[4] for line in lines if line.startswith("sha256 ")
    }
    if proc.returncode or not result.get("correct") or result.get("failed"):
        result["error"] = f"exit status {proc.returncode}, incorrect: {proc.stderr[-2000:]}"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (not with --control)")
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B")
    parser.add_argument("--workloads", nargs="+", help="default: every BENCHMARK.json workload")
    parser.add_argument("--control", action="store_true",
                        help="run the parent against a second checkout of itself")
    parser.add_argument("--work", type=Path, help="where x and y are made (default: a temp dir)")
    parser.add_argument("--claim", type=parse_claim, metavar="WORKLOAD:METRIC:PCT",
                        help="check a claimed gain of PCT percent on one metric")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.control == (args.change is not None):
        parser.error("give --change, or --control without it")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim and (args.claim[0] not in workloads or args.claim[1] not in metrics):
        parser.error(f"--claim names no run workload and end-to-end metric: {args.claim}")

    def resolve(rev: str) -> str:
        return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    revs = {"parent": resolve(args.parent)}
    revs["change"] = revs["parent"] if args.control else resolve(args.change)
    order = schedule(args.seeds)
    out = {
        "parent": revs["parent"],
        "change": revs["change"],
        "control": args.control,
        "host": {"logical_cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0",
            "workloads": workloads,
            "seeds": args.seeds,
            "order": "change first on odd seeds; every seed of one workload, then the next",
            "env": {"PYTHONDONTWRITEBYTECODE": "1"},
            "checkouts": "git archive of each revision into sibling directories x and y, "
                         "made afresh per workload; the parent in x for the first half of "
                         "the seeds, in y for the rest",
        },
        "failed_or_incorrect_runs": [],
        "same_output_bytes_at_each_seed": {},
        "summary": {},
        "results": {},
    }
    work = Path(tempfile.mkdtemp(prefix="pair-", dir=args.work))
    try:
        for workload in workloads:
            results = {name: {"parent": {}, "change": {}} for name in metrics}
            results["dirs"], results["sha256"] = {}, {"parent": {}, "change": {}}
            out["results"][workload] = results
            made = None
            for seed, sides, parent_dir in order:
                dirs = {"parent": parent_dir, "change": "y" if parent_dir == "x" else "x"}
                if made != parent_dir:  # the first seed, and the swap after half of them
                    for side, where in dirs.items():
                        export(revs[side], work / where)
                    made = parent_dir
                results["dirs"][seed] = dirs
                for side in sides:
                    print(f"{workload} seed {seed} {side} in {dirs[side]}", file=sys.stderr)
                    result = run_once(work / dirs[side], workload, seed)
                    if "error" in result:
                        out["failed_or_incorrect_runs"].append(
                            {"workload": workload, "seed": seed, "side": side,
                             "error": result["error"]})
                        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
                        print(f"stopped: {result['error']}", file=sys.stderr)
                        return 1
                    results["sha256"][side][seed] = result["sha256"]
                    for name in metrics:
                        results[name][side][seed] = result["metrics"][name]["value"]
            out["same_output_bytes_at_each_seed"][workload] = {
                seed: results["sha256"]["parent"][seed] == results["sha256"]["change"][seed]
                for seed in args.seeds
            }
            out["summary"][workload] = {
                name: summarize(results[name]["parent"], results[name]["change"],
                                m["better"], m["bound"])
                for name, m in metrics.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.claim:
        workload, metric, pct = args.claim
        out["claim"] = {"workload": workload, "metric": metric,
                        **claim_met(out["summary"][workload][metric], metrics[metric]["better"], pct)}
        print(f"claim {'met' if out['claim']['met'] else 'not met'}: {out['claim']}", file=sys.stderr)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
