"""Self-test of the benchmark on a tiny synthetic config (about ten seconds).

usage: python3 perfbench/selftest.py

Checks that:
  * both modes print every metric of BENCHMARK.json by name, with its unit,
    and report no failed operation;
  * the output gate counts a changed output as a failure;
  * traced outputs are byte-identical to untraced ones;
  * span self times plus cli.self_s add up to the traced wall time (plus the
    time spans of the grid's worker threads overlapped);
  * outside a checkout (no src/) the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = run.Workload(
    ("--classes", "3", "--dim", "16", "--slides-per-class", "10", "--patches", "20:40"),
    default_seed=3,
    evaluate=("--folds", "2", "--num-seeds", "1", "--k-grid", "2", "--topk-grid", "2,20"),
    slides=30,
    records=10,
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def printed_result(trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace)])
    check(rc == 0, f"--trace {trace} exited {rc}")
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def main() -> int:
    run.WORKLOADS["tiny"] = TINY
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = printed_result(trace)
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0, f"{section}: {result}")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expected = {m["name"]: m["unit"] for m in spec[section]}
        check(printed == expected, f"{section} metrics differ: {set(printed) ^ set(expected)}")

    gate = run.Gate(None)
    gate.check("a", {"rc": 0}, {"out": "1"})
    gate.check("b", {"rc": 0}, {"out": "2"})
    check((gate.attempted, gate.failed) == (2, 1), "gate did not count a changed output")

    work = run.ROOT / ".perfbench_work" / "selftest"
    try:
        work.mkdir(parents=True, exist_ok=True)
        gate = run.Gate(None)
        _, merged = run.traced(TINY, 3, work, gate)
        # synth and 4 commands, each untraced then traced; traced outputs must match
        check((gate.attempted, gate.failed) == (10, 0), "traced outputs differ from untraced")
        accounted = sum(merged["self_s"].values()) + merged["cli_self_s"]
        expected = merged["wall_s"] + merged["overlap_s"]
        check(abs(accounted - expected) < 1e-6, f"self times {accounted} != {expected}")
        check(merged["grid"]["cells"] == 4 and merged["grid"]["records"] == 10, "grid counts")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "grid-ref",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "bare directory produced a result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
