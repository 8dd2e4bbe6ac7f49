"""Run one protoshot CLI command in a fresh process and record its wall time.

usage: python3 perfbench/child.py RESULT_JSON [--trace] -- CLI_ARGS...

The package is imported from the checkout's ``src/`` before the clock
starts, so the time runs from the call of ``protoshot.cli.main`` to its
return (for ``evaluate``, until the report is written). With ``--trace`` the
span wrappers are installed first and the span summary is added to the
result. The parent reads peak RSS for this process from ``os.wait4``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    split = argv.index("--")
    result_path, flags, cli_args = Path(argv[0]), argv[1:split], argv[split + 1 :]
    sys.path.insert(0, str(ROOT / "src"))
    from protoshot import cli

    tracer = None
    if "--trace" in flags:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = perf_counter()
    rc = cli.main(cli_args)
    wall = perf_counter() - start
    result = {"rc": rc, "wall_s": wall}
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer.spans, wall)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
