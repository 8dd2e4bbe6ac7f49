"""Span tracer for the benchmark's traced runs.

Timing wrappers are installed from outside the program, on the module
attributes that protoshot's own code looks up at call time, so nothing in
``src/`` changes and untimed runs carry no tracing cost at all.

Each call of a wrapped function records one span: name, start, end, parent
span and thread. Spans stay in memory until the command ends; ``summarize``
then turns them into per-name calls, inclusive time and self time. Self time
is a span's duration minus the time its child spans cover.

Every thread has its own span stack. A span that starts on a thread whose
stack is empty (a grid cell on ``run_grid``'s thread pool) takes the
innermost open span of the main thread as its parent, so pool work nests
under ``evalharness.run_grid``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from time import perf_counter

import numpy as np

# span fields: [name, start, end, parent span or None, thread ident, meter data]
NAME, START, END, PARENT, THREAD, DATA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, meter=None):
        """Return `fn` wrapped so every call records a span named `name`.

        `meter(args, kwargs, result)` runs after the span closes and its
        return value is kept on the span for ``summarize``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is self._main_stack or not self._main_stack:
                parent = None
            else:
                parent = self._main_stack[-1]
            span = [name, 0.0, 0.0, parent, threading.get_ident(), None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                self.spans.append(span)  # list.append is atomic across threads
            if meter is not None:
                span[DATA] = meter(args, kwargs, result)
            return result

        return traced


# --- meters: exact counts taken at the layer boundary ---------------------------------


def _slide_key(matrix) -> tuple:
    # the first row of a slide's float32 patch matrix identifies the slide in
    # every corpus the benchmark generates, and does not depend on object lifetimes
    return (matrix.rows, matrix.values[0].tobytes())


def _meter_bgap(args, kwargs, result):
    bag = args[0]
    subset = args[1] if len(args) > 1 else kwargs.get("subset")
    if subset is None:
        return {"bytes": bag.rows * bag.dim * 4, "key": (_slide_key(bag), None)}
    idx = np.asarray(subset).reshape(-1)
    return {"bytes": idx.size * bag.dim * 4, "key": (_slide_key(bag), hash(idx.tobytes()))}


def _meter_score_against(args, kwargs, result):
    bag = args[0]
    vector = args[1] if len(args) > 1 else kwargs["class_vector"]
    vector_key = hash(np.asarray(vector, dtype=np.float64).tobytes())
    return {"bytes": bag.rows * bag.dim * 4, "key": (_slide_key(bag), vector_key)}


def _meter_top_k(args, kwargs, result):
    scores = args[0] if args else kwargs["scores"]
    return {"bytes": len(scores) * 8}


def _meter_load_manifest(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    _, bags = result
    payload = sum(16 + 4 * bag.patches.rows * bag.patches.dim for bag in bags)
    return {"bytes": os.path.getsize(path) + payload}


def _meter_run_grid(args, kwargs, result):
    from protoshot.evalharness import GridConfig

    config = args[3] if len(args) > 3 else kwargs.get("config", GridConfig())
    threads = args[4] if len(args) > 4 else kwargs.get("threads", 1)
    fewshot = any(m != "mizero" for m in config.methods)
    per_fold = (len(config.resolved_seeds()) * len(config.k_grid) if fewshot else 0) + (
        1 if "mizero" in config.methods else 0
    )
    return {
        "cells": config.num_folds * per_fold,
        "records": len(result.records),
        "threads": threads,
    }


# (span name, defining module, attribute, meter)
TRACED = (
    ("synthgen.generate", "protoshot.synthgen", "generate", None),
    ("embedstore.write_dataset", "protoshot.embedstore", "write_dataset", None),
    ("embedstore.load_manifest", "protoshot.embedstore", "load_manifest", _meter_load_manifest),
    ("embedstore.read_text_classifier", "protoshot.embedstore", "read_text_classifier", None),
    ("simsel.bgap", "protoshot.simsel", "bgap", _meter_bgap),
    ("simsel.score_against", "protoshot.simsel", "score_against", _meter_score_against),
    ("simsel.top_k", "protoshot.simsel", "top_k", _meter_top_k),
    ("adapters.build_prototypes", "protoshot.adapters", "build_prototypes", None),
    (
        "adapters.visionshot_slide_embedding",
        "protoshot.adapters",
        "visionshot_slide_embedding",
        None,
    ),
    ("adapters.simpleshot_prototypes", "protoshot.adapters", "simpleshot_prototypes", None),
    ("adapters.build_cache", "protoshot.adapters", "build_cache", None),
    ("adapters.predict_prototype", "protoshot.adapters", "predict_prototype", None),
    ("adapters.tip_adapter_predict", "protoshot.adapters", "tip_adapter_predict", None),
    ("adapters.mizero_predict", "protoshot.adapters", "mizero_predict", None),
    ("evalharness.run_grid", "protoshot.evalharness", "run_grid", _meter_run_grid),
    ("evalharness.sample_few_shot", "protoshot.evalharness", "sample_few_shot", None),
    ("evalharness.balanced_accuracy", "protoshot.evalharness", "balanced_accuracy", None),
    ("evalharness.stratified_kfold", "protoshot.evalharness", "stratified_kfold", None),
    ("evalharness.aggregate_records", "protoshot.evalharness", "aggregate_records", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever a protoshot module binds it.

    `from .simsel import bgap` copies the function into the importing
    module, so each module attribute that holds the original is replaced.
    ``EvalReport.to_json`` is patched on the class.
    """
    import protoshot.cli  # noqa: F401  (imports every protoshot module)
    from protoshot.evalharness import EvalReport

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "protoshot"]
    for name, module_name, attr, meter in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, meter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    EvalReport.to_json = tracer.wrap("evalharness.to_json", EvalReport.to_json)


# --- summary ----------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reached = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reached:
            total += end - max(start, reached)
            reached = end
    return total


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-name totals for one traced command that took `wall_s` seconds.

    Returned keys:
      calls, s, self_s, bytes: per span name (bytes only for metered kernels);
      distinct: per span name, the number of distinct meter keys;
      grid: cells, records and threads of the (last) run_grid call;
      worker_busy_s: time covered by run_grid's child spans, summed per thread;
      overlap_s: time child spans of one parent ran on several threads at once;
      cli_self_s: wall time not covered by any top-level span.
    With these, sum(self_s) + cli_self_s == wall_s + overlap_s.
    """
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    keys: dict[str, set] = {}
    grid: dict = {}
    worker_busy = 0.0
    overlap = 0.0
    for span in spans:
        name, start, end = span[NAME], span[START], span[END]
        kids = children.get(id(span), [])
        intervals = [(max(k[START], start), min(k[END], end)) for k in kids]
        covered = _covered(intervals)
        by_thread: dict[int, list] = {}
        for kid, interval in zip(kids, intervals):
            by_thread.setdefault(kid[THREAD], []).append(interval)
        per_thread = sum(_covered(iv) for iv in by_thread.values())
        overlap += per_thread - covered
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        data = span[DATA]
        if data:
            if "bytes" in data:
                nbytes[name] = nbytes.get(name, 0) + data["bytes"]
            if "key" in data:
                keys.setdefault(name, set()).add(data["key"])
            if name == "evalharness.run_grid":
                grid = data
                worker_busy += per_thread

    roots = [(s[START], s[END]) for s in spans if s[PARENT] is None]
    return {
        "calls": calls,
        "s": inclusive,
        "self_s": self_s,
        "bytes": nbytes,
        "distinct": {name: len(k) for name, k in keys.items()},
        "grid": grid,
        "worker_busy_s": worker_busy,
        "overlap_s": overlap,
        "cli_self_s": wall_s - _covered(roots),
    }
