"""Evaluation protocol: stratified folds, seeded few-shot draws, metrics,
and the full (method x fold x seed x shots x top-K) grid with aggregation.

Determinism rules. All randomness flows through numpy's PCG64, seeded by
:func:`derive_seed`, a splitmix64 chain over a base seed and purpose tags.
The grid streams the corpus: every support draw is made before any bag is
read, then one pass pools each slide once and writes its full-bag mean to a
fold-ordered table (and a drawn slide's pools to one support array), so
each slide is read, scored and pooled at most once per run. The text
classifier is checked once: its canonical vectors before the first bag is
read, its dimension at the first bag. Each cell builds its prototypes and
cache keys into buffers allocated once per run; each fold then scores its
slice of that table against the classifier's prompts and all of them at
once and counts every record's hits with one bincount. Results are sorted
by a canonical key before serialization.
Reports echo the generator identity, the mixing rule, and every seed so a
run can be reproduced from the report alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .adapters import (
    MIN_POOLED_NORM,
    SlidePrediction,
    cache_affinity,
    cache_blend,
    prototype_rows,
    row_scores,
)
from .embedstore import (
    MEAN,
    DatasetManifest,
    PoolRequest,
    SlideBag,
    TextClassifier,
    checked_norms,
    is_int,
    pool_bag,
    row_norms,
    typed_object,
)
from .errors import (
    ClassAbsent,
    ClassTooSmall,
    DimensionMismatch,
    GridCellError,
    InsufficientSupport,
    InvalidConfig,
    LengthMismatch,
    ReportError,
    SingleCluster,
    TooFewPoints,
    ZeroVectorRow,
)
from .simsel import pooled

METHODS = ("visionshot", "simpleshot", "mizero", "tipadapter")

PRNG_SPEC = {
    "generator": "numpy.random.PCG64",
    "stream_split": (
        "splitmix64 chain: state starts at splitmix64(base) and folds in each "
        "tag via splitmix64(state XOR tag); string tags hash to 64 bits with "
        "blake2b(digest_size=8), little-endian"
    ),
}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base: int, *tags: int | str) -> int:
    """Derive an independent 64-bit seed from `base` and purpose tags."""
    state = _splitmix64(base & _MASK64)
    for tag in tags:
        if isinstance(tag, str):
            tag = int.from_bytes(
                hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little"
            )
        state = _splitmix64(state ^ (tag & _MASK64))
    return state


# --- stratified folds and few-shot draws -----------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    num_folds: int
    fold_of: Mapping[str, int]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "fold_of", dict(self.fold_of))

    def fold_ids(self, fold: int) -> list[str]:
        return [sid for sid, f in self.fold_of.items() if f == fold]


@dataclass(frozen=True)
class FewShotDraw:
    k: int
    seed: int
    support_ids: tuple[str, ...]


def stratified_kfold(
    labels: Mapping[str, int] | Iterable[tuple[str, int]],
    num_folds: int,
    seed: int,
) -> FoldAssignment:
    """Assign slides to folds, balanced within every class.

    Members of each class are shuffled by one PCG64 stream (classes
    processed in ascending index order) and dealt round-robin, so per-class
    fold sizes differ by at most one. Deterministic given the label order
    and the seed.

    Raises:
        ClassTooSmall: some class has fewer members than folds.
    """
    items = list(labels.items()) if isinstance(labels, Mapping) else list(labels)
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    by_class: dict[int, list[str]] = {}
    for sid, label in items:
        by_class.setdefault(int(label), []).append(sid)
    for label in sorted(by_class):
        if len(by_class[label]) < num_folds:
            raise ClassTooSmall(label, len(by_class[label]), num_folds)
    rng = np.random.default_rng(seed)
    fold_of: dict[str, int] = {}
    for label in sorted(by_class):
        ids = by_class[label]
        order = rng.permutation(len(ids))
        for deal, j in enumerate(order):
            fold_of[ids[j]] = deal % num_folds
    return FoldAssignment(
        num_folds=num_folds,
        fold_of={sid: fold_of[sid] for sid, _ in items},
        seed=seed,
    )


def sample_few_shot(
    ids_by_class: Sequence[Sequence[str]], k: int, seed: int
) -> FewShotDraw:
    """Draw k support slides per class, uniformly without replacement.

    `ids_by_class` holds each class's training slides. A single PCG64
    stream serves the classes in ascending index order, and ``support_ids``
    is class-major: class c's draw is ``support_ids[c * k : (c + 1) * k]``.
    The draw is deterministic given the seed and the id order.

    Raises:
        InsufficientSupport: some class has fewer than k training slides.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    picked: list[str] = []
    for c, ids in enumerate(ids_by_class):
        if len(ids) < k:
            raise InsufficientSupport(c, len(ids), k)
        chosen = rng.choice(len(ids), size=k, replace=False)
        picked.extend(ids[int(i)] for i in chosen)
    return FewShotDraw(k=k, seed=seed, support_ids=tuple(picked))


# --- metrics -----------------------------------------------------------------------


def balanced_accuracy(
    predictions: Sequence[SlidePrediction] | Sequence[int],
    labels: Sequence[int],
    num_classes: int | None = None,
) -> tuple[float, np.ndarray]:
    """Mean of per-class recalls; returns (score, per-class recall vector).

    Classes run 0..num_classes-1 (inferred as max(labels)+1 when omitted)
    and every one of them must appear among the labels; labels outside that
    range are ignored. `predictions` may be an integer array. Recall c is
    hits over members, counted with ``np.bincount``.

    Raises:
        LengthMismatch, ClassAbsent (naming the lowest absent class).
    """
    if not isinstance(predictions, np.ndarray):
        predictions = [getattr(p, "predicted", p) for p in predictions]
    preds = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(list(labels), dtype=np.int64)
    if preds.shape[0] != y.shape[0]:
        raise LengthMismatch(preds.shape[0], y.shape[0])
    if num_classes is None:
        num_classes = int(y.max()) + 1 if y.size else 0
    counted = (y >= 0) & (y < num_classes)
    totals = np.bincount(y[counted], minlength=num_classes)
    absent = np.flatnonzero(totals == 0)
    if absent.size:
        raise ClassAbsent(int(absent[0]))
    hits = np.bincount(y[counted & (preds == y)], minlength=num_classes)
    recalls = hits / totals
    return float(recalls.mean()), recalls


def column_balanced_accuracies(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`balanced_accuracy` of every column of the ``n x R`` integer
    matrix `predictions` against the n `labels`, each in 0..num_classes-1:
    the R scores and the ``R x C`` recalls. One ``np.bincount`` over
    ``column * C + label`` of the hits counts every column, and each row of
    the result holds the bytes :func:`balanced_accuracy` gives that column.

    Raises:
        ClassAbsent: naming the lowest class absent from `labels`.
    """
    totals = np.bincount(labels, minlength=num_classes)
    absent = np.flatnonzero(totals == 0)
    if absent.size:
        raise ClassAbsent(int(absent[0]))
    row, column = np.nonzero(predictions == labels[:, None])
    hits = np.bincount(
        column * num_classes + labels[row], minlength=predictions.shape[1] * num_classes
    )
    recalls = hits.reshape(-1, num_classes) / totals
    return recalls.mean(axis=1), recalls


def _pairwise_distances(points: np.ndarray, block: int = 256) -> np.ndarray:
    """Euclidean distance matrix, computed blockwise without the Gram trick
    (which loses precision for near-coincident points)."""
    m = points.shape[0]
    out = np.empty((m, m), dtype=np.float64)
    for start in range(0, m, block):
        stop = min(start + block, m)
        diff = points[start:stop, None, :] - points[None, :, :]
        out[start:stop] = row_norms(diff.reshape(-1, diff.shape[2])).reshape(diff.shape[:2])
    return out


def silhouette(points: np.ndarray, labels: Sequence[int]) -> float:
    """Mean silhouette with Euclidean distance.

    Per point: a = mean distance to its own cluster (excluding itself),
    b = smallest mean distance to any other cluster, s = (b - a) / max(a, b).
    Singleton clusters and a = b = 0 contribute s = 0.

    Raises:
        TooFewPoints: fewer than 2 points.
        SingleCluster: fewer than 2 distinct labels.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise TooFewPoints(pts.shape[0] if pts.ndim == 2 else 0)
    labs = np.asarray(list(labels), dtype=np.int64)
    if labs.shape[0] != pts.shape[0]:
        raise LengthMismatch(pts.shape[0], labs.shape[0])
    clusters = np.unique(labs)
    if clusters.shape[0] < 2:
        raise SingleCluster()
    dist = _pairwise_distances(pts)
    members = [labs == c for c in clusters]
    sums = np.stack([dist[:, mask].sum(axis=1) for mask in members], axis=1)
    counts = np.array([mask.sum() for mask in members], dtype=np.float64)
    own = np.searchsorted(clusters, labs)
    scores = np.zeros(pts.shape[0], dtype=np.float64)
    for i in range(pts.shape[0]):
        n_own = counts[own[i]]
        if n_own <= 1:
            continue  # singleton convention: s = 0
        a = sums[i, own[i]] / (n_own - 1.0)
        other = np.delete(sums[i] / counts, own[i])
        b = float(other.min())
        denom = max(a, b)
        if denom > 0.0:
            scores[i] = (b - a) / denom
    return float(scores.mean())


# --- report model --------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    """One grid cell result. `seed`/`k`/`top_k` are None where the method has
    no such axis; `prompt` is set only for zero-shot records."""

    method: str
    fold: int
    seed: int | None
    k: int | None
    top_k: int | None
    prompt: int | None
    balanced_accuracy: float
    per_class_recalls: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.balanced_accuracy <= 1.0:
            raise ValueError(f"balanced accuracy {self.balanced_accuracy} outside [0, 1]")
        object.__setattr__(
            self, "per_class_recalls", tuple(float(r) for r in self.per_class_recalls)
        )


@dataclass(frozen=True)
class Aggregate:
    method: str
    k: int | None
    top_k: int | None
    mean: float
    std: float
    num_records: int


@dataclass(frozen=True)
class EvalReport:
    """A grid's config echo and records. Its aggregates are not given: they
    are :func:`aggregate_records` of its records, so no report holds
    aggregates its records do not give."""

    config: dict
    records: tuple[EvalRecord, ...]
    aggregates: tuple[Aggregate, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "aggregates", aggregate_records(self.records))

    def to_json(self) -> str:
        """The bytes of :func:`canonical_json` over each dataclass's fields by
        name, with every record written by one format string."""
        aggregates = canonical_json(
            [{f.name: getattr(a, f.name) for f in fields(a)} for a in self.aggregates]
        )
        quoted: dict[str, str] = {}  # the few method names, each quoted once
        records = ",".join(_record_json(r, quoted) for r in self.records)
        config = canonical_json(self.config)
        return f'{{"aggregates":{aggregates},"config":{config},"records":[{records}]}}\n'

    def to_csv(self) -> str:
        lines = ["method,fold,seed,k,top_k,prompt,balanced_accuracy"]
        for r in self.records:
            axes = ("" if v is None else str(v) for v in (r.fold, r.seed, r.k, r.top_k, r.prompt))
            lines.append(",".join([r.method, *axes, format(r.balanced_accuracy, ".6g")]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text: str | bytes, path: str = "report") -> "EvalReport":
        """Read a report written by :meth:`to_json`. Each record and aggregate
        field must hold the type its dataclass declares, or raise ReportError
        naming `path` and the key; a missing optional field reads as null
        (reports older than ``prompt`` lack it). The records must be exactly
        the cells of the grid the config echoes, in report order, each with
        an accuracy that is the mean of its recalls (:func:`_check_records`),
        or ReportError names the config key, or the record and its key. The
        file's aggregates must equal, exactly, those :func:`aggregate_records`
        gives its records (floats round-trip at 17 digits), or ReportError
        names the first index that differs, with key ``"aggregates"``."""
        raw = typed_object(
            text, _REPORT_TYPES, _REPORT_TYPES, lambda reason, key: ReportError(path, reason, key)
        )
        records, held = (
            tuple(_from_fields(cls, item, path, f"{key}[{i}]") for i, item in enumerate(raw[key]))
            for key, cls in (("records", EvalRecord), ("aggregates", Aggregate))
        )
        _check_records(records, raw["config"], path)
        report = EvalReport(raw["config"], records)
        made = report.aggregates
        if held != made:
            first = (i for i, (a, b) in enumerate(zip(held, made)) if a != b)
            i = next(first, min(len(held), len(made)))  # else the shorter one ends
            reason = (
                f"aggregates do not match their records: aggregates[{i}] is "
                f"{_describe(held, i)} in the file, {_describe(made, i)} from the records"
            )
            raise ReportError(path, reason, "aggregates")
        return report


def _describe(aggregates: Sequence[Aggregate], i: int) -> str:
    """Aggregate `i` of `aggregates`, or "absent" past their end."""
    if i >= len(aggregates):
        return "absent"
    a = aggregates[i]
    return (
        f"({a.method}, k={a.k}, top_k={a.top_k}, {a.num_records} records, "
        f"mean {a.mean:.17g}, std {a.std:.17g})"
    )


def _is_number(value) -> bool:
    """Whether the decoded JSON `value` is a number a float holds finitely."""
    if is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# the JSON value each report field annotation admits: (description, test)
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", is_int),
    "int | None": ("an integer or null", lambda v: v is None or is_int(v)),
    "float": ("a finite number", _is_number),
    "tuple[float, ...]": (
        "a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))
    ),
}
# the keys of a report, each required
_REPORT_TYPES = {
    "config": ("an object", lambda v: isinstance(v, dict)),
    **dict.fromkeys(
        ("records", "aggregates"),
        ("a list of objects", lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v))
    ),
}


def _from_fields(cls, raw: dict, path: str, where: str):
    """The report dataclass `cls` read from `raw`, at `where` in the report
    `path`; a field typed ``int | None`` may be missing, and a float field
    stores an integer as a float."""
    types = {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}
    required = [f.name for f in fields(cls) if not f.type.endswith("| None")]
    typed_object(raw, types, required, lambda why, key: ReportError(path, f"{where}: {why}", key))
    values = {
        f.name: float(raw[f.name]) if f.type == "float" else raw.get(f.name) for f in fields(cls)
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ReportError(path, f"{where}: {exc}") from None


# the config keys that fix a report's records, each required: (description, test)
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v)))
_GRID_TYPES = {
    "methods": (f"a list drawn from {', '.join(METHODS)}",
                lambda v: isinstance(v, list) and all(m in METHODS for m in v)),
    **dict.fromkeys(("num_folds", "num_prompts"), ("an integer", is_int)),
    **dict.fromkeys(("seeds", "k_grid", "top_k_grid"), _INTS),
}


def _check_records(records: Sequence[EvalRecord], config: dict, path: str) -> None:
    """Check the records of the report `path` against its `config`, which
    must hold each key of :data:`_GRID_TYPES`, typed: they must be the cells
    of :func:`grid_cells` for each fold, once each and in report order, each
    with one recall per class of an integer ``num_classes`` and a
    balanced_accuracy that is ``np.mean`` of its recalls, exactly."""
    typed_object(config, _GRID_TYPES, _GRID_TYPES,
                 lambda why, key: ReportError(path, f"config: {why}", key))
    # the fold is the last key of the report order, so each cell's folds run together
    columns = sorted(grid_cells(config), key=lambda c: _record_key((c[0], 0, *c[1:])))
    folds = range(config["num_folds"])
    cells = ((method, fold, *rest) for method, *rest in columns for fold in folds)
    num_classes = config.get("num_classes")

    def fail(i: int, key: str, held: str, wanted: str):
        raise ReportError(path, f"records[{i}]: key {key!r} holds {held}, not {wanted}", key)

    for i, (r, cell) in enumerate(zip(records, cells)):
        for key, held, wanted in zip(_AXES, _axes(r), cell):
            if held != wanted:
                fail(i, key, json.dumps(held), json.dumps(wanted))
        count = len(r.per_class_recalls)
        if is_int(num_classes) and count != num_classes:
            fail(i, "per_class_recalls", f"{count} recalls",
                 f"one per class of num_classes {num_classes}")
        mean = float(np.mean(r.per_class_recalls))  # column_balanced_accuracies' bytes
        if r.balanced_accuracy != mean:
            fail(i, "balanced_accuracy", repr(r.balanced_accuracy),
                 f"{mean!r}, the mean of its per_class_recalls")
    n = len(columns) * len(folds)
    if len(records) != n:  # the zip stopped at the shorter one
        i = min(len(records), n)
        extra = i < len(records)
        axes = json.dumps(dict(zip(_AXES, _axes(records[i]) if extra else next(cells))))
        what = "extra in" if extra else "missing from"
        raise ReportError(path, f"records[{i}] is {what} a grid of {n} records: {axes}", "records")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats.

    Byte-stable across runs; floats round-trip exactly at 17 digits.
    """
    if type(obj) is float:
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} in report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return canonical_json(float(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, Mapping):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON requires string keys")
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


# an EvalRecord's keys in the sorted order canonical_json writes them, and the
# one format string that writes a record with its values in that order
_RECORD_KEYS = (
    "balanced_accuracy", "fold", "k", "method", "per_class_recalls", "prompt", "seed", "top_k"
)
_RECORD_JSON = "{{" + ",".join(f'"{key}":{{}}' for key in _RECORD_KEYS) + "}}"


def _axis_json(value: int | None) -> str:
    return "null" if value is None else str(int(value))


def _record_json(r: EvalRecord, quoted: dict[str, str]) -> str:
    """`r` as canonical_json writes its field dict; `quoted` memoizes the
    JSON string of each method name."""
    floats = (float(r.balanced_accuracy), *r.per_class_recalls)
    if not all(map(math.isfinite, floats)):
        bad = next(x for x in floats if not math.isfinite(x))
        raise ValueError(f"non-finite float {bad} in report")
    method = quoted.get(r.method)
    if method is None:
        method = quoted[r.method] = json.dumps(r.method, ensure_ascii=False)
    accuracy, *recalls = (format(x, ".17g") for x in floats)
    return _RECORD_JSON.format(
        accuracy,
        _axis_json(r.fold),
        _axis_json(r.k),
        method,
        "[" + ",".join(recalls) + "]",
        _axis_json(r.prompt),
        _axis_json(r.seed),
        _axis_json(r.top_k),
    )


def _opt(v):
    return -1 if v is None else v


_AXES = ("method", "fold", "seed", "k", "top_k", "prompt")
_axes = attrgetter(*_AXES)  # a record's axes, as a tuple


def _record_key(axes: tuple) -> tuple:  # the report order of a record's _AXES
    method, fold, seed, k, top_k, prompt = axes
    return (method, _opt(k), _opt(top_k), _opt(prompt), _opt(seed), fold)


def grid_cells(config: Mapping) -> list[tuple]:
    """The ``(method, seed, k, top_k, prompt)`` of each score column of one
    fold of the grid that the config echo `config` describes, in the order
    :func:`run_grid` stacks them: mizero's prompts; then, for each (seed,
    k), one visionshot column per top-K and a simpleshot column; then one
    tipadapter column per (seed, k). The grid's records are these cells
    for each fold."""
    methods = config["methods"]
    prompts = range(config["num_prompts"] if "mizero" in methods else 0)
    draws = [(seed, k) for seed in config["seeds"] for k in config["k_grid"]]
    sets = [("visionshot", kt) for kt in config["top_k_grid"] if "visionshot" in methods]
    sets += [("simpleshot", None)] * ("simpleshot" in methods)
    return [
        *(("mizero", None, None, None, p) for p in prompts),
        *((method, seed, k, kt, None) for seed, k in draws for method, kt in sets),
        *(("tipadapter", seed, k, None, None) for seed, k in draws if "tipadapter" in methods),
    ]


def aggregate_records(records: Sequence[EvalRecord]) -> tuple[Aggregate, ...]:
    """Mean and sample std per (method, k, top_k).

    For few-shot methods the spread axis is the seed: fold results are
    averaged per seed first, then mean/std (ddof=1) run over the per-seed
    means. Zero-shot uses the prompt as the spread axis the same way. A
    single-group std is reported as 0.0.
    """
    groups: dict[tuple, list[EvalRecord]] = {}
    for r in records:
        groups.setdefault((r.method, r.k, r.top_k), []).append(r)
    out = []
    for (method, k, top_k), recs in sorted(
        groups.items(), key=lambda kv: (kv[0][0], _opt(kv[0][1]), _opt(kv[0][2]))
    ):
        axis = "prompt" if method == "mizero" else "seed"
        by_axis: dict[int | None, list[float]] = {}
        for r in recs:
            by_axis.setdefault(getattr(r, axis), []).append(r.balanced_accuracy)
        means = np.array(
            [np.mean(v) for _, v in sorted(by_axis.items(), key=lambda kv: _opt(kv[0]))]
        )
        std = float(np.std(means, ddof=1)) if means.size > 1 else 0.0
        out.append(Aggregate(method, k, top_k, float(means.mean()), std, len(recs)))
    return tuple(out)


# --- grid runner ---------------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    """Everything that defines an evaluation run except the data itself.

    Defaults reproduce the standard protocol: 5 stratified folds, shots
    {2, 4, 8, 16}, patch selection sizes {2, 20, 200, 2000}, five few-shot
    seeds derived from `base_seed` (unless `seeds` is given explicitly).
    A config whose report would not mean what it says raises InvalidConfig
    naming the field first: empty or repeating methods, grids or seeds,
    unknown methods, fewer than 2 folds, no seeds for a few-shot method, a
    non-finite or out-of-range tip_alpha or tip_beta.
    """

    methods: tuple[str, ...] = METHODS
    num_folds: int = 5
    k_grid: tuple[int, ...] = (2, 4, 8, 16)
    top_k_grid: tuple[int, ...] = (2, 20, 200, 2000)
    seeds: tuple[int, ...] | None = None
    num_seeds: int = 5
    base_seed: int = 0
    tip_alpha: float = 1.0
    tip_beta: float = 5.5
    normalize_prototypes: bool = True

    def __post_init__(self):
        for name in ("methods", "k_grid", "top_k_grid"):
            values = getattr(self, name)
            if not values:
                raise InvalidConfig(f"{name} is empty")
            if len(set(values)) != len(values):
                raise InvalidConfig(f"{name} {list(values)} repeats a value")
            if name != "methods" and min(values) < 1:
                raise InvalidConfig(f"{name} {list(values)} holds a value below 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidConfig(f"methods {unknown} unknown; choose from {list(METHODS)}")
        if self.num_folds < 2:
            raise InvalidConfig(f"num_folds must be >= 2, got {self.num_folds}")
        seeds = self.resolved_seeds()
        if len(set(seeds)) != len(seeds):
            raise InvalidConfig(f"seeds {list(seeds)} repeats a value")
        if not seeds and any(m != "mizero" for m in self.methods):
            field = "num_seeds" if self.seeds is None else "seeds"
            raise InvalidConfig(f"{field} gives no seeds for the few-shot methods")
        if not 0 < self.tip_beta < math.inf:
            raise InvalidConfig(f"tip_beta must be finite and > 0, got {self.tip_beta}")
        if not 0 <= self.tip_alpha < math.inf:
            raise InvalidConfig(f"tip_alpha must be finite and >= 0, got {self.tip_alpha}")

    def resolved_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(int(s) for s in self.seeds)
        return tuple(
            derive_seed(self.base_seed, "fewshot-seed", i) for i in range(self.num_seeds)
        )


@contextmanager
def _cell(name: str) -> Iterator[None]:
    """Raise any failure inside the block as a GridCellError naming the cell."""
    try:
        yield
    except Exception as exc:
        raise GridCellError(name, exc) from exc


def _fold_scores(
    queries: np.ndarray,
    rows: np.ndarray,
    keys: np.ndarray | None,
    cells: Sequence[list[int]],
    norms: np.ndarray | None,
    canonical: np.ndarray | None,
    config: GridConfig,
) -> np.ndarray:
    """The ``n x R x C`` scores of one fold's records, from the parts its cells
    built: first the ``(sets, C, d)`` array `rows` (the classifier's
    prompts for mizero, then every cell's prototype rows), scored by one
    row_scores call; then, if `cells` is not empty, each cell's Tip-Adapter
    scores. For those the `queries` are divided in place by their `norms`,
    so they are unit rows once the raw scores are taken; one
    cache_affinity call scores them on the unit `keys` that the fold's
    cells draw, each once, and each cell's one-hot values product on its
    columns of that, taken C-ordered, is added to their `canonical` text
    scores. Each block holds the bytes of its cell scored alone (see
    :func:`~protoshot.adapters.row_scores`)."""
    n, dim = queries.shape
    num_classes = rows.shape[-2]
    scores = [row_scores(queries, rows.reshape(-1, dim)).reshape(n, -1, num_classes)]
    if cells:
        unit = np.divide(queries, norms[:, None], out=queries)  # unit_rows' bytes, in place
        text = row_scores(unit, canonical)
        drawn = np.flatnonzero(np.bincount(np.concatenate(cells)))  # np.unique imports numpy.ma
        affinity = cache_affinity(unit, keys[drawn], config.tip_beta)
        for columns in cells:
            cell = affinity.take(np.searchsorted(drawn, columns), axis=1)
            value = np.eye(num_classes).repeat(len(columns) // num_classes, axis=0)  # class-major
            scores.append(cache_blend(cell, value, config.tip_alpha, text)[:, None])
    return np.concatenate(scores, axis=1)


def run_grid(
    manifest: DatasetManifest,
    bags: Iterable[SlideBag] | Callable[..., Iterable],
    classifier: TextClassifier,
    config: GridConfig = GridConfig(),
) -> EvalReport:
    """Run the full evaluation grid and aggregate the results.

    Protocol per fold: the fold is the test split; for each (seed, k) a
    support set of k slides per class is drawn from the remaining folds and
    shared by every few-shot method, then each method is built on that
    support and scored on the test split with balanced accuracy. Zero-shot
    consumes no support and is scored once per (fold, prompt).

    The fold assignment comes from derive_seed(base_seed, "folds"); each
    support draw from derive_seed(seed, "support", fold, k). Folds, draws
    and the report's config echo depend only on the manifest, the
    classifier's shape and the config, so all of them are made before any
    bag is read, and :func:`grid_cells` of the echo gives the axes of each
    column of a fold's scores, and so of its records. `bags` is then
    consumed in one pass (:func:`~protoshot.simsel.pooled`): it may be any
    one-shot iterable of bags, such as
    :func:`~protoshot.embedstore.iter_bags`, or a reader such as
    :func:`~protoshot.embedstore.iter_pooled`, which pools each slide as it
    reads it and hands over only its rows. A drawn slide's guided pool per
    top-K and full-bag mean fill its column of ``pools``; every slide's
    full-bag mean fills its row of ``table``, fold by fold. For
    Tip-Adapter, each drawn slide's unit cache key is made once, from its
    full-bag mean. The fold phase allocates two buffers once per run: the
    rows of every column but tipadapter's (the classifier's prompts, then
    each cell's prototype rows), and one cell's gather of ``pools``, sized
    by the largest shot count. Each cell writes into them, and each fold
    overwrites the last. A cell checks that its slides' keys have a
    direction, so a zero-mean slide fails in the first cell that draws it.
    Each fold then scores its slice of ``table`` at once
    (:func:`_fold_scores`), each block holding the bytes the per-bag
    functions in ``adapters`` give; predictions are the argmax over
    classes, and :func:`column_balanced_accuracies` counts every record of
    the fold with one bincount. No array grows with folds times seeds: the
    fold arrays grow with seeds times shots, and the keys with the drawn
    slides. Records are sorted canonically, so the report is a pure
    function of the data and the config.

    Raises:
        ClassNamesMismatch: the classifier's class names are not the
            manifest's, in order; checked before anything else.
        GridCellError: a cell failed; the message names it. A draw fails
            before the first bag is read; every other cell that can fail is
            built before its fold is scored, so the cell named is the first
            failing one in fold-major order.
        ZeroVectorRow: visionshot or tipadapter is requested and the
            classifier's canonical vector of that class row is zero (its
            prompts cancel); raised after the draws, before the first bag
            is read.
        DimensionMismatch: a bag's dimension differs from the first bag's,
            or the first bag's differs from the classifier's when any
            method but simpleshot is requested; names the slide.
        ValueError: a bag's label disagrees with the manifest, or a manifest
            slide has no bag.
    """
    classifier.check_classes(manifest.classes)
    num_classes = len(manifest.classes)
    # the one grouping of the manifest by class, each class in manifest order
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    by_class = [[sid for sid in labels if labels[sid] == c] for c in range(num_classes)]
    fold_seed = derive_seed(config.base_seed, "folds")
    assignment = stratified_kfold(labels, config.num_folds, fold_seed)
    seeds = config.resolved_seeds()
    config_echo = {
        "methods": list(config.methods), "num_folds": config.num_folds,
        "k_grid": list(config.k_grid), "top_k_grid": list(config.top_k_grid),
        "seeds": list(seeds), "base_seed": config.base_seed, "fold_seed": fold_seed,
        "tip_alpha": config.tip_alpha, "tip_beta": config.tip_beta,
        "normalize_prototypes": config.normalize_prototypes,
        "num_classes": num_classes, "class_names": list(manifest.classes),
        "num_prompts": classifier.num_prompts, "prng": dict(PRNG_SPEC),
    }
    axes = grid_cells(config_echo)  # the axes of each column of a fold's scores
    fewshot_methods = [m for m in config.methods if m != "mizero"]
    test_ids = [assignment.fold_ids(f) for f in range(config.num_folds)]

    # support[sid]: a drawn slide's column of the pools array; draws[f][seed, k]:
    # the columns of fold f's cell (seed, k), class-major like the draw
    support: dict[str, int] = {}
    draws: list[dict[tuple[int, int], list[int]]] = [{} for _ in test_ids]
    if fewshot_methods:
        for f in range(config.num_folds):
            train = [[sid for sid in ids if assignment.fold_of[sid] != f] for ids in by_class]
            for seed in seeds:
                for k in config.k_grid:
                    with _cell(f"fold={f} seed={seed} k={k}"):
                        draw = sample_few_shot(train, k, derive_seed(seed, "support", f, k))
                    draws[f][seed, k] = [
                        support.setdefault(s, len(support)) for s in draw.support_ids
                    ]
    top_ks = config.top_k_grid if "visionshot" in fewshot_methods else ()
    sets = len(top_ks) + ("simpleshot" in fewshot_methods)  # each cell's prototype sets
    tipadapter = "tipadapter" in fewshot_methods
    # the classifier fails here, before any bag is read, or at the first bag; only
    # visionshot and tipadapter need its canonical vectors, and simpleshot reads
    # nothing of it but its class names
    canonical = classifier.canonical_vectors() if top_ks or tipadapter else None
    reads_text = config.methods != ("simpleshot",)

    # table rows run fold by fold; fold f's test queries are rows bounds[f]:bounds[f+1]
    row_of = {sid: row for row, sid in enumerate(sid for ids in test_ids for sid in ids)}
    bounds = np.cumsum([0] + [len(ids) for ids in test_ids])
    y = np.array([labels[sid] for sid in row_of], dtype=np.int64)

    # what each slide is pooled into: a drawn slide, its guided pool per top-K and
    # then its full-bag mean (a column of `pools`); any other, its full-bag mean
    guided = [PoolRequest(top_ks, vector) for vector in canonical] if top_ks else None
    skipped = PoolRequest(mean=False)

    def request(sid: str, label: int | None) -> PoolRequest:
        if sid not in labels:
            return skipped
        if label != labels[sid]:
            raise ValueError(
                f"slide {sid!r} label {label} disagrees with manifest ({labels[sid]})"
            )
        return guided[label] if guided and sid in support else MEAN

    # the one pass over the slides
    table = pools = None
    seen: set[str] = set()
    for sid, _, slide_rows in pooled(bags, request):
        if sid not in labels:
            continue
        dim = slide_rows.shape[1]
        if table is None:
            if reads_text and dim != classifier.dim:
                raise DimensionMismatch(classifier.dim, dim, sid)
            table = np.empty((len(row_of), dim))
            pools = np.empty((len(top_ks) + 1, len(support), dim))
        elif dim != table.shape[1]:
            raise DimensionMismatch(table.shape[1], dim, sid)
        table[row_of[sid]] = slide_rows[-1]
        seen.add(sid)
        if sid in support:
            pools[:, support[sid]] = slide_rows
    missing = [sid for sid in labels if sid not in seen]
    if missing:
        raise ValueError(f"bags missing for manifest slides: {missing[:5]}")

    records: list[EvalRecord] = []
    dim = table.shape[1]
    prompts = classifier.num_prompts if "mizero" in config.methods else 0
    # the fold phase's buffers, reused by every fold: the prototype rows of every
    # column but tipadapter's, after mizero's prompts, and the prototype pools of one
    # cell, sized by its largest draw
    stack = np.empty((sum(method != "tipadapter" for method, *_ in axes), num_classes, dim))
    if prompts:
        stack[:prompts] = classifier.weights
    keys = None
    if tipadapter:  # one unit cache key per support slide; a zero one is never scored
        key_norms = row_norms(pools[-1])
        keys = np.divide(pools[-1], np.maximum(key_norms, MIN_POOLED_NORM)[:, None])
    gather = np.empty(sets * num_classes * max(config.k_grid) * dim)
    for f in range(config.num_folds):
        queries, truth = table[bounds[f] : bounds[f + 1]], y[bounds[f] : bounds[f + 1]]
        cells = []  # each cell's columns of keys
        # every cell fails here or not at all, in fold-major order; _fold_scores then
        # scores the whole fold at once
        norms = None
        end = prompts  # where the fold's next rows go in stack
        for (seed, k), columns in draws[f].items():
            with _cell(f"fold={f} seed={seed} k={k}"):
                # take, not pools[:, columns], so the gather is C-ordered; "clip", as
                # "raise" buffers `out` and the columns are in range by construction
                cell = gather[: sets * len(columns) * dim].reshape(sets, len(columns), dim)
                pools[:sets].take(columns, axis=1, out=cell, mode="clip")
                # the draw is class-major, so each plane's k slides per class reshape to (C, k)
                planes = cell.reshape(sets, num_classes, k, dim)
                prototype_rows(planes, config.normalize_prototypes, out=stack[end : end + sets])
                end += sets
                if tipadapter:
                    # the keys and the queries are checked for a unit direction inside
                    # this cell, so a zero-mean slide fails only in the cells that need it
                    small = np.flatnonzero(key_norms[columns] < MIN_POOLED_NORM)
                    if small.size:
                        raise ZeroVectorRow(int(small[0]))
                    cells.append(columns)
                    if norms is None:
                        norms = checked_norms(queries, MIN_POOLED_NORM)
        scores = _fold_scores(queries, stack[:end], keys, cells, norms, canonical, config)
        accuracies, recalls = column_balanced_accuracies(scores.argmax(axis=2), truth, num_classes)
        records += (EvalRecord(method, f, seed, k, kt, prompt, accuracy, recall)
                    for (method, seed, k, kt, prompt), accuracy, recall
                    in zip(axes, accuracies.tolist(), recalls.tolist(), strict=True))

    records.sort(key=lambda r: _record_key(_axes(r)))
    return EvalReport(config=config_echo, records=tuple(records))


# --- slide embedding tables ---------------------------------------------------------


def slide_embedding_table(
    bags: Sequence[SlideBag],
    mode: str,
    classifier: TextClassifier | None = None,
    k: int | None = None,
) -> tuple[np.ndarray, list[int], list[str]]:
    """One embedding row per slide.

    mode "bgap" pools every patch; mode "visionshot" pools the top-k patches
    against each slide's own class text vector (so bags must be labeled and
    `classifier` and `k` given).
    """
    if mode not in ("bgap", "visionshot"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "visionshot" and (classifier is None or k is None):
        raise ValueError("visionshot mode needs a classifier and k")
    for bag in bags:
        if bag.label is None:
            raise ValueError(f"slide {bag.slide_id!r} has no label")
    if mode == "bgap":
        rows = [pool_bag(bag, MEAN) for bag in bags]
    else:
        canonical = classifier.canonical_vectors()
        rows = [pool_bag(bag, PoolRequest((k,), canonical[bag.label], mean=False)) for bag in bags]
    return np.concatenate(rows), [bag.label for bag in bags], [bag.slide_id for bag in bags]
