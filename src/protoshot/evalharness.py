"""Evaluation protocol: stratified folds, seeded few-shot draws, metrics,
and the full (method x fold x seed x shots x top-K) grid with aggregation.

Determinism rules. All randomness flows through numpy's PCG64, seeded by
:func:`derive_seed`, a splitmix64 chain over a base seed and purpose tags.
The grid streams the corpus: every support draw is made before any bag is
read, then one pass writes each bag's full-bag mean to a fold-ordered table
(and its text-guided pools, for visionshot support) and releases it, so
each slide is read, scored and pooled at most once per run. Each cell
scores its fold's slice of that table as one matrix. Results are sorted by
a canonical key before serialization.
Reports echo the generator identity, the mixing rule, and every seed so a
run can be reproduced from the report alone.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .adapters import (
    SlidePrediction,
    cache_from_pooled,
    mizero_scores,
    prototype_scores,
    prototypes_from_pooled,
    tip_adapter_scores,
    visionshot_slide_embedding,
)
from .embedstore import DatasetManifest, SlideBag, TextClassifier, _is_int, row_norms
from .errors import (
    ClassAbsent,
    ClassTooSmall,
    DimensionMismatch,
    GridCellError,
    InsufficientSupport,
    InvalidConfig,
    LengthMismatch,
    ProtoshotError,
    ReportError,
    SingleCluster,
    TooFewPoints,
    ZeroVectorRow,
)
from .simsel import bgap, guided_pools

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
    config: dict
    records: tuple[EvalRecord, ...]
    aggregates: tuple[Aggregate, ...]

    def to_json(self) -> str:
        # each dataclass's fields by name: dataclasses.asdict without the deep
        # copy of every value that doubles this method's time
        payload = {
            "config": self.config,
            "records": [{f.name: getattr(r, f.name) for f in fields(r)} for r in self.records],
            "aggregates": [{f.name: getattr(a, f.name) for f in fields(a)} for a in self.aggregates],
        }
        return canonical_json(payload) + "\n"

    def to_csv(self) -> str:
        lines = ["method,fold,seed,k,top_k,balanced_accuracy"]
        for r in self.records:
            axes = ("" if v is None else str(v) for v in (r.fold, r.seed, r.k, r.top_k))
            lines.append(",".join([r.method, *axes, format(r.balanced_accuracy, ".6g")]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text: str | bytes, path: str = "report") -> "EvalReport":
        """Read a report written by :meth:`to_json`. Each record and aggregate
        field must hold the type its dataclass declares, or raise ReportError
        naming `path` and the key; a missing optional field reads as null
        (reports older than ``prompt`` lack it)."""
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise ReportError(path, f"malformed JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ReportError(path, "expected a JSON object")
        for key, kind in (("config", dict), ("records", list), ("aggregates", list)):
            if not isinstance(raw.get(key), kind):
                raise ReportError(path, f"key {key!r} is missing or not a {kind.__name__}", key)
        records, aggregates = (
            tuple(_from_fields(cls, item, path, f"{key}[{i}]") for i, item in enumerate(raw[key]))
            for key, cls in (("records", EvalRecord), ("aggregates", Aggregate))
        )
        return EvalReport(raw["config"], records, aggregates)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# the JSON value each report field annotation admits: (description, test)
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a number", _is_number),
    "tuple[float, ...]": (
        "a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))
    ),
}


def _from_fields(cls, raw, path: str, where: str):
    """The report dataclass `cls` read from `raw`, at `where` in the report `path`."""
    if not isinstance(raw, dict):
        raise ReportError(path, f"{where} is not a JSON object")
    values = {}
    for f in fields(cls):
        expected, holds = _FIELD_TYPES[f.type]
        if f.name not in raw and not f.type.endswith("| None"):
            raise ReportError(path, f"{where} lacks key {f.name!r}", f.name)
        value = raw.get(f.name)
        if not holds(value):
            reason = f"{where} key {f.name!r} holds {value!r}, not {expected}"
            raise ReportError(path, reason, f.name)
        values[f.name] = float(value) if f.type == "float" else value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ReportError(path, f"{where}: {exc}") from None


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats.

    Byte-stable across runs; floats round-trip exactly at 17 digits.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"non-finite float {value} in report")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, Mapping):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON requires string keys")
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _opt(v):
    return -1 if v is None else v


def _record_key(r: EvalRecord):
    return (r.method, _opt(r.k), _opt(r.top_k), _opt(r.prompt), _opt(r.seed), r.fold)


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
        out.append(
            Aggregate(
                method=method,
                k=k,
                top_k=top_k,
                mean=float(means.mean()),
                std=std,
                num_records=len(recs),
            )
        )
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
    unknown methods, fewer than 2 folds, no seeds for a few-shot method.
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
        if not self.tip_beta > 0:
            raise InvalidConfig(f"tip_beta must be > 0, got {self.tip_beta}")
        if not self.tip_alpha >= 0:
            raise InvalidConfig(f"tip_alpha must be >= 0, got {self.tip_alpha}")

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


def _stored(entry):
    """Return a table entry, or raise the failure stored in its place."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def run_grid(
    manifest: DatasetManifest,
    bags: Iterable[SlideBag],
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
    support draw from derive_seed(seed, "support", fold, k). Folds and draws
    depend only on the manifest and the config, so all of them are made
    before any bag is read: the manifest is grouped by class once, and each
    fold's training lists are that grouping without the fold. `bags` is then
    consumed in one pass, so it may be any one-shot iterable such as
    :func:`~protoshot.embedstore.iter_bags`: each bag's full-bag mean is
    written to its row of one float64 table (and visionshot support slides
    keep their :func:`~protoshot.simsel.guided_pools`), and the bag is
    released. The rows run fold by fold, so a fold's test queries are one
    slice of the table. Cells run serially; each takes its per-class support
    as slices of the class-major draw, scores the fold's slice as one
    ``n x C`` matrix with the cores the per-bag functions in ``adapters``
    use, so both give the same numbers, and predicts with ``argmax(axis=1)``.
    Records are sorted canonically, so the report is a pure function of the
    data and the config.

    Raises:
        GridCellError: a cell failed; the message names it. A draw fails
            before the first bag is read; a guided pool that fails during
            the pass fails the first cell that needs it.
        DimensionMismatch: a bag's dimension differs from the first bag's;
            names the slide.
        ValueError: the classifier and the manifest disagree on the class
            count, a bag's label disagrees with the manifest, or a manifest
            slide has no bag.
    """
    num_classes = len(manifest.classes)
    if classifier.num_classes != num_classes:
        raise ValueError(
            f"classifier has {classifier.num_classes} classes, manifest {num_classes}"
        )
    # the one grouping of the manifest by class, each class in manifest order
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    by_class = [[sid for sid in labels if labels[sid] == c] for c in range(num_classes)]
    fold_seed = derive_seed(config.base_seed, "folds")
    assignment = stratified_kfold(labels, config.num_folds, fold_seed)
    seeds = config.resolved_seeds()
    fewshot_methods = [m for m in config.methods if m != "mizero"]
    test_ids = [assignment.fold_ids(f) for f in range(config.num_folds)]

    # draws[f][seed, k]: the support of fold f's few-shot cell (seed, k)
    draws: list[dict[tuple[int, int], FewShotDraw]] = [{} for _ in test_ids]
    if fewshot_methods:
        for f in range(config.num_folds):
            train = [[sid for sid in ids if assignment.fold_of[sid] != f] for ids in by_class]
            for seed in seeds:
                for k in config.k_grid:
                    with _cell(f"fold={f} seed={seed} k={k}"):
                        draws[f][seed, k] = sample_few_shot(
                            train, k, derive_seed(seed, "support", f, k)
                        )
    guided_ids = (
        {sid for fold in draws for draw in fold.values() for sid in draw.support_ids}
        if "visionshot" in fewshot_methods
        else set()
    )
    try:
        class_vectors = classifier.canonical_vectors()
    except ZeroVectorRow as exc:
        class_vectors = exc  # mizero and simpleshot need no canonical vectors

    # table rows run fold by fold; fold f's test queries are rows bounds[f]:bounds[f+1]
    row_of = {sid: row for row, sid in enumerate(sid for ids in test_ids for sid in ids)}
    bounds = np.cumsum([0] + [len(ids) for ids in test_ids])
    y = np.array([labels[sid] for sid in row_of], dtype=np.int64)

    # the one pass over the bags; a failed pool is kept in place of the pool,
    # without the traceback frames that hold the bag
    table: np.ndarray | None = None
    seen: set[str] = set()
    guided: dict[str, dict[int, np.ndarray] | ProtoshotError] = {}
    for bag in bags:
        sid = bag.slide_id
        if sid not in labels:
            continue
        if bag.label != labels[sid]:
            raise ValueError(
                f"slide {sid!r} label {bag.label} disagrees with manifest ({labels[sid]})"
            )
        if table is None:
            table = np.empty((len(row_of), bag.patches.dim))
        elif bag.patches.dim != table.shape[1]:
            raise DimensionMismatch(table.shape[1], bag.patches.dim, sid)
        table[row_of[sid]] = bgap(bag.patches)
        seen.add(sid)
        if sid in guided_ids:
            try:
                guided[sid] = guided_pools(
                    bag, _stored(class_vectors)[bag.label], config.top_k_grid
                )
            except ProtoshotError as exc:
                guided[sid] = exc.with_traceback(None)
    missing = [sid for sid in labels if sid not in seen]
    if missing:
        raise ValueError(f"bags missing for manifest slides: {missing[:5]}")

    records: list[EvalRecord] = []
    for f in range(config.num_folds):
        queries, truth = table[bounds[f] : bounds[f + 1]], y[bounds[f] : bounds[f + 1]]
        # (method, seed, k, top_k, prompt, n x C scores) of every record of the fold
        scored: list[tuple] = []
        if "mizero" in config.methods:
            with _cell(f"method=mizero fold={f}"):
                for prompt in range(classifier.num_prompts):
                    scores = mizero_scores(queries, classifier, prompt)
                    scored.append(("mizero", None, None, None, prompt, scores))
        for (seed, k), draw in draws[f].items():
            with _cell(f"fold={f} seed={seed} k={k}"):
                # the draw is class-major: k slides of class 0, then of class 1, ...
                support = [draw.support_ids[c * k : (c + 1) * k] for c in range(num_classes)]
                # (method, top_k, per-class support pools) of each prototype method
                pools = []
                if "visionshot" in fewshot_methods:
                    for kt in config.top_k_grid:
                        pooled = [[_stored(guided[sid])[kt] for sid in ids] for ids in support]
                        pools.append(("visionshot", kt, pooled))
                if "simpleshot" in fewshot_methods:
                    pooled = [[table[row_of[sid]] for sid in ids] for ids in support]
                    pools.append(("simpleshot", None, pooled))
                for method, kt, pooled in pools:
                    protos = prototypes_from_pooled(
                        pooled, manifest.classes, support, kt, config.normalize_prototypes
                    )
                    scored.append((method, seed, k, kt, None, prototype_scores(queries, protos)))
                if "tipadapter" in fewshot_methods:
                    # the cache and the queries take unit vectors inside this cell, so
                    # a zero-mean slide fails only in the cells that need its direction
                    cache = cache_from_pooled(
                        table[[row_of[sid] for sid in draw.support_ids]],
                        np.repeat(np.arange(num_classes), k),
                        num_classes,
                        config.tip_alpha,
                        config.tip_beta,
                    )
                    scores = tip_adapter_scores(queries, cache, _stored(class_vectors))
                    scored.append(("tipadapter", seed, k, None, None, scores))
        for method, seed, k, kt, prompt, scores in scored:
            accuracy, recalls = balanced_accuracy(scores.argmax(axis=1), truth, num_classes)
            records.append(EvalRecord(method, f, seed, k, kt, prompt, accuracy, recalls))

    records.sort(key=_record_key)
    aggregates = aggregate_records(records)
    config_echo = {
        "methods": list(config.methods),
        "num_folds": config.num_folds,
        "k_grid": list(config.k_grid),
        "top_k_grid": list(config.top_k_grid),
        "seeds": list(seeds),
        "base_seed": config.base_seed,
        "fold_seed": fold_seed,
        "tip_alpha": config.tip_alpha,
        "tip_beta": config.tip_beta,
        "normalize_prototypes": config.normalize_prototypes,
        "num_classes": num_classes,
        "class_names": list(manifest.classes),
        "num_prompts": classifier.num_prompts,
        "prng": dict(PRNG_SPEC),
    }
    return EvalReport(config=config_echo, records=tuple(records), aggregates=aggregates)


# --- slide embedding tables and 2-D projection ----------------------------------------


@dataclass(frozen=True)
class EmbeddingTable:
    slide_ids: tuple[str, ...]
    labels: tuple[int, ...]
    embeddings: np.ndarray
    projection: np.ndarray


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
        rows = [bgap(bag.patches) for bag in bags]
    else:
        canonical = classifier.canonical_vectors()
        rows = [visionshot_slide_embedding(bag, canonical[bag.label], k) for bag in bags]
    return np.stack(rows), [bag.label for bag in bags], [bag.slide_id for bag in bags]


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Project onto the top-2 principal components.

    Covariance eigendecomposition on centered data; each component's sign is
    fixed so its largest-magnitude loading is positive.

    Raises:
        TooFewPoints: fewer than 2 points.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise TooFewPoints(pts.shape[0] if pts.ndim == 2 else 0)
    centered = pts - pts.mean(axis=0)
    cov = (centered.T @ centered) / (pts.shape[0] - 1)
    _, vectors = np.linalg.eigh(cov)
    components = vectors[:, ::-1][:, :2].T  # top-2, largest eigenvalue first
    for i in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    return centered @ components.T


def export_embedding_table(
    bags: Sequence[SlideBag],
    mode: str,
    classifier: TextClassifier | None = None,
    k: int | None = None,
) -> EmbeddingTable:
    """Slide embeddings plus their 2-D projection, ready for plotting."""
    embeddings, labels, ids = slide_embedding_table(bags, mode, classifier, k)
    projection = pca_2d(embeddings)
    return EmbeddingTable(
        slide_ids=tuple(ids),
        labels=tuple(labels),
        embeddings=embeddings,
        projection=projection,
    )


def projection_csv(table: EmbeddingTable) -> str:
    lines = ["slide_id,label,pc1,pc2"]
    for sid, label, (pc1, pc2) in zip(table.slide_ids, table.labels, table.projection):
        lines.append(f"{sid},{label},{format(pc1, '.6g')},{format(pc2, '.6g')}")
    return "\n".join(lines) + "\n"
