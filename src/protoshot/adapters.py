"""The four slide-level classification methods.

All of them are training-free and operate purely on precomputed embeddings:

* text-guided prototypes ("visionshot"): score each support slide's patches
  against its own class text vector, pool the top-K, average per class;
* plain prototypes ("simpleshot"): pool every patch of every support slide,
  average per class;
* zero-shot ("mizero"): compare the pooled slide embedding against the text
  classifier directly, one prediction per prompt;
* cache blending ("tipadapter"): blend a key/value cache of support slide
  embeddings with the zero-shot text scores.

Prediction always pools the full bag: at inference time the class is
unknown, so no text-guided patch selection is possible. Every score goes
through the one kernel :func:`row_scores`, for one bag or a whole fold.
Argmax ties resolve to the lowest class index everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .embedstore import (
    MEAN,
    PatchMatrix,
    PoolRequest,
    SlideBag,
    TextClassifier,
    frozen,
    off_unit_row,
    pool_bag,
    pooled,
    read_embeddings_file,
    read_sidecar,
    row_norms,
    sidecar_path,
    unit_rows,
    write_embeddings_file,
    write_sidecar,
)
from .errors import (
    DimensionMismatch,
    EmptyCache,
    EmptyClassSupport,
    PromptIndexOutOfRange,
    SidecarError,
    ZeroVectorRow,
)

_NORM_ATOL = 1e-6
MIN_POOLED_NORM = 1e-12
PROTOTYPE_METHOD = "prototype"  # the method of every predict_prototype prediction


@dataclass(frozen=True)
class PrototypeSet:
    """One prototype vector per class, with provenance of how it was built.

    ``top_k`` is the per-slide patch selection size used during
    construction, or None when every patch was pooled. ``support`` maps each
    class name to the slide ids averaged into its prototype.
    """

    class_names: tuple[str, ...]
    prototypes: np.ndarray
    normalized: bool
    top_k: int | None = None
    support: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(self.class_names)
        arr = frozen(self.prototypes, np.float64)
        if arr.ndim != 2 or arr.shape[0] != len(names):
            raise ValueError(
                f"expected one prototype per class ({len(names)}), got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("prototypes contain NaN or infinity")
        if self.normalized and off_unit_row(row_norms(arr), _NORM_ATOL) is not None:
            raise ValueError("normalized flag set but rows are not unit norm")
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "prototypes", arr)
        object.__setattr__(self, "support", dict(self.support))

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class SlidePrediction:
    slide_id: str
    class_scores: np.ndarray
    predicted: int
    method: str

    def __post_init__(self):
        object.__setattr__(self, "class_scores", frozen(self.class_scores, np.float64))


@dataclass(frozen=True)
class CacheModel:
    """Key/value store of support slide embeddings and one-hot labels.

    ``alpha`` weights the cache term against the zero-shot text term and
    ``beta`` sharpens the affinity kernel.
    """

    keys: np.ndarray
    values: np.ndarray
    alpha: float = 1.0
    beta: float = 5.5

    def __post_init__(self):
        keys = frozen(self.keys, np.float64)
        values = frozen(self.values, np.float64)
        if keys.ndim != 2 or keys.shape[0] == 0:
            raise EmptyCache()
        if values.ndim != 2 or values.shape[0] != keys.shape[0]:
            raise ValueError("values must be an M x C matrix")
        one = values == 1.0
        if not ((values == 0.0) | one).all() or not (one.sum(axis=1) == 1).all():
            raise ValueError("values rows must be one-hot")
        if off_unit_row(row_norms(keys), _NORM_ATOL) is not None:
            raise ValueError("cache keys must be unit norm")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.keys.shape[0]


def row_scores(queries: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dot product of every query row with every weight row: ``n x C``.

    The one scoring kernel, in float64. Row i of the result does not depend
    on the other rows, so a one-row call gives the same bytes as that row of
    an n-row call, provided both pass operands of the same memory layout
    (C-order rows, or the same transposed view): einsum's summation order
    follows the strides, and a different layout can change the last bit.
    """
    return np.einsum("nd,cd->nc", queries, weights)


def visionshot_slide_embedding(bag: SlideBag, class_vector: np.ndarray, k: int) -> np.ndarray:
    """Pool the k patches most similar to `class_vector` into one embedding.

    Meant for support slides, with `class_vector` the text embedding of the
    slide's own class: :func:`~protoshot.embedstore.pool_bag` with a request
    of this one top-K and no full-bag mean, so a k of at least the bag size
    pools the full bag without scoring it.
    """
    return pool_bag(bag, PoolRequest((k,), class_vector, mean=False))[0]


def _support_label(slide_id: str, label: int | None, num_classes: int) -> int:
    """The label of support slide `slide_id`, checked to be one of
    `num_classes`."""
    if label is None:
        raise ValueError(f"support slide {slide_id!r} has no label")
    if label >= num_classes:
        raise ValueError(
            f"support slide {slide_id!r} has label {label}, "
            f"but there are {num_classes} classes"
        )
    return label


def _pool_by_label(
    support: Iterable[SlideBag] | Callable[..., Iterable],
    class_names: Sequence[str],
    requests: Sequence[PoolRequest],
) -> tuple[list[list[np.ndarray]], list[list[str]]]:
    """Pool each support slide as it arrives (:func:`~protoshot.embedstore.pooled`),
    into the first row of ``requests[label]``, once its label is checked, and
    group the pools by label in arrival order; returns the per-class pooled
    embeddings and slide ids."""
    num_classes = len(requests)
    per_class: list[list[np.ndarray]] = [[] for _ in range(num_classes)]
    ids: list[list[str]] = [[] for _ in range(num_classes)]

    def request(slide_id: str, label: int | None) -> PoolRequest:
        return requests[_support_label(slide_id, label, num_classes)]

    for slide_id, label, rows in pooled(support, request):
        per_class[label].append(rows[0])
        ids[label].append(slide_id)
    for c, group in enumerate(ids):
        if not group:
            raise EmptyClassSupport(str(class_names[c]))
    return per_class, ids


def prototype_rows(
    pooled: np.ndarray | Sequence, normalize_prototypes: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Class prototypes ``(..., C, d)``: the mean over the support axis of
    `pooled`, ``(..., C, k, d)`` or C lists when class sizes differ, then unit
    rows if `normalize_prototypes`; ZeroVectorRow names the class row c.

    With `out`, a C-ordered float64 array of the result's shape, the rows
    are written there, to the same bytes, and normalized in place."""
    dense = isinstance(pooled, np.ndarray)
    if dense:
        rows = pooled.mean(axis=-2, out=out)
    else:
        rows = np.stack([np.stack(e).mean(axis=-2) for e in pooled], out=out)
    if not normalize_prototypes:
        return rows
    flat = rows.reshape(-1, rows.shape[-1])  # a view of a C-ordered `out`
    try:
        flat = unit_rows(flat, MIN_POOLED_NORM, out=None if out is None else flat)
    except ZeroVectorRow as exc:
        raise ZeroVectorRow(exc.row % rows.shape[-2]) from None
    return flat.reshape(rows.shape)


def prototypes_from_pooled(
    per_class: list[list[np.ndarray]],
    class_names: Sequence[str],
    support_ids: list[list[str]],
    top_k_used: int | None,
    normalize_prototypes: bool,
) -> PrototypeSet:
    """Average each class's pooled support embeddings into its prototype.

    ``per_class[c]`` holds the pooled embeddings of class c's support
    slides, in the order of ``support_ids[c]``; see :func:`prototype_rows`.
    """
    rows = prototype_rows(per_class, normalize_prototypes)
    support = {str(class_names[c]): tuple(ids) for c, ids in enumerate(support_ids)}
    return PrototypeSet(
        class_names=tuple(str(n) for n in class_names),
        prototypes=rows,
        normalized=normalize_prototypes,
        top_k=top_k_used,
        support=support,
    )


def build_prototypes(
    support: Iterable[SlideBag] | Callable[..., Iterable],
    classifier: TextClassifier,
    k: int,
    normalize_prototypes: bool = True,
) -> PrototypeSet:
    """Build text-guided class prototypes from labeled support slides.

    Each support slide is pooled over the k patches most similar to its own
    class's canonical text vector, and each class prototype is the mean of
    its slides' pooled embeddings (re-normalized by default). `support` is
    iterated once and each slide is pooled as it arrives, so it may be a
    stream such as :func:`~protoshot.embedstore.iter_bags`. It may also be
    a reader (see :func:`~protoshot.embedstore.pooled`), which pools each slide
    as it reads it: one walk scores the bag against its class vector when k
    is below its patch count, and takes its mean only when k covers it.

    Raises:
        ValueError: k < 1, before any slide is consumed.
        EmptyClassSupport: some class has no support slide.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    canonical = classifier.canonical_vectors()
    requests = [PoolRequest((k,), vector, mean=False) for vector in canonical]
    per_class, ids = _pool_by_label(support, classifier.class_names, requests)
    return prototypes_from_pooled(
        per_class, classifier.class_names, ids, k, normalize_prototypes
    )


def simpleshot_prototypes(
    support: Iterable[SlideBag] | Callable[..., Iterable],
    normalize_prototypes: bool = True,
    *,
    num_classes: int | None = None,
    class_names: Sequence[str] | None = None,
) -> PrototypeSet:
    """Build plain class prototypes: full-bag pooling, no text guidance.

    `num_classes` defaults to max(label)+1 and `class_names` to generated
    names; pass both when the corpus knows better. `support` is iterated
    once, pooling each slide as it arrives, unless `num_classes` must be
    inferred from the labels first; it may be a reader (see
    :func:`~protoshot.embedstore.pooled`) when `num_classes` is given.
    """
    if num_classes is None:
        support = list(support)
        labels = [bag.label for bag in support if bag.label is not None]
        num_classes = (max(labels) + 1) if labels else 0
    if class_names is None:
        class_names = [f"class_{c}" for c in range(num_classes)]
    per_class, ids = _pool_by_label(support, class_names, [MEAN] * num_classes)
    return prototypes_from_pooled(per_class, class_names, ids, None, normalize_prototypes)


def prototype_scores(queries: np.ndarray, prototypes: PrototypeSet) -> np.ndarray:
    """Prototype dot products of each row of the ``n x d`` pooled `queries`.

    No re-normalization of the pooled embeddings is needed because positive
    scaling cannot change the argmax.
    """
    if queries.shape[1] != prototypes.dim:
        raise DimensionMismatch(prototypes.dim, queries.shape[1])
    return row_scores(queries, prototypes.prototypes)


def _bag_scores(bag: SlideBag, scores: Callable[..., np.ndarray], *args) -> np.ndarray:
    """``scores(queries, *args)`` of the one full-bag pooled query of `bag`; a
    DimensionMismatch over the bag's own dimension names the slide."""
    try:
        return scores(pool_bag(bag, MEAN), *args)[0]
    except DimensionMismatch as exc:
        if exc.actual != bag.patches.dim:  # the other operands disagree, not the bag
            raise
        raise DimensionMismatch(exc.expected, exc.actual, bag.slide_id) from None


def score_means(
    pooled_means: Iterable[tuple[str, int | None, np.ndarray]], weights: np.ndarray, count: int
) -> tuple[list[str], np.ndarray]:
    """The slide ids of `pooled_means`, ``(slide_id, label, rows)`` whose
    last row is a slide's full-bag mean, and the ``count x C`` scores of
    those means against the C rows of the float64 `weights`, in order.

    Each mean is scored as it arrives, by one :func:`row_scores` call on
    the one-row query, so row i holds the bytes of row i of the n-row call,
    and nothing of size ``count x d`` is kept.

    Raises:
        DimensionMismatch: naming the first slide whose dimension is not the
            weights'.
    """
    dim = weights.shape[1]
    ids: list[str] = []
    scores = np.empty((count, weights.shape[0]))
    for slide_id, _, rows in pooled_means:
        if rows.shape[1] != dim:
            raise DimensionMismatch(dim, rows.shape[1], slide_id)
        scores[len(ids)] = row_scores(rows[-1:], weights)[0]
        ids.append(slide_id)
    return ids, scores


def predict_prototype(bag: SlideBag, prototypes: PrototypeSet) -> SlidePrediction:
    """Nearest-prototype prediction from the full-bag pooled embedding.

    The bag's label is never consulted.
    """
    scores = _bag_scores(bag, prototype_scores, prototypes)
    return SlidePrediction(bag.slide_id, scores, int(np.argmax(scores)), PROTOTYPE_METHOD)


def mizero_scores(
    queries: np.ndarray, classifier: TextClassifier, prompt_index: int = 0
) -> np.ndarray:
    """Zero-shot class scores of the ``n x d`` pooled `queries` under one prompt.

    The per-class score is the mean over patches of the patch-text dot
    product, computed as the pooled embedding dotted with the class vector
    (the two are equal by linearity).
    """
    if not 0 <= prompt_index < classifier.num_prompts:
        raise PromptIndexOutOfRange(prompt_index, classifier.num_prompts)
    if queries.shape[1] != classifier.dim:
        raise DimensionMismatch(classifier.dim, queries.shape[1])
    return row_scores(queries, classifier.weights[prompt_index].astype(np.float64))


def mizero_predict(
    bag: SlideBag, classifier: TextClassifier, prompt_index: int = 0
) -> SlidePrediction:
    """Zero-shot prediction with one prompt's classifier."""
    scores = _bag_scores(bag, mizero_scores, classifier, prompt_index)
    return SlidePrediction(bag.slide_id, scores, int(np.argmax(scores)), "mizero")


def build_cache(
    support: Sequence[SlideBag],
    num_classes: int,
    alpha: float = 1.0,
    beta: float = 5.5,
) -> CacheModel:
    """Cache keys are unit-normalized full-bag embeddings of the support
    slides; values are their one-hot labels.

    Raises:
        ValueError: a support slide has no label, or one outside `num_classes`.
        EmptyCache: `support` is empty.
    """
    labels = [_support_label(bag.slide_id, bag.label, num_classes) for bag in support]
    if not labels:
        raise EmptyCache()
    keys = unit_rows(np.concatenate([pool_bag(bag, MEAN) for bag in support]), MIN_POOLED_NORM)
    return CacheModel(keys=keys, values=np.eye(num_classes)[labels], alpha=alpha, beta=beta)


def tip_adapter_scores(
    queries: np.ndarray, cache: CacheModel, canonical: np.ndarray
) -> np.ndarray:
    """Blend cache affinities with zero-shot text scores, for each row of the
    ``n x d`` pooled `queries`.

    `canonical` holds the classifier's canonical class vectors. With query q
    (a unit-normalized pooled embedding), the score of class c is

        alpha * sum_m exp(-beta * (1 - q . key_m)) * values[m, c]
        + q . canonical[c]

    With alpha = 0 this reduces exactly to the zero-shot text argmax. A
    (nearly) zero query raises ZeroVectorRow naming its row.
    """
    dim = cache.keys.shape[1]
    for other in (queries, canonical):
        if other.shape[1] != dim:
            raise DimensionMismatch(dim, other.shape[1])
    unit = unit_rows(queries, MIN_POOLED_NORM)
    affinity = cache_affinity(unit, cache.keys, cache.beta)
    return cache_blend(affinity, cache.values, cache.alpha, row_scores(unit, canonical))


def cache_affinity(unit: np.ndarray, keys: np.ndarray, beta: float) -> np.ndarray:
    """``exp(-beta * (1 - q . key))`` of every unit query row q against every
    cache key row, ``n x M``; a column block of a call on stacked keys equals
    the call on that block's keys."""
    return np.exp(-beta * (1.0 - row_scores(unit, keys)))


def cache_blend(
    affinity: np.ndarray, values: np.ndarray, alpha: float, text: np.ndarray
) -> np.ndarray:
    """The Tip-Adapter scores ``alpha * affinity @ values + text`` of
    :func:`tip_adapter_scores`, from the ``n x M`` cache affinities, the
    ``M x C`` one-hot values and the ``n x C`` text scores. `affinity` must be
    C-ordered for the bytes of :func:`tip_adapter_scores` (see
    :func:`row_scores`)."""
    return alpha * row_scores(affinity, values.T) + text


def tip_adapter_predict(
    bag: SlideBag, cache: CacheModel, classifier: TextClassifier
) -> SlidePrediction:
    """Tip-Adapter prediction from the full-bag pooled embedding; see
    :func:`tip_adapter_scores`."""
    canonical = classifier.canonical_vectors()
    scores = _bag_scores(bag, tip_adapter_scores, cache, canonical)
    return SlidePrediction(bag.slide_id, scores, int(np.argmax(scores)), "tipadapter")


# --- persistence ------------------------------------------------------------------


def write_prototypes(prototypes: PrototypeSet, path: str | Path) -> None:
    """Persist prototypes as embedding binary (C rows, float32) + JSON sidecar."""
    path = Path(path)
    write_embeddings_file(PatchMatrix(prototypes.prototypes.astype(np.float32)), path)
    sidecar = {
        "class_names": list(prototypes.class_names),
        "top_k": prototypes.top_k,
        "normalized": prototypes.normalized,
        "support": {name: list(ids) for name, ids in prototypes.support.items()},
    }
    write_sidecar(path, sidecar)


def read_prototypes(path: str | Path) -> PrototypeSet:
    """Read a prototype set written by :func:`write_prototypes`.

    Raises:
        MissingFile, SidecarError: from
            :func:`~protoshot.embedstore.read_sidecar`, and SidecarError when
            its class names repeat one or do not match the file's rows, or
            its top_k is below 1;
        ZeroVectorRow: a row marked normalized is zero; names the file;
        everything :func:`~protoshot.embedstore.read_embeddings_file` raises.
    """
    sidecar = read_sidecar(path, ("class_names",))
    where = str(sidecar_path(path))
    names = tuple(sidecar["class_names"])
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise SidecarError(where, f"class name {repeated!r} is listed twice", "class_names")
    top_k = sidecar.get("top_k")
    if top_k is not None and top_k < 1:
        raise SidecarError(where, f"top_k {top_k} is below 1", "top_k")
    matrix = read_embeddings_file(path)
    if matrix.rows != len(names):
        reason = f"lists {len(names)} class names, but the file holds {matrix.rows} rows"
        raise SidecarError(where, reason, "class_names")
    support = {name: tuple(ids) for name, ids in sidecar.get("support", {}).items()}
    rows = matrix.values.astype(np.float64)
    normalized = sidecar.get("normalized", False)
    if normalized:
        try:
            rows = unit_rows(rows)  # float32 storage loosens unit norms; restore them
        except ZeroVectorRow as exc:
            raise ZeroVectorRow(exc.row, str(path)) from None
    return PrototypeSet(
        class_names=names,
        prototypes=rows,
        normalized=normalized,
        top_k=top_k,
        support=support,
    )
