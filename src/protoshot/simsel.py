"""The per-bag reference kernels: similarity scoring, top-K selection and
average pooling, which the tests compare against and ``perfbench``'s
tracer wraps.

No method pools a slide through these: every slide is pooled in
:mod:`~protoshot.embedstore` (:func:`~protoshot.embedstore.pool_rows`, fed
by :func:`~protoshot.embedstore.pooled`), to the bytes of these per-bag
expressions. All reductions run in float64 regardless of the float32
storage precision, and within-bag reductions follow row order so results
never depend on caller-side ordering.
"""

from __future__ import annotations

import numpy as np

from .embedstore import PatchMatrix, float64_blocks, frozen, score_order, subset_mean
from .errors import DimensionMismatch, EmptySubset


def score_against(bag: PatchMatrix, class_vector: np.ndarray) -> np.ndarray:
    """Dot product of every patch row with `class_vector`, in float64.

    For unit-norm inputs this is cosine similarity. The class vector is not
    re-normalized, so the result is linear in it. Each block of rows is
    scored by one unbuffered einsum, not BLAS, so the bytes depend on
    neither the block size nor the BLAS thread count: they are those of
    :func:`~protoshot.adapters.row_scores` on the whole widened bag.

    The bag is widened a block at a time
    (:func:`~protoshot.embedstore.float64_blocks`). Pooling does not call
    this: a pooled bag is scored in its walk, by the same einsum.

    Raises:
        DimensionMismatch: `class_vector` is not as long as a row; expects
            its length, as the other kernels expect the classifier's.
    """
    w = np.asarray(class_vector, dtype=np.float64).reshape(-1)
    if w.shape[0] != bag.dim:
        raise DimensionMismatch(w.shape[0], bag.dim)
    scores = np.empty(bag.rows)
    for start, block in float64_blocks(bag.values):
        np.einsum("nd,d->n", block[1:], w, out=scores[start : start + len(block) - 1])
    return scores


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The read-only int64 indices of the k highest scores; k above the
    score count clamps.

    Ordering is deterministic: score descending, then original index
    ascending (:func:`~protoshot.embedstore.score_order`, the order every
    pooled top-K takes). The selection keeps min(k, len(scores)) indices.

    Raises:
        ValueError: k is below 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    return frozen(score_order(s)[:k], np.int64)


def bgap(bag: PatchMatrix, subset: np.ndarray | None = None) -> np.ndarray:
    """Element-wise mean of the chosen rows (all rows when `subset` is None).

    The pooled vector is returned at float64 precision and is NOT
    re-normalized; normalization is the caller's policy. Subset rows are
    pooled in row order, so the result is independent of the order the
    indices arrive in, and a subset of every row equals the full-bag mean
    bit for bit. The full-bag mean is a writable copy of
    :attr:`PatchMatrix.mean`; a subset is pooled as
    :func:`~protoshot.embedstore.pool_rows` pools one
    (:func:`~protoshot.embedstore.subset_mean`).
    """
    if subset is None:
        return bag.mean.copy()
    idx = np.asarray(subset, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise EmptySubset()
    if ((idx < 0) | (idx >= bag.rows)).any():
        raise IndexError(f"subset indices out of range for {bag.rows} rows")
    return subset_mean(bag.values, np.sort(idx))
