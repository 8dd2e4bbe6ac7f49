"""Similarity scoring, top-K selection, and average pooling kernels.

These are the stateless numerical primitives behind every method in
``adapters``: score each patch against a class vector, keep the K best,
pool a chosen subset into a single slide embedding. A slide is pooled in
one place, :func:`~protoshot.embedstore.pool_rows`, whether a stream reads
it (:func:`~protoshot.embedstore.iter_pooled`) or it is held in memory
(:func:`~protoshot.embedstore.pool_bag`), and :func:`pooled` takes either;
the kernels here are the per-bag expressions those pools match bit for bit.
All reductions run in float64 regardless of the float32 storage precision,
and within-bag reductions follow row order so results never depend on
caller-side ordering.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .embedstore import (
    PatchMatrix,
    PoolRequest,
    SlideBag,
    float64_blocks,
    frozen,
    pool_bag,
    score_order,
    subset_mean,
)
from .errors import DimensionMismatch, EmptySubset


def as_class_vector(
    bag: PatchMatrix, class_vector: np.ndarray, slide_id: str | None = None
) -> np.ndarray:
    """`class_vector` as a flat float64 vector to score `bag` against.

    Raises:
        DimensionMismatch: its length is not the bag's dimension; expects the
            vector's length, as the other kernels expect the classifier's,
            and names `slide_id` when given.
    """
    w = np.asarray(class_vector, dtype=np.float64).reshape(-1)
    if w.shape[0] != bag.dim:
        raise DimensionMismatch(w.shape[0], bag.dim, slide_id)
    return w


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
    """
    w = as_class_vector(bag, class_vector)
    scores = np.empty(bag.rows)
    for start, block in float64_blocks(bag.values):
        np.einsum("nd,d->n", block[1:], w, out=scores[start : start + len(block) - 1])
    return scores


def clamp_k(k: int, count: int) -> int:
    """How many of `count` items a top-k keeps: min(k, count).

    Raises:
        ValueError: k is below 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, count)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The read-only int64 indices of the k highest scores; k above the
    score count clamps.

    Ordering is deterministic: score descending, then original index
    ascending (:func:`~protoshot.embedstore.score_order`, the order every
    pooled top-K takes). The selection keeps :func:`clamp_k` indices.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    return frozen(score_order(s)[: clamp_k(k, s.shape[0])], np.int64)


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


def pooled(
    bags: Iterable[SlideBag] | Callable[..., Iterable[tuple[str, int, np.ndarray]]],
    request: Callable[[str, int | None], PoolRequest],
) -> Iterator[tuple[str, int | None, np.ndarray]]:
    """``(slide_id, label, rows)`` for each slide of `bags`, with the rows
    ``request(slide_id, label)`` asks of it.

    `bags` is an iterable of bags held in memory, each pooled here as it
    arrives (:func:`pool_bag`) after its request is made, or a reader: a
    callable such as :func:`~protoshot.embedstore.iter_pooled` with its
    manifest and path bound (``functools.partial``), called here with
    `request`, so that each slide is pooled as it is read.
    """
    if callable(bags):
        return iter(bags(request))
    return ((bag.slide_id, bag.label, pool_bag(bag, request(bag.slide_id, bag.label)))
            for bag in bags)


def guided_pools(
    bag: SlideBag, class_vector: np.ndarray, top_ks: Sequence[int]
) -> dict[int, np.ndarray]:
    """Top-k text-guided pools of one slide, one per k in `top_ks`.

    Each k pools the first min(k, rows) patches of the bag's score order,
    the :func:`bgap` of ``top_k(score_against(patches, class_vector), k)``.
    A k that covers the bag pools every row, which is the full-bag
    :func:`bgap`; the bag is scored against `class_vector` and argsorted
    once, and only when some k is smaller than the bag. The class vector's
    dimension and k >= 1 are checked either way. This is
    :func:`~protoshot.embedstore.pool_bag` with a request of these top-Ks
    and no full-bag mean.
    """
    ks = tuple(top_ks)
    rows = pool_bag(bag, PoolRequest(ks, class_vector, mean=False))
    return {k: rows[i] for i, k in enumerate(ks)}
