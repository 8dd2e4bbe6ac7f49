"""Similarity scoring, top-K selection, and average pooling kernels.

These are the stateless numerical primitives behind every method in
``adapters``: score each patch against a class vector, keep the K best,
pool a chosen subset into a single slide embedding; :func:`guided_pools`
chains the three for one slide. All reductions run in float64 regardless
of the float32 storage precision, and within-bag reductions follow row
order so results never depend on caller-side ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedstore import PatchMatrix, SlideBag
from .errors import DimensionMismatch, EmptySubset


@dataclass(frozen=True)
class SelectionResult:
    """Indices of the best-scoring patches, score-descending (ties by index)."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


def as_class_vector(bag: PatchMatrix, class_vector: np.ndarray) -> np.ndarray:
    """`class_vector` as a flat float64 vector to score `bag` against.

    Raises:
        DimensionMismatch: its length is not the bag's dimension.
    """
    w = np.asarray(class_vector, dtype=np.float64).reshape(-1)
    if w.shape[0] != bag.dim:
        raise DimensionMismatch(bag.dim, w.shape[0])
    return w


def score_against(bag: PatchMatrix, class_vector: np.ndarray) -> np.ndarray:
    """Dot product of every patch row with `class_vector`, in float64.

    For unit-norm inputs this is cosine similarity. The class vector is not
    re-normalized, so the result is linear in it.
    """
    return bag.values.astype(np.float64) @ as_class_vector(bag, class_vector)


def clamp_k(k: int, count: int) -> int:
    """How many of `count` items a top-k keeps: min(k, count).

    Raises:
        ValueError: k is below 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, count)


def top_k(scores: np.ndarray, k: int) -> SelectionResult:
    """Select the k highest scores; k above the score count clamps.

    Ordering is deterministic: score descending, then original index
    ascending. The selection keeps :func:`clamp_k` indices.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-s, kind="stable")
    return SelectionResult(order[: clamp_k(k, s.shape[0])])


def bgap(bag: PatchMatrix, subset: np.ndarray | None = None) -> np.ndarray:
    """Element-wise mean of the chosen rows (all rows when `subset` is None).

    The pooled vector is returned at float64 precision and is NOT
    re-normalized; normalization is the caller's policy. Subset rows are
    pooled in row order, so the result is independent of the order the
    indices arrive in, and a subset of every row equals the full-bag mean
    bit for bit. The full-bag mean is a copy of :attr:`PatchMatrix.mean`,
    so it reuses the float64 pass the load-time norm check already made.
    """
    if subset is None:
        return bag.mean.copy()
    idx = np.asarray(subset, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise EmptySubset()
    if ((idx < 0) | (idx >= bag.rows)).any():
        raise IndexError(f"subset indices out of range for {bag.rows} rows")
    return bag.values[np.sort(idx)].astype(np.float64).mean(axis=0)


def guided_pools(
    bag: SlideBag, class_vector: np.ndarray, top_ks: Sequence[int]
) -> dict[int, np.ndarray]:
    """Top-k text-guided pools of one slide, one per k in `top_ks`.

    Each k pools the first min(k, rows) patches of the bag's score order,
    the :func:`bgap` of ``top_k(score_against(patches, class_vector), k)``.
    A k that covers the bag pools every row, which is the full-bag
    :func:`bgap`; the bag is scored against `class_vector` and argsorted
    once, and only when some k is smaller than the bag. The class vector's
    dimension and k >= 1 are checked either way. Ks that clamp to the same
    count share one pool.
    """
    patches = bag.patches
    vector = as_class_vector(patches, class_vector)
    counts = {k: clamp_k(k, patches.rows) for k in top_ks}
    order = None
    if any(n < patches.rows for n in counts.values()):
        order = top_k(score_against(patches, vector), patches.rows).indices
    by_count = {
        n: bgap(patches) if n == patches.rows else bgap(patches, order[:n])
        for n in dict.fromkeys(counts.values())
    }
    return {k: by_count[n] for k, n in counts.items()}
