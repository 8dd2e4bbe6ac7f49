"""Core data model, L2 normalization, and the on-disk embedding formats.

A corpus is a set of "slides", each slide a bag of patch feature vectors
produced upstream by some external encoder. Everything downstream operates on
these precomputed vectors; no encoder ever runs here.

Embedding file (binary, little-endian):

    bytes 0-3    magic ``PSE1``
    bytes 4-7    uint32 N, number of rows
    bytes 8-11   uint32 D, embedding dimension
    bytes 12-15  reserved, zero
    then         N*D float32 values, row-major

Manifest (UTF-8 JSON lines): the first line is ``{"classes": [...]}``; each
following line is ``{"slide_id": str, "class": str, "path": str,
"num_patches": int}`` with ``path`` relative to the manifest root and
``num_patches`` at least 1.

Text classifiers reuse the embedding binary with N = prompts * classes rows
(prompt-major) plus a JSON sidecar at ``<path>.json`` carrying
``{"num_classes", "num_prompts", "class_names"}``.

Values are stored at 32-bit precision; all reductions over them (norms,
means, dot products) accumulate in 64-bit. Every whole-bag reduction reads
the bag through :func:`float64_blocks`, which widens about
:data:`BLOCK_BYTES` of rows at a time into one scratch buffer, so widening
a bag never copies all of it: a reduction's bytes are those of the same
expression on the whole widened bag. A stream passes its walks the
scratch it holds; any other walk allocates its own and keeps nothing.

A slide is pooled in one place, :func:`pool_rows`, into what its
:class:`PoolRequest` asks: top-K pools against a class vector, the
full-bag mean, or both, from one walk of the bag (:func:`_walk`), which
yields the row norms and only the mean and the scores that the pools read.
:func:`iter_pooled` streams a corpus through it: each slide's file is
read a block of rows at a time into the float32 part of the stream's one
block buffer and widened there, walked once (the norms serve both the
unit-norm check and the finite check), checked, and pooled, and only its
rows leave the reader. A top-K pool gathers its rows from the block the
walk left widened, or, for a bag of several blocks, from the largest
top-K's rows read back once. So a stream holds about two blocks plus 16
bytes a row of its bag, whatever the bag and corpus size; the buffer is
its own, and goes when the stream does. A stream whose manifest
declares at least :data:`SPLIT_BYTES` of float32 payload, on a host that
gives this process two CPUs and can fork, is pooled in two processes:
after the first slide it forks one worker, which pools slides 16-31,
48-63, ... (every other run of :data:`RUN`) with the same per-slide step,
in its copy of the stream's buffer, and pipes each run back as one
pickle. So the slide's request function runs in the worker for those
slides and must be a pure function of the slide id and label. The stream
yields every slide in manifest order; a slide that fails in the worker is
pooled again by the stream, which raises its error after the same slides
as one process would.
:func:`pool_bag` runs the same walk and pooling on a bag held in memory,
once per call, in scratch of its own.
:func:`iter_bags` yields whole bags instead, each read into a buffer of its
own and walked once, for its load checks, as it is read.

:func:`frozen` adopts every array a model keeps, and :func:`typed_object`
checks every JSON object read: manifest lines, sidecars and reports.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import reprlib
import signal
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadMagic,
    ClassNamesMismatch,
    DimensionMismatch,
    DimensionZero,
    IoFailure,
    ManifestError,
    MissingFile,
    NonFiniteValue,
    PatchCountMismatch,
    ReservedHeaderBytes,
    SidecarError,
    TrailingBytes,
    TruncatedPayload,
    UnknownClass,
    UnnormalizedRow,
    ZeroVectorRow,
)

MAGIC = b"PSE1"
HEADER_SIZE = 16
MANIFEST_NAME = "manifest.jsonl"  # a dataset directory's manifest

# Store-level tolerance on row norms at load; tighter tolerances apply to
# freshly normalized output (1e-6) and idempotence (1e-7 per element).
LOAD_NORM_ATOL = 1e-4
_MIN_ROW_NORM = 1e-8
_READ_CHUNK = 1 << 26
BLOCK_BYTES = 1 << 20  # the float64 rows a whole-bag reduction widens at a time
# A stream whose declared float32 payloads reach SPLIT_BYTES is pooled in two
# processes, in alternating runs of RUN slides (iter_pooled). Forking costs a
# command about 3 ms, which a corpus of this size repays in its reading.
SPLIT_BYTES = 64 << 20
RUN = 16
_Buffer = Callable[[int], np.ndarray]  # given n, a uint8 buffer of at least n bytes


def frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only C-ordered array of `dtype`, the array every
    model keeps: `values` itself if it already is one, else a read-only copy,
    so the caller's own array is never frozen."""
    arr = np.asarray(values)
    if arr.dtype != dtype or not arr.flags.c_contiguous or arr.flags.writeable:
        arr = np.array(arr, dtype=dtype, order="C")
        arr.flags.writeable = False
    return arr


def row_norms(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The L2 norm of every row of the float64 matrix `rows`, written to
    `out` when given."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows, out=out), out=out)


def off_unit_row(norms: np.ndarray, atol: float) -> int | None:
    """The first row whose norm in `norms` is NaN or more than `atol` from 1,
    or None."""
    off = np.abs(norms - 1.0)
    if off.max(initial=0.0) <= atol:  # False when some norm is NaN
        return None
    return int(np.flatnonzero(~(off <= atol))[0])


def _step(d: int) -> int:
    """The rows of a block of :func:`float64_blocks` over rows of `d` values."""
    return max(2, BLOCK_BYTES // (8 * d))


def float64_blocks(
    values: np.ndarray | _Payload, rows: np.ndarray | None = None, buffer: _Buffer | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """The float32 matrix `values`, widened to float64 one block at a time.

    Walks every row of `values`, or its rows `rows` (an int array of row
    indices from 0, else IndexError) in that order, in blocks of
    :data:`BLOCK_BYTES` of float64 (at least two rows), and yields
    ``(start, block)`` for each: ``block[1:]`` holds the walk's rows from
    `start` on, widened, and ``block[0]`` is a spare row for
    :func:`carried_sum`. Every block is a view of one scratch buffer, valid
    until the next step: ``buffer(nbytes)``, which the caller holds (a
    stream's :class:`_GrowOnly`), else an array of the walk's own. Rows are
    gathered, or read from an open file's :class:`_Payload` in order (with
    no `rows`), into a float32 part of it after the blocks, not into a new
    array. For a read bag that part is as long as a block's float64 rows,
    where :func:`pool_rows` gathers a one-block bag's top-K rows.

    A block holds one row only when the whole walk does: a lone last row
    joins the block before it, since einsum reduces the row of a one-row
    matrix of more than 8192 columns in another order than the same row of
    a taller one.
    """
    n = values.shape[0] if rows is None else len(rows)
    d = values.shape[1]
    if rows is not None and n and not 0 <= rows.min() <= rows.max() < values.shape[0]:
        raise IndexError(f"rows out of range for {values.shape[0]} rows")
    step = _step(d)
    height = min(n, step + 1)
    wide = (height + 1) * d
    read = isinstance(values, _Payload)
    # gathered or read rows land after the blocks, two float32 values per float64
    size = wide + (height * d if read else 0 if rows is None else (height * d + 1) // 2)
    scratch = np.empty(size) if buffer is None else buffer(8 * size)[: 8 * size].view(np.float64)
    blocks = scratch[:wide].reshape(height + 1, d)
    gathered = scratch[wide:size].view(np.float32)
    start = 0
    while start < n:
        stop = start + step
        if stop >= n - 1:  # the last block, which a lone last row joins
            stop = n
        block = blocks[: stop - start + 1]
        if rows is None and not read:
            block[1:] = values[start:stop]
        else:
            picked = gathered[: (stop - start) * d].reshape(stop - start, d)
            if read:
                _fill(values, picked)
            else:
                np.take(values, rows[start:stop], axis=0, out=picked, mode="clip")
            block[1:] = picked
        yield start, block
        start = stop


def carried_sum(block: np.ndarray, total: np.ndarray | None) -> np.ndarray:
    """`total`, the row sum of the blocks before `block` (None before the
    first), plus the rows ``block[1:]``, added one row after another.

    `total` is carried in the spare row ``block[0]``, so the rows of a whole
    walk of :func:`float64_blocks` are added in the order, and to the bytes,
    of ``widened.sum(axis=0)`` on all of them at once.
    """
    if total is None:
        return np.add.reduce(block[1:], axis=0)  # what block[1:].sum(axis=0) calls
    block[0] = total
    return np.add.reduce(block, axis=0)


@dataclass(frozen=True)
class PoolRequest:
    """What one slide is pooled into, one float64 row each, in this order:
    for each k of `top_ks`, the mean of the k rows of the bag that score
    highest against the class vector `vector` (every row, which is the
    full-bag mean, when k covers the bag); then, when `mean`, the full-bag
    mean. A reader such as :func:`iter_pooled` takes one per slide from the
    caller that knows how the slide will be pooled.

    Raises:
        ValueError: a k is below 1, or top-K pools are asked without a
            class vector.
    """

    top_ks: tuple[int, ...] = ()
    vector: np.ndarray | None = None
    mean: bool = True

    def __post_init__(self):
        top_ks = tuple(self.top_ks)
        for k in top_ks:
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
        if top_ks and self.vector is None:
            raise ValueError("a top-K pool needs a class vector")
        if self.vector is not None:
            vector = np.asarray(self.vector, dtype=np.float64).reshape(-1)
            object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "top_ks", top_ks)

    def walk_needs(self, rows: int, dim: int) -> tuple[np.ndarray | None, bool]:
        """What the walk of a ``rows x dim`` bag must yield for this request:
        the class vector to score the bag against, None when every k covers
        the bag (or the vector is not `dim` long: :func:`pool_rows` names the
        slide), and whether the full-bag mean is read."""
        if not self.top_ks:
            return None, self.mean
        vector = self.vector
        scored = vector.shape[0] == dim and any(k < rows for k in self.top_ks)
        return (vector if scored else None), self.mean or any(k >= rows for k in self.top_ks)


MEAN = PoolRequest()  # the full-bag mean alone


class _Walk(NamedTuple):
    """What one walk of a bag found; read-only arrays, None where not asked."""

    norms: np.ndarray
    mean: np.ndarray | None
    scores: np.ndarray | None


def _walk(
    values: np.ndarray, vector: np.ndarray | None = None, mean: bool = True,
    buffer: _Buffer | None = None,
) -> _Walk:
    """The one walk of :func:`float64_blocks` over the float32 bag `values`,
    in the scratch of `buffer`.

    Yields its row norms, its row mean when `mean`, and its scores against
    the flat float64 `vector` when one is given. Each has the bytes of its
    expression on one whole float64 copy: :func:`row_norms`,
    ``mean(axis=0)`` and the unbuffered einsum of
    :func:`~protoshot.simsel.score_against`.

    The norms are also the finite check: a row holds NaN or +-inf if and
    only if its float64 norm is not finite, because no float32 square, nor
    any sum of 2**32 of them, overflows float64.

    Raises:
        NonFiniteValue: naming the first row that holds NaN or +-inf, before
            its block is summed or scored, so no inf - inf is computed.
    """
    n = values.shape[0]
    norms = np.empty(n)
    scores = None if vector is None else np.empty(n)
    total = None
    for start, block in float64_blocks(values, buffer=buffer):
        stop = start + len(block) - 1
        part = row_norms(block[1:], out=norms[start:stop])
        # norms are at least 0 and far below overflow, so their sum is finite iff each is
        if not math.isfinite(np.add.reduce(part)):
            raise NonFiniteValue(start + int(np.flatnonzero(~np.isfinite(part))[0]))
        if mean:
            total = carried_sum(block, total)
        if scores is not None:
            np.einsum("nd,d->n", block[1:], vector, out=scores[start:stop])
    if total is not None:
        np.divide(total, n, out=total)
    for result in (norms, total, scores):
        if result is not None:
            result.setflags(write=False)
    return _Walk(norms, total, scores)


def subset_mean(values: np.ndarray, rows: np.ndarray, buffer: _Buffer | None = None) -> np.ndarray:
    """The float64 mean of the rows `rows` (ascending int64 indices) of the
    float32 matrix `values`, gathered and widened a block at a time in the
    scratch of `buffer` (:func:`float64_blocks`) and summed in row order
    (:func:`carried_sum`)."""
    total = None
    for _, block in float64_blocks(values, rows, buffer):
        total = carried_sum(block, total)
    return total / rows.size


def score_order(scores: np.ndarray) -> np.ndarray:
    """The indices of the 1-D float64 `scores` from the highest score down,
    equal scores in index order: the one top-K order, a stable argsort of
    the negated scores."""
    return np.argsort(-scores, kind="stable")


def _subsets(
    values: np.ndarray | _Payload, top: np.ndarray, slide_id: str | None, buffer: _Buffer | None
) -> Callable:
    """The subset mean of :func:`pool_rows` for the bag `values`, whose
    largest pool below its size takes the rows `top` (ascending), each
    subset taken from `top`: from `values` held in memory; from the rows
    of a one-block file payload its walk left widened in `buffer`; or from
    the rows `top` of a longer payload, read back once and checked as the
    walk checks them, so a file that changed under the stream fails here
    naming it."""
    if not isinstance(values, _Payload):
        return lambda rows: subset_mean(values, rows, buffer)
    n, d = values.shape
    if n <= _step(d) + 1:  # the walk's one widened block, and the rows after it
        scratch = buffer(0).view(np.float64)
        widened, spare = scratch[d : (n + 1) * d].reshape(n, d), scratch[(n + 1) * d :]
        # subset_mean's one block, without a second widening
        return lambda rows: np.add.reduce(widened.take(
            rows, axis=0, out=spare[: rows.size * d].reshape(-1, d), mode="clip"), axis=0) / rows.size
    kept = np.empty((top.size, d), np.float32)
    cuts = (np.flatnonzero(np.diff(top) != 1) + 1).tolist()
    for start, stop in zip([0, *cuts], [*cuts, top.size]):  # each run of adjacent rows
        values.file.seek(HEADER_SIZE + 4 * d * int(top[start]))
        _fill(values, kept[start:stop])
    try:
        norms = _walk(kept, mean=False, buffer=buffer).norms
    except NonFiniteValue as exc:
        raise NonFiniteValue(int(top[exc.row]), values.path) from None
    row = off_unit_row(norms, LOAD_NORM_ATOL)
    if row is not None:
        raise UnnormalizedRow(slide_id, int(top[row]), float(norms[row]), values.path)
    return lambda rows: subset_mean(kept, np.searchsorted(top, rows), buffer)


def pool_rows(
    values: np.ndarray | _Payload, request: PoolRequest, walked: _Walk,
    slide_id: str | None = None, buffer: _Buffer | None = None,
) -> np.ndarray:
    """The rows `request` asks of the float32 bag `values`, as one new float64
    ``(len(top_ks) + mean, D)`` array, from `walked`, the bag's walk (in
    `buffer`) with the mean and scores :meth:`PoolRequest.walk_needs` says.

    The one place a slide is pooled, for a stream (:func:`iter_pooled`),
    which passes the open file's :class:`_Payload`, and for a bag in memory
    (:func:`pool_bag`). A k below the bag size pools the first k rows of
    :func:`score_order`, taken in row order (:func:`_subsets`); a k that
    covers the bag pools the full-bag mean; ks that clamp to the same count
    share one pool.

    Raises:
        DimensionMismatch: the class vector is not as long as a row; expects
            the vector's length and names `slide_id`.
        NonFiniteValue, UnnormalizedRow, TruncatedPayload: a payload's rows
            read back for a top-K fail the walk's checks; name the file.
    """
    n, d = values.shape
    vector = request.vector
    if vector is not None and vector.shape[0] != d:
        raise DimensionMismatch(vector.shape[0], d, slide_id)
    rows = np.empty((len(request.top_ks) + request.mean, d))
    counts = [min(k, n) for k in request.top_ks]
    if walked.scores is not None:  # some count is below n
        order = score_order(walked.scores)
        top = np.sort(order[: max(count for count in counts if count < n)])
        subset = _subsets(values, top, slide_id, buffer)
    first: dict[int, int] = {}  # the row of each count's pool
    for i, count in enumerate(counts):
        if count in first:
            rows[i] = rows[first[count]]
        else:
            first[count] = i
            rows[i] = walked.mean if count == n else subset(np.sort(order[:count]))
    if request.mean:
        rows[-1] = walked.mean
    return rows


def pool_bag(bag: SlideBag, request: PoolRequest) -> np.ndarray:
    """The rows `request` asks of the bag `bag` held in memory, with the
    bytes a stream gives for the same slide: the steps of
    :func:`iter_pooled` after its read and load checks, one :func:`_walk`
    (scoring the bag only when some top-K is below its size) and
    :func:`pool_rows`. Each walk widens into scratch of its own, so a call
    keeps nothing but its rows and shares no buffer with another thread.

    Raises:
        DimensionMismatch: the request's class vector is not as long as a
            row; names the slide.
    """
    values = bag.patches.values
    vector, mean = request.walk_needs(*values.shape)
    return pool_rows(values, request, _walk(values, vector, mean), bag.slide_id)


@dataclass(frozen=True)
class PatchMatrix:
    """N x D matrix of 32-bit patch feature vectors, one row per patch.

    Rows are expected to be unit-norm in regular use (stores check this at
    load time), but the type itself only rejects non-finite values and
    degenerate shapes so that :func:`normalize` can accept raw input.
    :func:`frozen` adopts `values`: a file's read-only payload is kept as it
    is, and a caller's writable array is copied, never frozen.

    It is checked for non-finite values when built, by the sum of its
    values, which is finite only if every value is, and by the rule of
    :func:`_walk` when that sum is not (a value that is not finite, or a
    float32 overflow). :meth:`row_norms` and :attr:`mean` each make one walk
    of the values, which holds about :data:`BLOCK_BYTES` of float64, never a
    copy of the whole matrix.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = frozen(self.values, np.float32)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1:
            raise ValueError("a patch matrix needs at least one row")
        if d < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {d}")
        object.__setattr__(self, "values", arr)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(arr, axis=None))
        if not finite:
            _walk(arr, mean=False)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def row_norms(self) -> np.ndarray:
        """Per-row L2 norms, accumulated in float64; read-only."""
        return _walk(self.values, mean=False).norms

    @property
    def mean(self) -> np.ndarray:
        """Element-wise mean of all rows, accumulated in float64 in row
        order; read-only."""
        return _walk(self.values).mean


@dataclass(frozen=True)
class SlideBag:
    """One slide: an identifier, its patch matrix, and an optional label."""

    slide_id: str
    patches: PatchMatrix
    label: int | None = None

    def __post_init__(self):
        if not self.slide_id:
            raise ValueError("slide_id must be nonempty")
        if self.label is not None and self.label < 0:
            raise ValueError(f"label must be a class index >= 0, got {self.label}")


@dataclass(frozen=True)
class TextClassifier:
    """Unit-norm class text embeddings acting as a linear zero-shot classifier.

    `weights` has shape (prompts, classes, dim). Multi-prompt ensembles keep
    one full classifier per prompt; `canonical_vectors` collapses them into a
    single prompt-stable vector per class.
    """

    class_names: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        names = tuple(self.class_names)
        arr = frozen(self.weights, np.float32)
        if arr.ndim != 3:
            raise ValueError(f"expected weights of shape (P, C, D), got {arr.shape}")
        p, c, d = arr.shape
        if p < 1 or c < 2 or d < 2:
            raise ValueError(f"invalid classifier shape (P={p}, C={c}, D={d})")
        if len(names) != c:
            raise ValueError(f"{len(names)} class names for {c} classes")
        norms = row_norms(arr.reshape(p * c, d).astype(np.float64))
        row = off_unit_row(norms, LOAD_NORM_ATOL)
        if row is not None:
            raise UnnormalizedRow(None, row, float(norms[row]))
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "weights", arr)

    @property
    def num_prompts(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.weights.shape[2]

    def check_classes(self, classes: Sequence[str], path: str | None = None) -> None:
        """Check that this classifier's class names are `classes`, in order.

        Raises:
            ClassNamesMismatch: naming the first position where they differ,
                and `path`, the classifier's sidecar, when given.
        """
        names, classes = self.class_names, tuple(classes)
        if names != classes:
            index = next(
                (i for i, (a, b) in enumerate(zip(names, classes)) if a != b),
                min(len(names), len(classes)),
            )
            at = lambda seq: seq[index] if index < len(seq) else None
            raise ClassNamesMismatch(index, at(names), at(classes), path)

    def canonical_vectors(self) -> np.ndarray:
        """One unit vector per class: the re-normalized mean over prompts.

        Returns a float64 (classes, dim) matrix. For a single-prompt
        classifier this is just that prompt's weights.
        """
        return unit_rows(self.weights.astype(np.float64).mean(axis=0))


@dataclass(frozen=True)
class SlideRecord:
    slide_id: str
    class_name: str
    path: str
    num_patches: int


def _check_classes(classes: Sequence[str], fail: Callable) -> None:
    """A manifest's class rule: at least one class, none declared twice. A
    failure raises ``fail(reason, "classes")``."""
    if not classes:
        raise fail("no classes declared", "classes")
    seen: set[str] = set()
    for name in classes:
        if name in seen:
            raise fail(f"class {name!r} declared twice", "classes")
        seen.add(name)


def _check_record(rec: SlideRecord, classes: Sequence[str], seen: set[str], fail: Callable) -> None:
    """A manifest record's rule: a new, non-empty slide_id (added to `seen`)
    of a known class. A failure raises ``fail(reason, key)``."""
    if not rec.slide_id:
        raise fail("empty slide_id", "slide_id")
    if rec.slide_id in seen:
        raise fail(f"duplicate slide_id {rec.slide_id!r}", "slide_id")
    seen.add(rec.slide_id)
    if rec.class_name not in classes:
        raise fail(f"class {rec.class_name!r} is not in the manifest classes", "class")


def _invalid(reason: str, key: str) -> ValueError:
    """The `fail` of a manifest that is not read from a file."""
    return ValueError(f"invalid manifest: {reason}")


def _invalid_record(rec: SlideRecord) -> Callable:
    """The `fail` of a record that is not read from a file: UnknownClass for
    its class, else :func:`_invalid`."""
    return lambda reason, key: (
        UnknownClass(rec.slide_id, rec.class_name) if key == "class" else _invalid(reason, key)
    )


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered corpus census: class names plus one record per slide."""

    classes: tuple[str, ...]
    slides: tuple[SlideRecord, ...]

    def __post_init__(self):
        classes = tuple(self.classes)
        slides = tuple(self.slides)
        _check_classes(classes, _invalid)
        seen: set[str] = set()
        for rec in slides:
            _check_record(rec, classes, seen, _invalid_record(rec))
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "slides", slides)

    def class_index(self, name: str) -> int:
        return self.classes.index(name)


def checked_norms(rows: np.ndarray, min_norm: float = _MIN_ROW_NORM) -> np.ndarray:
    """The L2 norm of every row of the float64 matrix `rows`, each of which
    :func:`unit_rows` divides by.

    Raises:
        ZeroVectorRow: naming the first row whose norm is below `min_norm`.
    """
    norms = row_norms(rows)
    small = np.flatnonzero(norms < min_norm)
    if small.size:
        raise ZeroVectorRow(int(small[0]))
    return norms


def unit_rows(
    rows: np.ndarray, min_norm: float = _MIN_ROW_NORM, out: np.ndarray | None = None
) -> np.ndarray:
    """The float64 matrix `rows` scaled to unit L2 norm, row by row.

    The quotients are taken in float64; with `out` they are written there,
    rounded to its dtype (a float32 `out` holds exactly what
    ``unit_rows(rows).astype(np.float32)`` would), and `out` is returned.
    `out` may be `rows` itself.

    Raises:
        ZeroVectorRow: naming the first row whose norm is below `min_norm`
            (:func:`checked_norms`).
    """
    return np.divide(rows, checked_norms(rows, min_norm)[:, None], out=out)


def normalize(matrix: PatchMatrix) -> PatchMatrix:
    """Divide every row by its L2 norm.

    Norms are computed in float64 and the result is stored back at float32,
    leaving row norms within 1e-6 of 1.0. Row order is preserved and the
    operation is idempotent to within float32 rounding. The values are
    widened once, block by block (:func:`float64_blocks`), straight into
    the float32 result; the bytes are those of :func:`unit_rows` on one
    whole float64 copy.

    Raises:
        ZeroVectorRow: naming the first row, counted from the start of the
            matrix, whose norm is below 1e-8.
    """
    scaled = np.empty(matrix.values.shape, dtype=np.float32)
    for start, block in float64_blocks(matrix.values):
        try:
            unit_rows(block[1:], out=scaled[start : start + len(block) - 1])
        except ZeroVectorRow as exc:
            raise ZeroVectorRow(start + exc.row) from None
    scaled.flags.writeable = False
    return PatchMatrix(scaled)


# --- binary embedding format ---------------------------------------------------


def write_embeddings(matrix: PatchMatrix, sink: BinaryIO) -> int:
    """Write `matrix` to a binary sink; returns bytes written (16 + 4*N*D)."""
    header = struct.pack("<4sIII", MAGIC, matrix.rows, matrix.dim, 0)
    # the C-order array's own buffer (a copy only on a big-endian host)
    payload = np.ascontiguousarray(matrix.values, dtype="<f4")
    try:
        sink.write(header)
        sink.write(payload)
    except OSError as exc:
        raise IoFailure(f"could not write embeddings: {exc}") from exc
    return HEADER_SIZE + payload.nbytes


def _parse_header(header: bytes, path: str | None) -> tuple[int, int]:
    """Validate the first bytes of a file or stream, up to HEADER_SIZE;
    returns the declared (rows, dim)."""
    if len(header) >= 4 and header[:4] != MAGIC:
        raise BadMagic(header[:4], path)
    if len(header) < HEADER_SIZE:
        raise TruncatedPayload(HEADER_SIZE, len(header), path)
    _, n, d, reserved = struct.unpack("<4sIII", header)
    if reserved:
        raise ReservedHeaderBytes(reserved, path)
    if n == 0 or d < 2:
        raise DimensionZero(n, d, path)
    return n, d


def _checked(values: np.ndarray, path: str | None) -> PatchMatrix:
    """The PatchMatrix of a payload read from `path`; NonFiniteValue names it."""
    try:
        return PatchMatrix(values)
    except NonFiniteValue as exc:
        raise NonFiniteValue(exc.row, path) from None


def read_embeddings(source: BinaryIO) -> PatchMatrix:
    """Read one matrix from a binary source positioned at its header.

    Raises:
        BadMagic: the first four bytes are not the format magic.
        TruncatedPayload: header or payload shorter than declared.
        ReservedHeaderBytes: the reserved header field is not zero.
        DimensionZero: header declares zero rows or a dimension below 2.
        NonFiniteValue: payload holds NaN or infinity.
    """
    n, d = _parse_header(source.read(HEADER_SIZE), None)
    # chunked so that memory follows the bytes present, not the header's claim
    expected = 4 * n * d
    chunks = []
    remaining = expected
    while remaining:
        chunk = source.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise TruncatedPayload(expected, expected - remaining, None)
        chunks.append(chunk)
        remaining -= len(chunk)
    payload = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    return _checked(np.frombuffer(payload, dtype="<f4").reshape(n, d), None)


def write_embeddings_file(matrix: PatchMatrix, path: str | Path) -> int:
    path = Path(path)
    try:
        with path.open("wb") as fh:
            return write_embeddings(matrix, fh)
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


class _Payload(NamedTuple):
    """The (N, D) float32 payload of the embedding file `path`, open as
    `file`, read a block of rows at a time (:func:`float64_blocks`)."""

    file: BinaryIO
    path: str
    shape: tuple[int, int]


def _open_payload(path: str) -> _Payload:
    """The payload of the embedding file at `path`, open and positioned at
    its first byte; the caller closes its file.

    The size the header declares is checked against the file's size before
    anything is read, so a hostile header allocates nothing. Raises what
    :func:`read_embeddings_file` raises, except NonFiniteValue.
    """
    try:
        fh = open(path, "rb", buffering=0)
    except OSError:
        # a directory raises too (IsADirectoryError, or PermissionError on Windows)
        if not os.path.isfile(path):
            raise MissingFile(path) from None
        raise
    try:
        n, d = _parse_header(fh.read(HEADER_SIZE), path)
        expected = 4 * n * d
        available = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if available < expected:
            raise TruncatedPayload(expected, available, path)
        if available > expected:
            raise TrailingBytes(expected, available - expected, path)
    except BaseException:
        fh.close()
        raise
    return _Payload(fh, path, (n, d))


def _fill(payload: _Payload, out: np.ndarray) -> None:
    """Read the C-ordered array `out` from the next bytes of `payload`'s file.

    Raises:
        TruncatedPayload: the file ends first, as when it shrank once open.
    """
    raw = out.reshape(-1).view(np.uint8)
    filled = 0
    while filled < raw.size:
        got = payload.file.readinto(raw[filled:])
        if not got:
            n, d = payload.shape
            raise TruncatedPayload(4 * n * d, payload.file.tell() - HEADER_SIZE, payload.path)
        filled += got


def _whole(payload: _Payload) -> np.ndarray:
    """All of `payload`, read into a read-only float32 array of its own."""
    values = np.empty(payload.shape, "<f4")
    _fill(payload, values)
    values.setflags(write=False)
    return values


def _read_file(path: str) -> np.ndarray:
    """The payload of the embedding file at `path`, read whole after the
    checks of :func:`_open_payload`."""
    payload = _open_payload(path)
    with payload.file:
        return _whole(payload)


def read_embeddings_file(path: str | Path) -> PatchMatrix:
    """Read a file holding exactly one matrix, into a buffer of its own.

    The size the header declares is checked against the file's size before
    the payload is read, so a hostile header allocates nothing. Format
    errors name the file.

    Raises:
        MissingFile, plus everything :func:`read_embeddings` raises, and
        TrailingBytes: the file is longer than its header declares.
    """
    where = str(Path(path))
    return _checked(_read_file(where), where)


# --- typed JSON objects --------------------------------------------------------


def is_int(value) -> bool:
    """Whether the decoded JSON `value` is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def typed_object(raw, types: Mapping, required: Collection[str], fail: Callable) -> dict:
    """The JSON object `raw`, with its keys checked against `types`.

    `raw` is JSON text (str or bytes), decoded here, or a value decoded
    already. `types` maps each key it checks to (description, test). In the
    order of `types`, a key of `required` must be present, and a key that is
    present must pass its test; other keys are not checked. A failure raises
    the error ``fail(reason, key)`` builds, with `key` None when `raw` is not
    a JSON object.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            at = (f"line {exc.lineno} " if exc.lineno > 1 else "") + f"column {exc.colno}"
            raise fail(f"malformed JSON: {exc.msg} at {at}", None) from None
        except UnicodeDecodeError as exc:
            raise fail(f"malformed JSON: {exc}", None) from None
    if not isinstance(raw, dict):
        raise fail("expected a JSON object", None)
    for key, (expected, holds) in types.items():
        if key not in raw:
            if key in required:
                raise fail(f"missing key {key!r}", key)
        elif not holds(raw[key]):
            raise fail(f"key {key!r} holds {reprlib.repr(raw[key])}, not {expected}", key)
    return raw


# --- text classifier persistence ---------------------------------------------


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar of the binary file at `path`: ``<path>.json``."""
    path = Path(path)
    return path.with_name(path.name + ".json")


# the type every known sidecar key must hold when present: (description, test)
_SIDECAR_TYPES = {
    "num_classes": ("an integer", is_int),
    "num_prompts": ("an integer", is_int),
    "class_names": ("a list of strings", _is_str_list),
    "support": (
        "an object of string lists",
        lambda v: isinstance(v, dict) and all(_is_str_list(ids) for ids in v.values()),
    ),
    "top_k": ("an integer or null", lambda v: v is None or is_int(v)),
    "normalized": ("a boolean", lambda v: isinstance(v, bool)),
}


def write_sidecar(path: str | Path, obj: dict) -> None:
    """Write `obj` as the JSON sidecar of the binary file at `path`."""
    sidecar_path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def read_sidecar(path: str | Path, required: Sequence[str]) -> dict:
    """Read the JSON sidecar of the binary file at `path`.

    Every known key that is present must hold its type: ``num_classes`` and
    ``num_prompts`` an integer, ``class_names`` a list of strings,
    ``support`` an object of string lists, ``top_k`` an integer or null and
    ``normalized`` a boolean.

    Raises:
        MissingFile: there is no sidecar.
        SidecarError: the sidecar is not a JSON object, lacks one of the
            `required` keys or holds a value of the wrong type; names the
            sidecar file (and the key).
    """
    where = sidecar_path(path)
    if not where.is_file():
        raise MissingFile(str(where))
    return typed_object(
        where.read_bytes(), _SIDECAR_TYPES, required,
        lambda reason, key: SidecarError(str(where), reason, key),
    )


def write_text_classifier(classifier: TextClassifier, path: str | Path) -> None:
    """Persist a classifier as embedding binary (prompt-major rows) + sidecar."""
    path = Path(path)
    p, c, d = classifier.weights.shape
    flat = PatchMatrix(classifier.weights.reshape(p * c, d))
    write_embeddings_file(flat, path)
    write_sidecar(
        path,
        {"num_classes": c, "num_prompts": p, "class_names": list(classifier.class_names)},
    )


def read_text_classifier(path: str | Path) -> TextClassifier:
    """Read a classifier written by :func:`write_text_classifier`.

    Raises:
        MissingFile, SidecarError: from :func:`read_sidecar`, and
            SidecarError when the sidecar's counts disagree with each other
            or with the file's rows;
        UnnormalizedRow: naming the file;
        everything :func:`read_embeddings_file` raises.
    """
    sidecar = read_sidecar(path, ("num_classes", "num_prompts", "class_names"))
    num_classes, num_prompts = sidecar["num_classes"], sidecar["num_prompts"]
    names = tuple(sidecar["class_names"])
    where = str(sidecar_path(path))
    if len(names) != num_classes:
        reason = f"{len(names)} class names for {num_classes} classes"
        raise SidecarError(where, reason, "class_names")
    flat = read_embeddings_file(path)
    if flat.rows != num_prompts * num_classes:
        counts = f"{num_prompts} prompts x {num_classes} classes"
        raise SidecarError(where, f"declares {counts}, but the file holds {flat.rows} rows")
    try:
        return TextClassifier(names, flat.values.reshape(num_prompts, num_classes, flat.dim))
    except UnnormalizedRow as exc:
        raise UnnormalizedRow(None, exc.row, exc.norm, str(path)) from None
    except ValueError as exc:  # fewer than 2 classes
        raise SidecarError(where, str(exc), "num_classes") from None


# --- manifest ingestion ---------------------------------------------------------


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    lines = [json.dumps({"classes": list(manifest.classes)})]
    for rec in manifest.slides:
        lines.append(
            json.dumps(
                {
                    "slide_id": rec.slide_id,
                    "class": rec.class_name,
                    "path": rec.path,
                    "num_patches": rec.num_patches,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# the keys and types of a manifest's first line and of its slide lines
_MANIFEST_HEAD_TYPES = {"classes": ("a list of strings", _is_str_list)}
_MANIFEST_SLIDE_TYPES = {
    **{key: ("a string", lambda v: isinstance(v, str)) for key in ("slide_id", "class", "path")},
    "num_patches": ("a positive integer", lambda v: is_int(v) and v > 0),
}


def parse_manifest(path: str | Path) -> DatasetManifest:
    """Parse the JSON-lines manifest without touching embedding files.

    Some things are accepted without a message, by design. A manifest is a
    list of what to read, so none of them changes what is read or how a
    slide is checked:

    - keys beyond the required ones, on the classes line and on slide
      lines, which are ignored, so a manifest may carry its own notes;
    - blank and whitespace-only lines, which still count in line numbers;
    - a slide path with ``..`` or an absolute one, which is read as given
      (a relative path is joined to the manifest's directory), so a
      manifest may list slides stored elsewhere;
    - a path that another slide's line also names: that file is read for
      each slide, and its header must match each line's ``num_patches``.

    Raises:
        MissingFile: no manifest at `path`.
        ManifestError: a line is not UTF-8 or not a JSON object, lacks a
            required key or holds it with the wrong type (see the module
            docstring), declares no classes or one twice, or holds an empty
            or repeated slide_id or an undeclared class, or no slide line
            follows the classes line; names the file and the 1-based line
            number (blank lines count). Each rule runs once per line.
        ValueError: the manifest is empty.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    lines = []
    for number, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8: byte {raw[exc.start]:#04x} at column {exc.start + 1}"
            raise ManifestError(str(path), number, reason) from None
        if text.strip():
            lines.append((number, text))
    if not lines:
        raise ValueError(f"manifest {path} is empty")

    def failing(number: int) -> Callable:
        return lambda reason, key: ManifestError(str(path), number, reason, key)

    def fields(number: int, text: str, types: dict) -> dict:
        return typed_object(text, types, types, failing(number))

    head = fields(*lines[0], _MANIFEST_HEAD_TYPES)
    classes = tuple(head["classes"])
    _check_classes(classes, failing(lines[0][0]))
    if len(lines) == 1:
        raise ManifestError(str(path), lines[0][0], "no slide lines follow the classes line")
    records = []
    seen: set[str] = set()
    for number, text in lines[1:]:
        row = fields(number, text, _MANIFEST_SLIDE_TYPES)
        record = SlideRecord(
            slide_id=row["slide_id"],
            class_name=row["class"],
            path=row["path"],
            num_patches=row["num_patches"],
        )
        _check_record(record, classes, seen, failing(number))
        records.append(record)
    # every rule of DatasetManifest has run above, once, naming its line
    manifest = object.__new__(DatasetManifest)
    object.__setattr__(manifest, "classes", classes)
    object.__setattr__(manifest, "slides", tuple(records))
    return manifest


def _checked_walk(
    values: np.ndarray, path: str, record: SlideRecord, renormalize: bool,
    vector: np.ndarray | None, mean: bool, blocks: _Buffer | None = None,
) -> tuple[np.ndarray, _Walk]:
    """The payload `values` of `record`, read from `path`, and its one walk
    (:func:`_walk` with `vector`, `mean` and `blocks`), after every load
    check: the walk's finite check (NonFiniteValue names `path`), the patch
    count, and the unit norm of every row, or, with `renormalize`, the
    construction check of a :class:`PatchMatrix` before the count and the
    walk of the re-normalized rows, which are returned instead, after it."""
    try:
        checked = PatchMatrix(values) if renormalize else _walk(values, vector, mean, blocks)
    except NonFiniteValue as exc:
        raise NonFiniteValue(exc.row, path) from None
    if values.shape[0] != record.num_patches:
        raise PatchCountMismatch(record.slide_id, record.num_patches, values.shape[0])
    if renormalize:
        values = normalize(checked).values
        return values, _walk(values, vector, mean, blocks)
    row = off_unit_row(checked.norms, LOAD_NORM_ATOL)
    if row is not None:
        raise UnnormalizedRow(record.slide_id, row, float(checked.norms[row]))
    return values, checked


def _pool_slide(
    path: str, record: SlideRecord, request: PoolRequest, blocks: _Buffer, renormalize: bool
) -> np.ndarray:
    """The one per-slide step of a stream: walk the bag of `record`, read
    from `path` a block at a time into `blocks`, once with every load check,
    and return only the rows `request` asks of it (:func:`pool_rows`). With
    `renormalize` the bag is read whole, to be re-normalized first."""
    payload = _open_payload(path)
    with payload.file:
        values = _whole(payload) if renormalize else payload
        vector, mean = request.walk_needs(*payload.shape)
        values, walked = _checked_walk(values, path, record, renormalize, vector, mean, blocks)
        return pool_rows(values, request, walked, record.slide_id, blocks)


class _GrowOnly:
    """A stream's `buffer` for :func:`float64_blocks`: one byte buffer,
    `held`, replaced, and freed first, only when too small. Sizes round up
    to 4 KiB pages: glibc's malloc maps fresh pages only for a request above
    every mapping freed so far, and heap pages outlive a stream."""

    held = np.empty(0, np.uint8)  # nothing read yet

    def __call__(self, nbytes: int) -> np.ndarray:
        if self.held.nbytes < nbytes:
            self.held = None
            self.held = np.empty(-(-nbytes // 4096) * 4096, np.uint8)
        return self.held


def _quota_cpus(root: str | Path = "/") -> float:
    """The CPUs that the cgroup CPU quota of this process allows, inf when
    no quota is set or none can be read; files are only read.

    The process's cgroups come from ``proc/self/cgroup`` under `root`. The
    quota of each is read from its directory under ``sys/fs/cgroup`` and
    from each ancestor's, since a parent's quota binds its children too:
    cgroup v2's ``cpu.max`` (``max`` for none) in the unified hierarchy,
    and cgroup v1's ``cpu.cfs_quota_us`` (-1 for none) over
    ``cpu.cfs_period_us`` in the hierarchy whose controllers include
    ``cpu``. The least quota over period is returned."""
    base = Path(root, "sys/fs/cgroup")
    try:
        lines = Path(root, "proc/self/cgroup").read_text().splitlines()
    except OSError:
        return math.inf
    cpus = math.inf
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, cgroup = parts
        if controllers and "cpu" not in controllers.split(","):
            continue
        where = base / controllers  # the v2 hierarchy has no controller list
        files = ("cpu.cfs_quota_us", "cpu.cfs_period_us") if controllers else ("cpu.max",)
        group = Path("/", cgroup)
        for folder in (group, *group.parents):
            try:
                text = " ".join((where / folder.relative_to("/") / f).read_text() for f in files)
                quota, period = (int(word) for word in text.split())
            except (OSError, ValueError):  # no such file, or no quota: "max"
                continue
            if quota > 0 and period > 0:
                cpus = min(cpus, quota / period)
    return cpus


def _splits(slides: Sequence[SlideRecord], dim: int) -> bool:
    """Whether a stream of `slides`, whose first bag has `dim` columns, is
    pooled in two processes: the worker has a run, the payloads the
    manifest declares reach :data:`SPLIT_BYTES`, this process may run on
    two CPUs by its affinity mask and its cgroup CPU quota
    (:func:`_quota_cpus`), and it can fork."""
    return (
        len(slides) > RUN
        and 4 * dim * sum(rec.num_patches for rec in slides) >= SPLIT_BYTES
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and _quota_cpus() >= 2
    )


def _work(pool: Callable, runs: list, out: int, credit: int) -> None:
    """The worker's loop: pool each run of `runs` with `pool`, and write the
    list of what it gave to the pipe `out` as one pickle. The stream sends
    a byte on the pipe `credit` each time it reads a run, and run j waits
    for the byte of run j - 2: the worker is at most one run ahead of the
    run the stream reads next, which it has ready, so the stream seldom
    waits for it. A run that fails at a slide is sent without it and ends
    the loop: the stream pools that slide itself."""
    with open(out, "wb") as sink:
        for j, run in enumerate(runs):
            if j > 1 and not os.read(credit, 1):
                return  # the stream is gone
            done = []
            for rec in run:
                try:
                    done.append(pool(rec))
                except Exception:  # raised again where the stream pools this slide
                    break
            pickle.dump(done, sink, pickle.HIGHEST_PROTOCOL)
            sink.flush()
            if len(done) < len(run):
                return


class _Worker:
    """A forked process that pools a stream's odd runs of :data:`RUN`
    slides (slides ``RUN`` to ``2 * RUN - 1``, ``3 * RUN`` to
    ``4 * RUN - 1``, ...) with the stream's own `pool` (:func:`_work`).

    It inherits the stream's state at the fork, the stream's buffer
    included, and writes its copy of it copy-on-write, so the two
    processes never share a buffer and the fork needs no lock. Its stdout
    and stderr are the null device, and it leaves by ``os._exit``, so it
    never runs its parent's cleanup or flushes its parent's output.
    """

    def __init__(self, pool: Callable, slides: Sequence[SlideRecord]):
        runs = [slides[start : start + RUN] for start in range(RUN, len(slides), 2 * RUN)]
        data_r, data_w = os.pipe()
        credit_r, credit_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (data_r, data_w, credit_r, credit_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(data_r)
                os.close(credit_w)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                _work(pool, runs, data_w, credit_r)
            finally:
                os._exit(0)
        os.close(data_w)
        os.close(credit_r)
        self.pid = pid
        self.data = open(data_r, "rb")
        self.credit = credit_w

    def take(self) -> list:
        """The slides of the worker's next run, as ``(slide_id, label,
        rows)`` in order: fewer than the run holds when the worker stopped
        at a slide that failed, none when it died before sending the run.
        The worker may then pool the run after the one it has ready."""
        try:
            done = pickle.load(self.data)
        except (EOFError, pickle.UnpicklingError):
            return []
        try:
            os.write(self.credit, b"\0")
        except BrokenPipeError:  # it has left: that was its last run, or it died
            pass
        return done

    def stop(self) -> None:
        """Kill and reap the worker, unless it was reaped already, and close
        its pipes."""
        try:
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:  # unreaped, so the pid is still its own
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped elsewhere: SIGCHLD ignored, or a waitpid(-1)
            pass
        finally:
            self.data.close()
            os.close(self.credit)


def iter_pooled(
    manifest: DatasetManifest,
    path: str | Path,
    request: Callable[[str, int], PoolRequest],
    *,
    renormalize: bool = False,
) -> Iterator[tuple[str, int, np.ndarray]]:
    """Read, check and pool the manifest's slides one at a time, in manifest
    order, yielding ``(slide_id, label, rows)`` for each.

    ``request(slide_id, label)`` says what each slide is pooled into, and
    `rows` holds those rows (:class:`PoolRequest`, :func:`pool_rows`). A
    slide is walked once, with the checks of :func:`iter_bags`
    (re-normalized first with `renormalize`, which reads it whole), and no
    array of it outlives its step: each bag is read a block of rows at a
    time into the float32 part of the stream's one block buffer and widened
    there (:func:`float64_blocks`), and a top-K below the bag size gathers
    its rows from the one block the walk left widened, or reads the largest
    K's rows back once. So the stream holds about two blocks, plus ``n x
    16`` bytes of norms and scores and the largest K's rows of a bag of
    ``n`` rows, whatever the bag and corpus size. Nothing is read until the
    first slide is asked for.

    A large corpus is pooled in two processes. After the first slide, when
    the manifest's declared patch counts times that slide's dimension
    times 4 bytes reach :data:`SPLIT_BYTES`, ``os.sched_getaffinity``
    shows at least two CPUs and ``os.fork`` exists, the stream forks one
    worker. The worker pools every other run of :data:`RUN` slides
    (slides 16-31, 48-63, ...) with the same per-slide step and checks,
    into a buffer of its own, and sends each run as one pickle through a
    pipe, at most one run ahead of the stream; this process pools the
    other runs and yields every slide in manifest order, so the rows are
    the bytes of the serial loop. `request` runs in the worker for the
    worker's slides, so it must be a pure function of ``(slide_id, label)``
    that takes no lock another thread may hold. A slide that fails in the
    worker ends the worker's run there: this process pools it and every
    later slide itself, so its error surfaces here, after the same slides,
    as in one process. A fork that fails leaves the stream in one process. Closing
    the stream, or dropping it when its consumer raises, kills and reaps
    the worker. The stream forks only when both the affinity mask and the
    cgroup CPU quota give this process two CPUs (:func:`_splits`).

    The block buffer is the stream's own and goes when the stream ends or
    is closed. A stream that fails empties it, and clears the frames below
    its own in the error's traceback, so an error that is kept holds no
    buffer. Streams in several threads share no buffer.

    Raises:
        what :func:`iter_bags` raises, and DimensionMismatch naming the
        slide whose rows are not as long as its request's class vector, each
        when the slide is reached; what :func:`pool_rows` raises; and what
        `request` raises.
    """
    base = str(Path(path).parent)
    labels = {name: label for label, name in enumerate(manifest.classes)}
    blocks = _GrowOnly()

    def pool(rec: SlideRecord) -> tuple[str, int, np.ndarray]:
        label = labels[rec.class_name]
        wanted = request(rec.slide_id, label)
        where = os.path.join(base, rec.path)
        return rec.slide_id, label, _pool_slide(where, rec, wanted, blocks, renormalize)

    slides = manifest.slides
    if not slides:
        return
    worker = None
    try:
        first = pool(slides[0])
        yield first
        if _splits(slides, first[2].shape[1]):
            try:
                worker = _Worker(pool, slides)
            except OSError:  # no process to be had: every slide is pooled here
                pass
        i = 1
        while i < len(slides):
            if worker is not None and i // RUN % 2:
                done = worker.take()
                if len(done) < min(RUN, len(slides) - i):
                    worker.stop()  # it stopped at a failing slide: pool that one and the rest here
                    worker = None
                i += len(done)
                yield from done
            else:
                yield pool(slides[i])
                i += 1
    except Exception as exc:
        # the frames below this one, in the error's traceback and in that of any error
        # it was raised from, hold views of the block buffer
        below = exc.__traceback__.tb_next
        while exc is not None:
            while below is not None:
                below.tb_frame.clear()
                below = below.tb_next
            exc = exc.__context__
            below = exc and exc.__traceback__
        raise
    finally:
        blocks.held = _GrowOnly.held
        if worker is not None:
            worker.stop()


def iter_bags(
    manifest: DatasetManifest,
    path: str | Path,
    *,
    renormalize: bool = False,
) -> Iterator[SlideBag]:
    """Read and validate the manifest's bags one at a time, in manifest order.

    Nothing is read until the first bag is requested. Labels resolve
    positionally against the manifest's class list. Each file's header
    patch count is cross-checked against the manifest, and each row's unit
    norm is checked to within 1e-4 unless `renormalize` asks for
    re-normalization instead.

    Each bag is read into a buffer of its own, like
    :func:`read_embeddings_file`, and walked once as it is read
    (:func:`float64_blocks`): the walk checks that every value is finite
    and gives the row norms for the unit-norm check, and keeps nothing. A
    re-normalized bag is walked after it is re-normalized. A bag that is
    dropped is freed, and a bag that is held, as by :func:`load_manifest`,
    stays intact. A caller that needs only pooled rows streams them with
    :func:`iter_pooled` instead, which holds no bag.

    Args:
        manifest: the parsed manifest at `path`.
        path: manifest file; slide paths are relative to its directory.
        renormalize: re-normalize rows that fail the unit-norm check rather
            than rejecting them.

    Raises:
        PatchCountMismatch, MissingFile, UnnormalizedRow, and the format
        errors of :func:`read_embeddings_file`, each when the offending bag
        is reached.
    """
    base = str(Path(path).parent)
    for rec in manifest.slides:
        where = os.path.join(base, rec.path)
        values, _ = _checked_walk(
            _read_file(where), where, rec, renormalize, None, False
        )
        yield SlideBag(rec.slide_id, PatchMatrix(values), manifest.class_index(rec.class_name))


def load_manifest(
    path: str | Path, *, renormalize: bool = False
) -> tuple[DatasetManifest, list[SlideBag]]:
    """Load a manifest and every embedding file it references.

    The bags are those of :func:`iter_bags`, all held in memory at once.

    Raises:
        ManifestError, PatchCountMismatch, MissingFile, UnnormalizedRow.
    """
    manifest = parse_manifest(path)
    return manifest, list(iter_bags(manifest, path, renormalize=renormalize))


def write_dataset(
    classes: Sequence[str],
    slides: Iterable[tuple[SlideRecord, SlideBag]],
    out_dir: str | Path,
) -> Path:
    """Write each (record, bag) pair of `slides` (the shape of
    :func:`~protoshot.synthgen.stream`) to its record's path under `out_dir`
    before drawing the next, then the manifest of `classes` and the records
    written; returns the manifest path. A bad record raises before its file
    is written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    seen: set[str] = set()
    for record, bag in slides:
        if bag.slide_id != record.slide_id:
            raise ValueError(f"bag {bag.slide_id!r} paired with record {record.slide_id!r}")
        _check_record(record, classes, seen, _invalid_record(record))
        target = out / record.path
        target.parent.mkdir(parents=True, exist_ok=True)
        write_embeddings_file(bag.patches, target)
        records.append(record)
    manifest_path = out / MANIFEST_NAME
    write_manifest(DatasetManifest(tuple(classes), tuple(records)), manifest_path)
    return manifest_path
