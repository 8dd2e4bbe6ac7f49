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
:data:`BLOCK_BYTES` of rows at a time into one reused buffer, so widening
a bag never copies all of it: a reduction's bytes are those of the same
expression on the whole widened bag, and a bag that fits in one block
costs what one whole copy costs. A :class:`PatchMatrix` makes its one
pass on first use of its row norms or row mean and keeps both, so the
load-time unit-norm check and full-bag pooling share it.

:func:`frozen` adopts every array a model keeps, and :func:`typed_object`
checks every JSON object read: manifest lines, sidecars and reports.
"""

from __future__ import annotations

import json
import os
import reprlib
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadMagic,
    ClassNamesMismatch,
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


def frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only C-ordered array of `dtype`, the array every
    model keeps: `values` itself if it already is one, else a read-only copy,
    so the caller's own array is never frozen."""
    arr = np.asarray(values)
    if arr.dtype != dtype or not arr.flags.c_contiguous or arr.flags.writeable:
        arr = np.array(arr, dtype=dtype, order="C")
        arr.flags.writeable = False
    return arr


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The L2 norm of every row of the float64 matrix `rows`."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def off_unit_row(norms: np.ndarray, atol: float) -> int | None:
    """The first row whose norm in `norms` is NaN or more than `atol` from 1,
    or None."""
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= atol))
    return int(off[0]) if off.size else None


def float64_blocks(
    values: np.ndarray, rows: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """The float32 matrix `values`, widened to float64 one block at a time.

    Walks every row of `values`, or its rows `rows` in that order, in blocks
    of :data:`BLOCK_BYTES` of float64 (at least two rows), and yields
    ``(start, block)`` for each: ``block[1:]`` holds the walk's rows from
    `start` on, widened, and ``block[0]`` is a spare row for
    :func:`carried_sum`. Every block is a view of one buffer, valid until
    the next step; a walk that fits in one block allocates one buffer of
    its own size plus the spare row.

    A block holds one row only when the whole walk does: a lone last row
    joins the block before it, since einsum reduces the row of a one-row
    matrix of more than 8192 columns in another order than the same row of
    a taller one.
    """
    n = values.shape[0] if rows is None else len(rows)
    step = max(2, BLOCK_BYTES // (8 * values.shape[1]))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    buffer = np.empty((min(n, step + 1) + 1, values.shape[1]))
    for start, stop in zip(starts, starts[1:] + [n]):
        block = buffer[: stop - start + 1]
        block[1:] = values[start:stop] if rows is None else values[rows[start:stop]]
        yield start, block


def carried_sum(block: np.ndarray, total: np.ndarray | None) -> np.ndarray:
    """`total`, the row sum of the blocks before `block` (None before the
    first), plus the rows ``block[1:]``, added one row after another.

    `total` is carried in the spare row ``block[0]``, so the rows of a whole
    walk of :func:`float64_blocks` are added in the order, and to the bytes,
    of ``widened.sum(axis=0)`` on all of them at once.
    """
    if total is None:
        return block[1:].sum(axis=0)
    block[0] = total
    return block.sum(axis=0)


def _float64_pass(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row norms (N) and row mean (D) of `values`, both taken in
    one walk of :func:`float64_blocks`: the bytes of :func:`row_norms` and
    ``mean(axis=0)`` on one whole float64 copy, without making it."""
    norms = np.empty(values.shape[0])
    total = None
    for start, block in float64_blocks(values):
        norms[start : start + len(block) - 1] = row_norms(block[1:])
        total = carried_sum(block, total)
    mean = total / values.shape[0]
    norms.flags.writeable = False
    mean.flags.writeable = False
    return norms, mean


@dataclass(frozen=True)
class PatchMatrix:
    """N x D matrix of 32-bit patch feature vectors, one row per patch.

    Rows are expected to be unit-norm in regular use (stores check this at
    load time), but the type itself only rejects non-finite values and
    degenerate shapes so that :func:`normalize` can accept raw input.
    :func:`frozen` adopts `values`: a file's read-only payload is kept as it
    is, and a caller's writable array is copied, never frozen.

    The row norms and the row mean come from one float64 pass over the
    values, made on the first call to :meth:`row_norms` or the first read of
    :attr:`mean` and then kept; a matrix that needs neither never widens.
    The pass widens a block of rows at a time (:func:`float64_blocks`), so
    it holds about :data:`BLOCK_BYTES` of float64, never a copy of the
    whole matrix.
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
        bad_rows = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad_rows.size:
            raise NonFiniteValue(int(bad_rows[0]))
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _float64_stats(self) -> tuple[np.ndarray, np.ndarray]:
        return _float64_pass(self.values)

    def row_norms(self) -> np.ndarray:
        """Per-row L2 norms, accumulated in float64; read-only."""
        return self._float64_stats[0]

    @property
    def mean(self) -> np.ndarray:
        """Element-wise mean of all rows, accumulated in float64 in row
        order; read-only."""
        return self._float64_stats[1]


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


def _check_record(rec: SlideRecord, classes: Sequence[str], seen: set[str]) -> None:
    """A manifest record's rule: a new, non-empty slide_id (added to `seen`) of a known class."""
    if not rec.slide_id:
        raise ValueError("manifest contains an empty slide_id")
    if rec.slide_id in seen:
        raise ValueError(f"duplicate slide_id {rec.slide_id!r} in manifest")
    seen.add(rec.slide_id)
    if rec.class_name not in classes:
        raise UnknownClass(rec.slide_id, rec.class_name)


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered corpus census: class names plus one record per slide."""

    classes: tuple[str, ...]
    slides: tuple[SlideRecord, ...]

    def __post_init__(self):
        classes = tuple(self.classes)
        slides = tuple(self.slides)
        if not classes:
            raise ValueError("manifest declares no classes")
        if len(set(classes)) != len(classes):
            raise ValueError("duplicate class names in manifest")
        seen: set[str] = set()
        for rec in slides:
            _check_record(rec, classes, seen)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "slides", slides)

    def class_index(self, name: str) -> int:
        return self.classes.index(name)


def unit_rows(
    rows: np.ndarray, min_norm: float = _MIN_ROW_NORM, out: np.ndarray | None = None
) -> np.ndarray:
    """The float64 matrix `rows` scaled to unit L2 norm, row by row.

    The quotients are taken in float64; with `out` they are written there,
    rounded to its dtype (a float32 `out` holds exactly what
    ``unit_rows(rows).astype(np.float32)`` would), and `out` is returned.

    Raises:
        ZeroVectorRow: naming the first row whose norm is below `min_norm`.
    """
    norms = row_norms(rows)
    small = np.flatnonzero(norms < min_norm)
    if small.size:
        raise ZeroVectorRow(int(small[0]))
    return np.divide(rows, norms[:, None], out=out)


def normalize(matrix: PatchMatrix) -> PatchMatrix:
    """Divide every row by its L2 norm.

    Norms are computed in float64 and the result is stored back at float32,
    leaving row norms within 1e-6 of 1.0. Row order is preserved and the
    operation is idempotent to within float32 rounding. The values are
    widened once, block by block (:func:`float64_blocks`), straight into
    the float32 result, outside the matrix's cached float64 pass, which is
    left to the result; the bytes are those of :func:`unit_rows` on one
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


def _read_header(source: BinaryIO, path: str | None) -> tuple[int, int]:
    """Read and validate a header; returns the declared (rows, dim)."""
    header = source.read(HEADER_SIZE)
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


def _read_payload(source: BinaryIO, n: int, d: int, path: str | None) -> PatchMatrix:
    # chunked so that memory follows the bytes present, not the header's claim
    expected = 4 * n * d
    chunks = []
    remaining = expected
    while remaining:
        chunk = source.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise TruncatedPayload(expected, expected - remaining, path)
        chunks.append(chunk)
        remaining -= len(chunk)
    payload = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    arr = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    try:
        return PatchMatrix(arr)
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
    n, d = _read_header(source, None)
    return _read_payload(source, n, d, None)


def write_embeddings_file(matrix: PatchMatrix, path: str | Path) -> int:
    path = Path(path)
    try:
        with path.open("wb") as fh:
            return write_embeddings(matrix, fh)
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def read_embeddings_file(path: str | Path) -> PatchMatrix:
    """Read a file holding exactly one matrix.

    The size the header declares is checked against the file's size before
    the payload is read, so a hostile header allocates nothing. Format
    errors name the file.

    Raises:
        MissingFile, plus everything :func:`read_embeddings` raises, and
        TrailingBytes: the file is longer than its header declares.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    where = str(path)
    with path.open("rb") as fh:
        n, d = _read_header(fh, where)
        expected = 4 * n * d
        available = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if available < expected:
            raise TruncatedPayload(expected, available, where)
        if available > expected:
            raise TrailingBytes(expected, available - expected, where)
        return _read_payload(fh, n, d, where)


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

    Raises:
        MissingFile: no manifest at `path`.
        ManifestError: a line is not UTF-8 or not a JSON object, lacks a
            required key or holds it with the wrong type (see the module
            docstring), repeats a slide_id or names an undeclared class;
            names the file and the 1-based line number (blank lines count).
        ValueError: the manifest is empty, declares no classes or repeats
            one, or holds an empty slide_id.
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

    def fields(number: int, text: str, types: dict) -> dict:
        fail = lambda reason, key: ManifestError(str(path), number, reason, key)
        return typed_object(text, types, types, fail)

    head = fields(*lines[0], _MANIFEST_HEAD_TYPES)
    classes = tuple(head["classes"])
    records = []
    seen: set[str] = set()
    for number, text in lines[1:]:
        row = fields(number, text, _MANIFEST_SLIDE_TYPES)
        slide_id, class_name = row["slide_id"], row["class"]
        if slide_id in seen:
            raise ManifestError(str(path), number, f"duplicate slide_id {slide_id!r}")
        seen.add(slide_id)
        if class_name not in classes:
            raise ManifestError(
                str(path), number, f"class {class_name!r} is not in the manifest classes"
            )
        records.append(
            SlideRecord(
                slide_id=slide_id,
                class_name=class_name,
                path=row["path"],
                num_patches=row["num_patches"],
            )
        )
    return DatasetManifest(classes, tuple(records))


def iter_bags(
    manifest: DatasetManifest, path: str | Path, *, renormalize: bool = False
) -> Iterator[SlideBag]:
    """Read and validate the manifest's bags one at a time, in manifest order.

    Nothing is read until the first bag is requested, and the generator
    keeps only the bag it yielded last, so a caller that reduces each bag
    before asking for the next holds about one bag at a time, whatever the
    corpus size. Labels resolve positionally against
    the manifest's class list. Each file's header patch count is
    cross-checked against the manifest, and each row's unit norm is checked
    to within 1e-4 unless `renormalize` asks for re-normalization instead.
    The check makes the bag's one float64 pass, which also leaves its
    full-bag mean in :attr:`PatchMatrix.mean` for pooling.

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
    base = Path(path).parent
    for rec in manifest.slides:
        matrix = read_embeddings_file(base / rec.path)
        if matrix.rows != rec.num_patches:
            raise PatchCountMismatch(rec.slide_id, rec.num_patches, matrix.rows)
        if renormalize:
            matrix = normalize(matrix)
        else:
            norms = matrix.row_norms()
            row = off_unit_row(norms, LOAD_NORM_ATOL)
            if row is not None:
                raise UnnormalizedRow(rec.slide_id, row, float(norms[row]))
        yield SlideBag(
            slide_id=rec.slide_id,
            patches=matrix,
            label=manifest.class_index(rec.class_name),
        )


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
        _check_record(record, classes, seen)
        target = out / record.path
        target.parent.mkdir(parents=True, exist_ok=True)
        write_embeddings_file(bag.patches, target)
        records.append(record)
    manifest_path = out / MANIFEST_NAME
    write_manifest(DatasetManifest(tuple(classes), tuple(records)), manifest_path)
    return manifest_path
