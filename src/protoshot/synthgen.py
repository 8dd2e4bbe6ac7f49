"""Synthetic labeled bags on the unit sphere.

Each class gets an orthonormal direction; each slide mixes "informative"
patches scattered around its class direction with isotropic background
noise, all unit-normalized. This creates exactly the contrast text-guided
patch selection exploits, at desk scale, with no external model or data.

One PCG64 stream drives a whole dataset in a fixed draw order (class
directions, then per slide: patch count, informative block, background
block), so generation is byte-reproducible per seed.

:func:`stream` yields the slides lazily. One background thread draws each
slide into one of two reused float64 buffers while the caller normalizes
the slide before it into its float32 rows (and writes it), so a writer
holds two float64 buffers of the largest slide so far plus the slide being
written. The thread stops when it reads None on its buffer queue, after
finishing any slide whose buffer it holds; :func:`generate` is the list form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .embedstore import (
    DatasetManifest,
    PatchMatrix,
    SlideBag,
    SlideRecord,
    TextClassifier,
    unit_rows,
)
from .errors import InvalidConfig


@dataclass(frozen=True)
class SynthConfig:
    """Shape and difficulty knobs for one generated dataset.

    `informative_fraction` is the share of patches per slide drawn around
    the class direction; `noise_scale` is the Gaussian scale added to the
    direction before re-normalization (0 puts informative patches exactly on
    the direction). Patch counts are drawn uniformly from
    [patches_min, patches_max].
    """

    num_classes: int
    dim: int
    slides_per_class: int
    patches_min: int
    patches_max: int
    informative_fraction: float
    noise_scale: float
    seed: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidConfig(f"need >= 2 classes, got {self.num_classes}")
        if self.dim < 2:
            raise InvalidConfig(f"need dim >= 2, got {self.dim}")
        if self.num_classes > self.dim:
            raise InvalidConfig(
                f"{self.num_classes} classes cannot be orthogonal in dim {self.dim}"
            )
        if self.slides_per_class < 1:
            raise InvalidConfig("need at least one slide per class")
        if not 1 <= self.patches_min <= self.patches_max:
            raise InvalidConfig(
                f"bad patch range [{self.patches_min}, {self.patches_max}]"
            )
        if not 0.0 <= self.informative_fraction <= 1.0:
            raise InvalidConfig(
                f"informative_fraction must be in [0, 1], got {self.informative_fraction}"
            )
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise InvalidConfig(
                f"noise_scale must be finite and >= 0, got {self.noise_scale}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


def _class_directions(rng: np.random.Generator, num_classes: int, dim: int) -> np.ndarray:
    """Orthonormal class directions: a seeded random rotation of the first
    `num_classes` basis vectors (QR with the usual sign fix)."""
    gauss = rng.standard_normal((dim, num_classes))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))[None, :]
    return q.T  # (num_classes, dim)


def _draw_slide(
    rng: np.random.Generator, direction: np.ndarray, rows: np.ndarray, n_info: int,
    noise_scale: float,
) -> None:
    """Draw one slide's float64 rows into `rows`: `n_info` informative rows,
    then background.

    The informative rows are scaled and shifted in place: ``z *= s; z += d``
    holds the same values as ``d + s * z``, since IEEE multiplication and
    addition commute exactly.
    """
    info = rows[:n_info]
    rng.standard_normal(out=info)
    info *= noise_scale
    info += direction
    rng.standard_normal(out=rows[n_info:])


def stream(config: SynthConfig) -> tuple[TextClassifier, Iterator[tuple[SlideRecord, SlideBag]]]:
    """The text classifier and a lazy stream of (record, bag) pairs, one per
    slide.

    The class directions are drawn now. At the first slide asked for, one
    thread starts that owns the generator from then on: it draws each slide
    into one of two float64 buffers, reused and grown only for a larger
    slide, while the caller normalizes the slide before it into fresh
    float32 rows and hands the buffer back. A consumer that writes or
    reduces each slide before asking for the next therefore holds the two
    buffers plus that slide, whatever the corpus size. A draw error is
    raised at its slide. When the stream ends, fails or is closed or
    dropped early, it puts None on the thread's buffer queue and joins the
    thread, which returns on reading it; after an early close the thread
    first finishes the slides whose buffers it took (at most two). Slides
    are laid out class-major, with ids ``class_<c>_<j:03d>``; within each
    slide the informative rows (exactly ceil(informative_fraction * N) of
    them) come first. The classifier's class vectors are the class
    directions themselves, as a single-prompt ensemble.
    """
    rng = np.random.default_rng(config.seed)
    directions = _class_directions(rng, config.num_classes, config.dim)
    class_names = tuple(f"class_{c}" for c in range(config.num_classes))
    classifier = TextClassifier(
        class_names=class_names,
        weights=directions.astype(np.float32)[None, :, :],
    )
    return classifier, _slides(rng, directions, class_names, config)


def _slides(
    rng: np.random.Generator,
    directions: np.ndarray,
    class_names: tuple[str, ...],
    config: SynthConfig,
) -> Iterator[tuple[SlideRecord, SlideBag]]:
    import queue

    order = [(c, j) for c in range(config.num_classes) for j in range(config.slides_per_class)]
    free: queue.SimpleQueue = queue.SimpleQueue()
    ready: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty((0, config.dim)))

    def draw() -> None:
        """Each slide in order into a buffer from `free`, put on `ready` as
        ``(buffer, rows)`` or the error; ends early if `free` gives None."""
        try:
            for c, _ in order:
                buf = free.get()
                if buf is None:
                    return
                n = int(rng.integers(config.patches_min, config.patches_max + 1))
                if len(buf) < n:
                    buf = np.empty((n, config.dim))
                n_info = math.ceil(config.informative_fraction * n)
                _draw_slide(rng, directions[c], buf[:n], n_info, config.noise_scale)
                ready.put((buf, n))
        except Exception as exc:  # the consumer raises it at this slide
            ready.put(exc)

    # a daemon, since exit joins other threads before it closes an open stream
    drawer = threading.Thread(target=draw, name="synthgen-draw", daemon=True)
    drawer.start()
    try:
        for c, j in order:
            drawn = ready.get()
            if isinstance(drawn, Exception):
                raise drawn
            buf, n = drawn
            values = unit_rows(buf[:n], out=np.empty((n, config.dim), dtype=np.float32))
            free.put(buf)
            values.flags.writeable = False
            slide_id = f"{class_names[c]}_{j:03d}"
            record = SlideRecord(
                slide_id=slide_id,
                class_name=class_names[c],
                path=f"{slide_id}.pse",
                num_patches=n,
            )
            yield record, SlideBag(slide_id=slide_id, patches=PatchMatrix(values), label=c)
    finally:
        free.put(None)  # the drawer returns when it takes it
        drawer.join()


def generate(config: SynthConfig) -> tuple[DatasetManifest, list[SlideBag], TextClassifier]:
    """Generate a labeled synthetic corpus and its matching text classifier,
    all in memory: the list form of :func:`stream`."""
    classifier, slides = stream(config)
    pairs = list(slides)
    manifest = DatasetManifest(
        classes=classifier.class_names, slides=tuple(record for record, _ in pairs)
    )
    return manifest, [bag for _, bag in pairs], classifier
