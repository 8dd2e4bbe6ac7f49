"""Shared fixtures plus a terminal summary that prints one line per
acceptance criterion."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from protoshot import embedstore

_ACCEPTANCE: dict[str, str] = {}
_NOTES: dict[str, str] = {}


@pytest.fixture
def acceptance_notes():
    """Mutable notes dict; entries show up in the acceptance summary."""
    return _NOTES


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid or "test_criterion" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _ACCEPTANCE[name] = "FAIL"
    elif report.skipped:
        _ACCEPTANCE.setdefault(name, "SKIP")


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        note = _NOTES.get(name)
        suffix = f"  ({note})" if note else ""
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE[name]}{suffix}")


def random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random float32 unit-norm rows."""
    rows = rng.standard_normal((n, dim))
    rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]
    return rows.astype(np.float32)


@contextmanager
def small_blocks(block_bytes: int):
    """Shrink embedstore.BLOCK_BYTES to `block_bytes` inside the with block,
    so that small matrices span many blocks of the float64 walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedstore, "BLOCK_BYTES", block_bytes)
        yield


@pytest.fixture
def unit_rows():
    return random_unit_rows


def write_random_corpus(directory: Path, rng, dim: int, sizes, classes=("a", "b")) -> Path:
    """A corpus of unit-norm bags of the given row counts, classes in turn.
    A bag's rows are drawn from fewer distinct rows, some with the sign of
    their first value flipped, so scores against a class vector whose first
    value is 0 tie between equal and between different rows. Returns the
    manifest path."""
    records, bags = [], []
    for i, n in enumerate(sizes):
        distinct = random_unit_rows(rng, max(1, n - 1), dim)
        rows = distinct[rng.integers(0, len(distinct), n)]
        rows[rng.random(n) < 0.5, 0] *= -1
        records.append(embedstore.SlideRecord(f"s{i}", classes[i % len(classes)], f"s{i}.pse", n))
        matrix = embedstore.PatchMatrix(rows)
        bags.append(embedstore.SlideBag(f"s{i}", matrix, label=i % len(classes)))
    return embedstore.write_dataset(classes, zip(records, bags), directory)
