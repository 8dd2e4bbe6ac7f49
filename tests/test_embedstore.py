import io
import json
import math
import os
import signal
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import protoshot.embedstore as embedstore
from protoshot.embedstore import (
    HEADER_SIZE,
    LOAD_NORM_ATOL,
    MAGIC,
    MEAN,
    DatasetManifest,
    PatchMatrix,
    PoolRequest,
    SlideBag,
    SlideRecord,
    TextClassifier,
    float64_blocks,
    iter_bags,
    iter_pooled,
    load_manifest,
    normalize,
    off_unit_row,
    parse_manifest,
    pool_bag,
    read_embeddings,
    read_embeddings_file,
    read_text_classifier,
    row_norms,
    write_dataset,
    write_embeddings,
    write_embeddings_file,
    write_manifest,
    write_text_classifier,
)
from protoshot.errors import (
    BadMagic,
    ClassNamesMismatch,
    DimensionMismatch,
    DimensionZero,
    ManifestError,
    MissingFile,
    NonFiniteValue,
    PatchCountMismatch,
    ProtoshotError,
    ReservedHeaderBytes,
    SidecarError,
    TrailingBytes,
    TruncatedPayload,
    UnknownClass,
    UnnormalizedRow,
    ZeroVectorRow,
)

from protoshot.simsel import bgap, guided_pools, score_against, top_k
from protoshot.synthgen import SynthConfig, generate

from conftest import random_unit_rows, small_blocks, write_random_corpus


def matrix(rows) -> PatchMatrix:
    return PatchMatrix(np.asarray(rows, dtype=np.float32))


class TestPatchMatrix:
    def test_shape_properties(self):
        m = matrix([[1, 0, 0], [0, 1, 0]])
        assert m.rows == 2 and m.dim == 3

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue) as err:
            matrix([[1.0, 2.0], [np.nan, 0.0]])
        assert err.value.row == 1

    def test_rejects_infinity(self):
        with pytest.raises(NonFiniteValue):
            matrix([[np.inf, 0.0]])

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            matrix(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            matrix(np.ones((3, 1)))
        with pytest.raises(ValueError):
            PatchMatrix(np.ones(4, dtype=np.float32))

    def test_values_read_only(self):
        m = matrix([[1, 0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


finite_matrices = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 40), st.integers(2, 12)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
)


def counting_pass(monkeypatch) -> list:
    """Count the walks of a bag; returns the list of matrices they ran on."""
    seen = []
    original = embedstore._walk

    def counted(values, *args, **kwargs):
        seen.append(values)
        return original(values, *args, **kwargs)

    monkeypatch.setattr(embedstore, "_walk", counted)
    return seen


class TestFloat64Pass:
    @settings(max_examples=200, deadline=None)
    @given(values=finite_matrices)
    def test_norms_and_mean_are_the_plain_expressions(self, values):
        m = PatchMatrix(values)
        v = values.astype(np.float64)
        assert m.row_norms().tobytes() == np.sqrt(np.einsum("ij,ij->i", v, v)).tobytes()
        assert m.mean.tobytes() == v.mean(axis=0).tobytes()
        assert m.row_norms().dtype == m.mean.dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(
        values=finite_matrices,
        poison=st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 11),
                      st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_non_finite_names_first_bad_row(self, values, poison):
        values = values.copy()
        for row, col, bad in poison:
            values[row % values.shape[0], col % values.shape[1]] = bad
        expected = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        with pytest.raises(NonFiniteValue) as err:
            PatchMatrix(values)
        assert err.value.row == expected

    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf]]
    )
    def test_non_finite_row_named(self, bad):
        with pytest.raises(NonFiniteValue) as err:
            matrix([[1.0, 0.0], [0.0, 1.0], bad, [np.nan, np.nan]])
        assert err.value.row == 2

    def test_large_finite_rows_accepted(self):
        big = np.float32(3e38)
        rows = [[big, big], [-big, -big], [big, -big], [big, big]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = matrix(rows)
        assert np.isfinite(m.row_norms()).all()

    def test_results_read_only_and_bgap_copies(self):
        m = matrix([[1, 0], [0, 1]])
        assert not m.row_norms().flags.writeable and not m.mean.flags.writeable
        pooled = bgap(m)
        pooled[0] = 7.0
        assert m.mean.tolist() == [0.5, 0.5]

    def test_runs_once_per_matrix(self, monkeypatch):
        """Construction widens nothing, and each pool of a bag in memory is
        one walk, given the class vector only when some top-K is below the
        bag size."""
        walks = []
        original = embedstore._walk

        def counted(values, vector=None, mean=True):
            walks.append(vector is not None)
            return original(values, vector, mean)

        monkeypatch.setattr(embedstore, "_walk", counted)
        bag = SlideBag("s", matrix([[1, 0], [0, 1], [0.6, 0.8]]), 0)
        assert not walks
        w = np.array([0.6, 0.8])
        for request, scored in [
            (MEAN, False),
            (PoolRequest((3,), w), False),
            (PoolRequest((5, 3), w, mean=False), False),
            (PoolRequest((2,), w), True),
            (PoolRequest((3, 1), w, mean=False), True),
        ]:
            walks.clear()
            pool_bag(bag, request)
            assert walks == [scored]

    def test_synth_never_widens(self, monkeypatch):
        seen = counting_pass(monkeypatch)
        generate(SynthConfig(num_classes=2, dim=8, slides_per_class=3, patches_min=5,
                             patches_max=9, informative_fraction=0.3, noise_scale=1.0,
                             seed=3))
        assert not seen


# a float32 matrix, a block size that splits it into many blocks of the float64
# walk (at least two rows each), and rows to zero out
blocked_matrices = st.tuples(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 60), st.integers(2, 12)),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    st.integers(1, 1024),
    st.lists(st.integers(0, 59), max_size=3),
)


class TestBlockedPass:
    """Widened a block at a time, every whole-bag reduction keeps the bytes of
    the same expression on one whole float64 copy."""

    @settings(max_examples=200, deadline=None)
    @given(case=blocked_matrices)
    def test_walk_is_the_widened_rows_in_order(self, case):
        values, block_bytes, picks = case
        rows = np.array([p % values.shape[0] for p in picks] or [0], dtype=np.int64)
        with small_blocks(block_bytes):
            for index, expected in ((None, values), (rows, values[rows])):
                starts, widened = [], []
                for start, block in float64_blocks(values, index):
                    starts.append(start)
                    widened.append(block[1:].copy())
                    assert len(block) > 2 or len(expected) == 1  # no lone row
                assert starts == np.cumsum([0] + [len(b) for b in widened[:-1]]).tolist()
                assert np.concatenate(widened).tobytes() == expected.astype(np.float64).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=blocked_matrices)
    def test_norms_and_mean_are_the_whole_copy_expressions(self, case):
        values, block_bytes, _ = case
        v = values.astype(np.float64)
        with small_blocks(block_bytes):
            m = PatchMatrix(values)
            assert m.row_norms().tobytes() == np.sqrt(np.einsum("ij,ij->i", v, v)).tobytes()
            assert m.mean.tobytes() == v.mean(axis=0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=blocked_matrices)
    def test_normalize_is_the_whole_copy_expression(self, case):
        values, block_bytes, zeroed = case
        values = values.copy()
        values[[z % values.shape[0] for z in zeroed]] = 0.0
        v = values.astype(np.float64)
        small = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", v, v)) < 1e-8)
        with small_blocks(block_bytes):
            if small.size:
                with pytest.raises(ZeroVectorRow) as err:
                    normalize(PatchMatrix(values))
                assert err.value.row == int(small[0])  # counted from the start of the bag
            else:
                out = normalize(PatchMatrix(values))
                assert out.values.tobytes() == reference_normalize(values).tobytes()

    def test_lone_last_row_of_a_wide_bag_joins_its_block(self):
        """einsum reduces a one-row matrix of more than 8192 columns in another
        order, so a 3-row walk in 2-row blocks ends in one 2-row block."""
        values = random_unit_rows(np.random.default_rng(41), 3, 10000)
        v = values.astype(np.float64)
        with small_blocks(2 * 8 * 10000):
            assert [len(block) - 1 for _, block in float64_blocks(values)] == [3]
            assert (PatchMatrix(values).row_norms().tobytes()
                    == np.sqrt(np.einsum("ij,ij->i", v, v)).tobytes())

    def test_pass_and_scores_hold_one_block(self):
        """The load pass and the scores of a 4096 x 512 bag (8 MiB of float32,
        16 MiB widened) allocate under 2 MiB: one 1 MiB block buffer at a time."""
        rng = np.random.default_rng(43)
        bag = PatchMatrix(random_unit_rows(rng, 4096, 512))
        w = random_unit_rows(rng, 1, 512)[0].astype(np.float64)
        tracemalloc.start()
        try:
            bag.row_norms()
            bag.mean
            score_against(bag, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak


def reference_normalize(values: np.ndarray) -> np.ndarray:
    """`normalize` as an explicit float64 expression: norms from the plain
    einsum, one division, one rounding to float32."""
    v = values.astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    return (v / norms[:, None]).astype(np.float32)


class TestRowNorms:
    def test_off_unit_row_is_the_first_beyond_tolerance(self):
        norms = row_norms(np.array([[1.0, 0.0], [0.0, 1.0 + 2e-4], [0.6, 0.0]]))
        assert norms.tolist() == [1.0, 1.0 + 2e-4, 0.6]
        assert off_unit_row(norms, 1e-4) == 1
        assert off_unit_row(norms, 1e-3) == 2
        assert off_unit_row(norms, 0.5) is None
        assert off_unit_row(np.array([1.0, np.nan, 0.6]), 0.5) == 1


class TestNormalize:
    @settings(max_examples=200, deadline=None)
    @given(values=finite_matrices)
    def test_bytes_are_the_plain_expression(self, values):
        v = values.astype(np.float64)
        small = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", v, v)) < 1e-8)
        if small.size:
            with pytest.raises(ZeroVectorRow) as err:
                normalize(PatchMatrix(values))
            assert err.value.row == int(small[0])
        else:
            out = normalize(PatchMatrix(values))
            assert out.values.tobytes() == reference_normalize(values).tobytes()
            assert not out.values.flags.writeable

    def test_one_float64_pass_per_renormalized_bag(self, tmp_path, monkeypatch):
        """Re-normalizing leaves the raw matrix unwidened: pooling a renormalized
        stream of 120 bags makes 120 passes, each on the bag it yields."""
        manifest, bags, _ = generate(SynthConfig(num_classes=3, dim=8, slides_per_class=40,
                                                 patches_min=5, patches_max=9,
                                                 informative_fraction=0.3, noise_scale=1.0,
                                                 seed=4))
        path = write_dataset(manifest.classes, zip(manifest.slides, bags), tmp_path)
        seen = counting_pass(monkeypatch)
        streamed = list(iter_bags(manifest, path, renormalize=True))
        assert len(streamed) == 120 and len(seen) == 120
        assert [id(values) for values in seen] == [id(bag.patches.values) for bag in streamed]

    def test_three_four_five(self):
        out = normalize(matrix([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], rtol=0, atol=1e-7)

    def test_unit_rows_unchanged(self):
        m = matrix([[1, 0], [0, 1]])
        assert np.array_equal(normalize(m).values, m.values)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorRow) as err:
            normalize(matrix([[0.0, 0.0]]))
        assert err.value.row == 0

    def test_output_norms(self):
        rng = np.random.default_rng(3)
        m = PatchMatrix((rng.standard_normal((40, 9)) * 7.5).astype(np.float32))
        out = normalize(m)
        np.testing.assert_allclose(out.row_norms(), 1.0, rtol=0, atol=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        m = PatchMatrix((rng.standard_normal((30, 6)) * 3).astype(np.float32))
        once = normalize(m)
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-7)

    def test_preserves_direction(self):
        rng = np.random.default_rng(5)
        raw = (rng.standard_normal((25, 8)) * 4).astype(np.float32)
        out = normalize(PatchMatrix(raw)).values.astype(np.float64)
        for before, after in zip(raw.astype(np.float64), out):
            cos = (before @ after) / np.linalg.norm(before)
            assert cos == pytest.approx(1.0, abs=1e-6)


class TestBinaryFormat:
    def test_byte_count_1x2(self):
        assert write_embeddings(matrix([[1, 0]]), io.BytesIO()) == 24

    def test_byte_count_100x512(self):
        rng = np.random.default_rng(0)
        m = PatchMatrix(random_unit_rows(rng, 100, 512))
        assert write_embeddings(m, io.BytesIO()) == 204816

    def test_round_trip_bit_identical(self):
        """Write -> read reproduces the exact bytes for 50 random matrices."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(2, 33))
            scale = float(10.0 ** rng.integers(-6, 7))
            m = PatchMatrix((rng.standard_normal((n, d)) * scale).astype(np.float32))
            buf = io.BytesIO()
            write_embeddings(m, buf)
            buf.seek(0)
            back = read_embeddings(buf)
            assert back.values.tobytes() == m.values.tobytes()
            rewritten = io.BytesIO()
            write_embeddings(back, rewritten)
            assert rewritten.getvalue() == buf.getvalue()

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_embeddings(io.BytesIO(b"NOPE" + b"\x00" * 20))

    def test_truncated_payload(self):
        # header says 10 rows, payload holds 9
        header = struct.pack("<4sIII", MAGIC, 10, 4, 0)
        payload = np.zeros((9, 4), dtype="<f4").tobytes()
        with pytest.raises(TruncatedPayload):
            read_embeddings(io.BytesIO(header + payload))

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayload):
            read_embeddings(io.BytesIO(MAGIC + b"\x01"))

    def test_zero_dimension(self):
        header = struct.pack("<4sIII", MAGIC, 5, 0, 0)
        with pytest.raises(DimensionZero):
            read_embeddings(io.BytesIO(header))

    def test_non_finite_payload(self):
        header = struct.pack("<4sIII", MAGIC, 1, 2, 0)
        payload = struct.pack("<2f", float("nan"), 0.0)
        with pytest.raises(NonFiniteValue):
            read_embeddings(io.BytesIO(header + payload))

    def test_header_layout(self):
        buf = io.BytesIO()
        write_embeddings(matrix([[1, 0, 0]]), buf)
        raw = buf.getvalue()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == 1
        assert struct.unpack("<I", raw[8:12])[0] == 3
        assert raw[12:16] == b"\x00" * 4
        assert len(raw) == HEADER_SIZE + 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            read_embeddings_file(tmp_path / "nope.pse")

    def test_directory_is_a_missing_file(self, tmp_path):
        (tmp_path / "dir.pse").mkdir()
        with pytest.raises(MissingFile) as err:
            read_embeddings_file(tmp_path / "dir.pse")
        assert err.value.path == str(tmp_path / "dir.pse")


def _pse(n, d, reserved=0, payload=b"", magic=MAGIC) -> bytes:
    return struct.pack("<4sIII", magic, n, d, reserved) + payload


class TestBoundedReader:
    def test_hostile_header_allocates_nothing(self, tmp_path):
        # 24 bytes on disk, 40 GB declared
        path = tmp_path / "huge.pse"
        path.write_bytes(_pse(100_000, 100_000, payload=b"\0" * 8))
        with pytest.raises(TruncatedPayload) as err:
            read_embeddings_file(path)
        assert err.value.expected == 4 * 100_000 * 100_000 and err.value.actual == 8
        assert err.value.path == str(path) and str(path) in str(err.value)

    def test_false_size_allocates_nothing(self, tmp_path):
        # 24 bytes on disk, 100 MB declared: small enough to be allocated
        path = tmp_path / "big.pse"
        path.write_bytes(_pse(5_000, 5_000, payload=b"\0" * 8))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayload):
                read_embeddings_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_hostile_stream_header(self):
        # the declared size does not even fit an index-sized integer
        with pytest.raises(TruncatedPayload) as err:
            read_embeddings(io.BytesIO(_pse(2**32 - 1, 2**32 - 1, payload=b"\0" * 8)))
        assert err.value.actual == 8

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.pse"
        path.write_bytes(_pse(1, 2, payload=struct.pack("<2f", 1.0, 0.0) + b"junk"))
        with pytest.raises(TrailingBytes) as err:
            read_embeddings_file(path)
        assert (err.value.expected, err.value.extra) == (8, 4)
        assert str(path) in str(err.value)

    def test_reserved_bytes_rejected(self, tmp_path):
        data = _pse(1, 2, reserved=7, payload=struct.pack("<2f", 1.0, 0.0))
        with pytest.raises(ReservedHeaderBytes) as err:
            read_embeddings(io.BytesIO(data))
        assert err.value.value == 7 and err.value.path is None
        path = tmp_path / "reserved.pse"
        path.write_bytes(data)
        with pytest.raises(ReservedHeaderBytes) as err:
            read_embeddings_file(path)
        assert str(path) in str(err.value)

    def test_non_finite_names_file(self, tmp_path):
        path = tmp_path / "nan.pse"
        path.write_bytes(_pse(2, 2, payload=struct.pack("<4f", 1, 0, float("nan"), 0)))
        with pytest.raises(NonFiniteValue) as err:
            read_embeddings_file(path)
        assert err.value.row == 1 and str(path) in str(err.value)

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionZero):
            read_embeddings(io.BytesIO(_pse(3, 1, payload=b"\0" * 12)))


@st.composite
def pse_files(draw):
    """Embedding files with fuzzed headers, payload lengths and reserved bytes.

    Returns (bytes, well_formed) where well_formed says whether a strict
    reader must accept the file.
    """
    small = st.integers(0, 5)
    n = draw(st.one_of(small, st.integers(0, 2**32 - 1)))
    d = draw(st.one_of(small, st.integers(0, 2**32 - 1)))
    reserved = draw(st.one_of(st.just(0), st.integers(0, 2**32 - 1)))
    magic = draw(st.one_of(st.just(MAGIC), st.binary(min_size=4, max_size=4)))
    declared = 4 * n * d
    count = min(declared // 4, 40)
    values = draw(
        st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                 min_size=count, max_size=count)
    )
    payload = np.asarray(values, dtype="<f4").tobytes()
    payload += draw(st.binary(max_size=8))  # appended bytes
    payload = payload[: len(payload) - draw(st.integers(0, 8))]  # missing bytes
    data = struct.pack("<4sIII", magic, n, d, reserved) + payload
    data = data[: len(data) - draw(st.sampled_from([0, 0, 0, 3, 15, len(data)]))]
    well_formed = (
        magic == MAGIC and reserved == 0 and n >= 1 and d >= 2
        and len(data) == HEADER_SIZE + declared
    )
    return data, well_formed


class TestFuzzedFiles:
    @settings(max_examples=150, deadline=None)
    @given(case=pse_files())
    def test_file_round_trips_or_fails_typed(self, case):
        data, well_formed = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.pse"
            path.write_bytes(data)
            try:
                back = read_embeddings_file(path)
            except ProtoshotError:
                assert not well_formed
                return
        assert well_formed
        buf = io.BytesIO()
        write_embeddings(back, buf)
        assert buf.getvalue() == data

    @settings(max_examples=150, deadline=None)
    @given(case=pse_files())
    def test_stream_round_trips_or_fails_typed(self, case):
        # a stream may continue past the matrix, so only the prefix counts
        data, _ = case
        try:
            back = read_embeddings(io.BytesIO(data))
        except ProtoshotError:
            return
        buf = io.BytesIO()
        write_embeddings(back, buf)
        assert data.startswith(buf.getvalue())


class TestTextClassifier:
    def test_requires_unit_rows(self):
        weights = np.ones((1, 2, 3), dtype=np.float32)
        with pytest.raises(UnnormalizedRow):
            TextClassifier(("a", "b"), weights)

    def test_nan_row_is_not_unit(self):
        weights = np.eye(2, 3, dtype=np.float32)[None].repeat(2, axis=0)
        weights[1, 0, 2] = np.nan
        with pytest.raises(UnnormalizedRow, match="classifier row 2 has L2 norm nan") as err:
            TextClassifier(("a", "b"), weights)
        assert err.value.row == 2

    @pytest.mark.parametrize(
        "classes, index, in_classifier, in_manifest",
        [
            (("a", "c", "b"), 1, "'b'", "'c'"),
            (("a", "b"), 2, "'c'", "absent"),
            (("a", "b", "c", "d"), 3, "absent", "'d'"),
        ],
    )
    def test_check_classes_names_the_first_difference(
        self, classes, index, in_classifier, in_manifest
    ):
        clf = TextClassifier(("a", "b", "c"), random_unit_rows(np.random.default_rng(7), 3, 4)[None])
        clf.check_classes(("a", "b", "c"))
        clf.check_classes(["a", "b", "c"])
        with pytest.raises(ClassNamesMismatch) as err:
            clf.check_classes(classes, "clf.pse.json")
        assert err.value.index == index
        assert str(err.value) == (
            f"clf.pse.json: class {index} is {in_classifier} in the classifier, "
            f"{in_manifest} in the manifest"
        )

    def test_canonical_vectors_single_prompt(self):
        rng = np.random.default_rng(8)
        w = random_unit_rows(rng, 3, 5).reshape(1, 3, 5)
        clf = TextClassifier(("a", "b", "c"), w)
        np.testing.assert_allclose(
            clf.canonical_vectors(), w[0].astype(np.float64), rtol=0, atol=1e-7
        )

    def test_canonical_vectors_unit_norm(self):
        rng = np.random.default_rng(9)
        w = random_unit_rows(rng, 12, 6).reshape(4, 3, 6)
        clf = TextClassifier(("a", "b", "c"), w)
        canon = clf.canonical_vectors()
        np.testing.assert_allclose(
            np.linalg.norm(canon, axis=1), 1.0, rtol=0, atol=1e-12
        )

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        w = random_unit_rows(rng, 8, 7).reshape(2, 4, 7)
        clf = TextClassifier(("w", "x", "y", "z"), w)
        path = tmp_path / "clf.pse"
        write_text_classifier(clf, path)
        back = read_text_classifier(path)
        assert back.class_names == clf.class_names
        assert np.array_equal(back.weights, clf.weights)
        sidecar = json.loads((tmp_path / "clf.pse.json").read_text())
        assert sidecar == {"num_classes": 4, "num_prompts": 2, "class_names": ["w", "x", "y", "z"]}

    def test_prompt_major_row_order(self, tmp_path):
        rng = np.random.default_rng(11)
        w = random_unit_rows(rng, 6, 5).reshape(3, 2, 5)
        path = tmp_path / "clf.pse"
        write_text_classifier(TextClassifier(("a", "b"), w), path)
        flat = read_embeddings_file(path)
        for p in range(3):
            for c in range(2):
                assert np.array_equal(flat.values[p * 2 + c], w[p, c])

    def test_one_class_sidecar_named(self, tmp_path):
        path = tmp_path / "clf.pse"
        write_embeddings_file(matrix([[1, 0]]), path)
        (tmp_path / "clf.pse.json").write_text(
            '{"num_classes": 1, "num_prompts": 1, "class_names": ["a"]}'
        )
        with pytest.raises(SidecarError) as err:
            read_text_classifier(path)
        assert err.value.key == "num_classes"
        assert str(err.value).startswith(f"{tmp_path / 'clf.pse.json'}: invalid classifier shape")

    def test_missing_sidecar(self, tmp_path):
        write_embeddings_file(matrix([[1, 0], [0, 1]]), tmp_path / "clf.pse")
        with pytest.raises(MissingFile):
            read_text_classifier(tmp_path / "clf.pse")

    @pytest.mark.parametrize(
        "sidecar, key, reason",
        [
            ('{"num_classes": 2, "class_names": ["a", "b"]}', "num_prompts",
             "missing key 'num_prompts'"),
            ('{"num_classes": 2, "num_prompts": 1', None, "malformed JSON"),
            ('["a", "b"]', None, "expected a JSON object"),
            ('{"num_classes": "two", "num_prompts": 1, "class_names": ["a", "b"]}',
             "num_classes", "key 'num_classes' holds 'two', not an integer"),
        ],
    )
    def test_bad_sidecar_named(self, tmp_path, sidecar, key, reason):
        path = tmp_path / "clf.pse"
        write_text_classifier(TextClassifier(("a", "b"), np.eye(2)[None]), path)
        (tmp_path / "clf.pse.json").write_text(sidecar)
        with pytest.raises(SidecarError) as err:
            read_text_classifier(path)
        assert isinstance(err.value, ValueError)
        assert err.value.key == key
        assert str(err.value).startswith(f"{tmp_path / 'clf.pse.json'}: {reason}")


def _toy_dataset(tmp_path, rng, classes=("chRCC", "ccRCC", "pRCC")):
    records = []
    bags = []
    for i, name in enumerate(classes):
        rows = random_unit_rows(rng, 5 + i, 6)
        slide_id = f"s{i}"
        records.append(SlideRecord(slide_id, name, f"{slide_id}.pse", rows.shape[0]))
        bags.append(SlideBag(slide_id, PatchMatrix(rows), label=i))
    manifest = DatasetManifest(tuple(classes), tuple(records))
    write_dataset(manifest.classes, zip(manifest.slides, bags), tmp_path)
    return manifest, bags


class TestWriteDataset:
    def test_writes_each_slide_before_the_next_is_drawn(self, tmp_path):
        rng = np.random.default_rng(30)
        pairs = []
        for i in range(3):
            rows = random_unit_rows(rng, 4 + i, 5)
            record = SlideRecord(f"s{i}", "ab"[i % 2], f"sub/s{i}.pse", rows.shape[0])
            pairs.append((record, SlideBag(f"s{i}", PatchMatrix(rows), label=i % 2)))
        on_disk = []

        def stream():
            for pair in pairs:
                on_disk.append(sorted(p.name for p in tmp_path.rglob("*") if p.is_file()))
                yield pair

        path = write_dataset(("a", "b"), stream(), tmp_path)
        assert on_disk == [[], ["s0.pse"], ["s0.pse", "s1.pse"]]
        manifest, bags = load_manifest(path)
        assert manifest == DatasetManifest(("a", "b"), tuple(r for r, _ in pairs))
        assert _bag_bytes(bags) == _bag_bytes([bag for _, bag in pairs])

    def test_mispaired_stream_rejected(self, tmp_path):
        rng = np.random.default_rng(31)
        bag = SlideBag("s1", PatchMatrix(random_unit_rows(rng, 3, 4)), label=0)
        with pytest.raises(ValueError, match="'s1' paired with record 's0'"):
            write_dataset(("a",), [(SlideRecord("s0", "a", "s0.pse", 3), bag)], tmp_path)
        assert not (tmp_path / "s0.pse").exists()

    @pytest.mark.parametrize(
        "bad, error",
        [(("s1", "nope"), UnknownClass), (("s0", "a"), ValueError)],
    )
    def test_bad_record_raises_before_its_file(self, tmp_path, bad, error):
        rng = np.random.default_rng(32)
        pairs = []
        for sid, name in (("s0", "a"), bad):
            record = SlideRecord(sid, name, f"{sid}_{len(pairs)}.pse", 3)
            pairs.append((record, SlideBag(sid, PatchMatrix(random_unit_rows(rng, 3, 4)), 0)))
        with pytest.raises(error):
            write_dataset(("a",), pairs, tmp_path)
        # the first pair was written; no file of the bad pair and no manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s0_0.pse"]


class TestManifest:
    def test_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        manifest, bags = _toy_dataset(tmp_path, rng)
        loaded_manifest, loaded_bags = load_manifest(tmp_path / "manifest.jsonl")
        assert loaded_manifest == manifest
        assert [b.slide_id for b in loaded_bags] == [b.slide_id for b in bags]
        assert [b.label for b in loaded_bags] == [0, 1, 2]
        for mine, theirs in zip(bags, loaded_bags):
            assert np.array_equal(mine.patches.values, theirs.patches.values)

    def test_positional_label(self, tmp_path):
        rng = np.random.default_rng(21)
        _toy_dataset(tmp_path, rng)
        manifest, bags = load_manifest(tmp_path / "manifest.jsonl")
        labeled = {rec.class_name: bag.label for rec, bag in zip(manifest.slides, bags)}
        assert labeled["ccRCC"] == 1

    def test_order_stable(self, tmp_path):
        rng = np.random.default_rng(22)
        manifest, _ = _toy_dataset(tmp_path, rng)
        _, bags = load_manifest(tmp_path / "manifest.jsonl")
        for rec, bag in zip(manifest.slides, bags):
            assert rec.slide_id == bag.slide_id

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            DatasetManifest(("a",), (SlideRecord("s0", "b", "s0.pse", 3),))

    def test_duplicate_slide_id(self):
        recs = (
            SlideRecord("s0", "a", "s0.pse", 3),
            SlideRecord("s0", "a", "other.pse", 3),
        )
        with pytest.raises(ValueError):
            DatasetManifest(("a",), recs)

    def test_patch_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(23)
        manifest, bags = _toy_dataset(tmp_path, rng)
        doctored = DatasetManifest(
            manifest.classes,
            tuple(
                SlideRecord(r.slide_id, r.class_name, r.path, r.num_patches + (1 if i == 0 else 0))
                for i, r in enumerate(manifest.slides)
            ),
        )
        write_manifest(doctored, tmp_path / "manifest.jsonl")
        with pytest.raises(PatchCountMismatch) as err:
            load_manifest(tmp_path / "manifest.jsonl")
        assert err.value.slide_id == "s0"

    def test_missing_embedding_file(self, tmp_path):
        rng = np.random.default_rng(24)
        manifest, _ = _toy_dataset(tmp_path, rng)
        (tmp_path / "s1.pse").unlink()
        with pytest.raises(MissingFile):
            load_manifest(tmp_path / "manifest.jsonl")

    def test_rejects_unnormalized_rows(self, tmp_path):
        rows = np.array([[3.0, 4.0], [1.0, 0.0]], dtype=np.float32)
        manifest = DatasetManifest(("a",), (SlideRecord("s0", "a", "s0.pse", 2),))
        write_embeddings_file(PatchMatrix(rows), tmp_path / "s0.pse")
        write_manifest(manifest, tmp_path / "manifest.jsonl")
        with pytest.raises(UnnormalizedRow) as err:
            load_manifest(tmp_path / "manifest.jsonl")
        assert err.value.slide_id == "s0" and err.value.row == 0

    def test_renormalize_flag(self, tmp_path):
        rows = np.array([[3.0, 4.0], [1.0, 0.0]], dtype=np.float32)
        manifest = DatasetManifest(("a",), (SlideRecord("s0", "a", "s0.pse", 2),))
        write_embeddings_file(PatchMatrix(rows), tmp_path / "s0.pse")
        write_manifest(manifest, tmp_path / "manifest.jsonl")
        _, bags = load_manifest(tmp_path / "manifest.jsonl", renormalize=True)
        assert off_unit_row(bags[0].patches.row_norms(), LOAD_NORM_ATOL) is None

    def test_each_record_checked_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(30)
        manifest, _ = _toy_dataset(tmp_path, rng)
        calls = []
        check = embedstore._check_record

        def counted(rec, *args):
            calls.append(rec.slide_id)
            return check(rec, *args)

        monkeypatch.setattr(embedstore, "_check_record", counted)
        assert parse_manifest(tmp_path / "manifest.jsonl") == manifest
        assert calls == [rec.slide_id for rec in manifest.slides]

    def test_manifest_without_slides_named(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"classes": ["a", "b"]}\n\n')
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert str(err.value) == f"{path} line 1: no slide lines follow the classes line"

    def test_parse_requires_classes_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"slide_id": "s0", "class": "a", "path": "x", "num_patches": 1}\n')
        with pytest.raises(ValueError):
            parse_manifest(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"classes": ["a"]}\n\n{"slide_id": "s0", "class": \n')
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert err.value.line == 3  # the blank line counts
        assert f"{path} line 3: malformed JSON" in str(err.value)

    def test_missing_key_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            '{"classes": ["a"]}\n'
            '{"slide_id": "s0", "class": "a", "path": "s0.pse", "num_patches": 2}\n'
            '\n'
            '{"class": "a", "path": "s1.pse", "num_patches": 2}\n'
        )
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert err.value.line == 4
        assert str(err.value) == f"{path} line 4: missing key 'slide_id'"

    @pytest.mark.parametrize(
        "second, reason",
        [
            ('{"slide_id": "s0", "class": "a", "path": "y", "num_patches": 2}',
             "duplicate slide_id 's0'"),
            ('{"slide_id": "s1", "class": "b", "path": "y", "num_patches": 2}',
             "class 'b' is not in the manifest classes"),
        ],
    )
    def test_bad_record_names_line(self, tmp_path, second, reason):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            '{"classes": ["a"]}\n'
            '{"slide_id": "s0", "class": "a", "path": "x", "num_patches": 2}\n'
            f"\n{second}\n"
        )
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert str(err.value) == f"{path} line 4: {reason}"

    @pytest.mark.parametrize(
        "line, key, value, expected",
        [
            (1, "classes", "ab", "a list of strings"),
            (1, "classes", ["a", 2], "a list of strings"),
            (2, "slide_id", 7, "a string"),
            (2, "class", ["a"], "a string"),
            (2, "path", 3, "a string"),
            (2, "num_patches", "3", "a positive integer"),
            (2, "num_patches", 3.7, "a positive integer"),
            (2, "num_patches", True, "a positive integer"),
            (2, "num_patches", 0, "a positive integer"),
            (2, "num_patches", -3, "a positive integer"),
        ],
    )
    def test_mistyped_value_names_line_and_key(self, tmp_path, line, key, value, expected):
        rows = [
            {"classes": ["a", "b"]},
            {"slide_id": "s0", "class": "a", "path": "s0.pse", "num_patches": 3},
        ]
        rows[line - 1][key] = value
        path = tmp_path / "manifest.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert (err.value.line, err.value.key) == (line, key)
        reason = f"key {key!r} holds {value!r}, not {expected}"
        assert str(err.value) == f"{path} line {line}: {reason}"

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_manifest_names_the_file(self, tmp_path, text):
        path = tmp_path / "manifest.jsonl"
        path.write_text(text)
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert isinstance(err.value, ValueError)
        assert str(err.value) == f"{path} line 1: the manifest is empty: no classes line"

    @pytest.mark.parametrize(
        "lines, line, key, reason",
        [
            (['{"classes": []}'], 1, "classes", "no classes declared"),
            (['{"classes": ["a", "b", "a"]}'], 1, "classes", "class 'a' declared twice"),
            (['{"classes": ["a"]}',
              '{"slide_id": "s0", "class": "a", "path": "x", "num_patches": 2}',
              '{"slide_id": "", "class": "a", "path": "y", "num_patches": 2}'],
             3, "slide_id", "empty slide_id"),
        ],
    )
    def test_manifest_rules_name_line(self, tmp_path, lines, line, key, reason):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert (err.value.line, err.value.key) == (line, key)
        assert str(err.value) == f"{path} line {line}: {reason}"

    @pytest.mark.parametrize(
        "classes, slides",
        [((), ()), (("a", "a"), ()), (("a",), (SlideRecord("", "a", "x.pse", 2),))],
    )
    def test_built_manifest_keeps_the_same_rules(self, classes, slides):
        with pytest.raises(ValueError, match="invalid manifest: "):
            DatasetManifest(classes, slides)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b'{"classes": ["a"]}\n{"slide_id": "\xff"}\n')
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert err.value.line == 2
        assert str(err.value) == f"{path} line 2: not UTF-8: byte 0xff at column 15"

    def test_leniencies_are_accepted_with_output_unchanged(self, tmp_path):
        """What parse_manifest accepts without a message, by design: extra keys
        on the classes line and on slide lines, blank lines, a path with
        ``..`` or an absolute path, and a path to another slide's file with
        the same patch count, whose rows that slide then gets."""
        data = tmp_path / "data"
        data.mkdir()
        manifest, _ = _equal_bags(data, np.random.default_rng(31), count=3)
        lines = (data / "manifest.jsonl").read_text().splitlines()
        head, slides = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        reference = _pooled_bytes(
            iter_pooled(manifest, data / "manifest.jsonl", lambda sid, label: MEAN))

        def streamed(name, head, slides, blank=""):
            path = data / f"{name}.jsonl"
            text = blank.join(json.dumps(obj) + "\n" for obj in [head, *slides])
            path.write_text(text + blank)
            parsed = parse_manifest(path)
            assert parsed.classes == manifest.classes
            assert [rec.slide_id for rec in parsed.slides] == ["s0", "s1", "s2"]
            return parsed, _pooled_bytes(iter_pooled(parsed, path, lambda sid, label: MEAN))

        extra, rows = streamed("extra", {**head, "note": "x"},
                               [{**obj, "scanner": [1, 2]} for obj in slides])
        assert extra == manifest and rows == reference
        blank, rows = streamed("blank", head, slides, blank="\n  \n")
        assert blank == manifest and rows == reference
        outside = [{**slides[0], "path": "../data/s0.pse"},
                   {**slides[1], "path": str(data / "s1.pse")}, slides[2]]
        parsed, rows = streamed("outside", head, outside)
        assert [rec.path for rec in parsed.slides][:2] == ["../data/s0.pse", str(data / "s1.pse")]
        assert rows == reference
        _, rows = streamed("shared", head, [*slides[:2], {**slides[2], "path": "s0.pse"}])
        assert rows[0][:2] == reference[0][:2] and rows[1] is None
        assert rows[0][2] == ("s2",) + reference[0][0][1:]

    def test_non_integer_patch_count_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            '{"classes": ["a"]}\n{"slide_id": "s0", "class": "a", "path": "x", "num_patches": "2x"}\n'
        )
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert err.value.line == 2


def _bag_bytes(bags):
    return [(b.slide_id, b.label, b.patches.values.dtype.str, b.patches.values.tobytes())
            for b in bags]


def _equal_bags(tmp_path, rng, count, rows=7, dim=6):
    """A one-class corpus of `count` bags of the same shape."""
    records = tuple(SlideRecord(f"s{i}", "a", f"s{i}.pse", rows) for i in range(count))
    bags = [SlideBag(rec.slide_id, PatchMatrix(random_unit_rows(rng, rows, dim)), 0)
            for rec in records]
    write_dataset(("a",), zip(records, bags), tmp_path)
    return DatasetManifest(("a",), records), bags


def _write_bag(directory: Path, values: np.ndarray) -> DatasetManifest:
    """`values` written raw as ``bag.pse`` under `directory`, with a manifest
    of it that is not written."""
    n, d = values.shape
    header = struct.pack("<4sIII", MAGIC, n, d, 0)
    (directory / "bag.pse").write_bytes(header + values.astype("<f4").tobytes())
    return DatasetManifest(("a",), (SlideRecord("s0", "a", "bag.pse", n),))


class TestOneWalk:
    """A bag that iter_bags reads is walked once: the walk checks that its
    values are finite and gives its norms, its mean and, on request, its
    scores."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(2, 9)),
        poison=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1,
            max_size=4,
        ),
        block_bytes=st.integers(1, 512),
        renormalize=st.booleans(),
    )
    def test_non_finite_payload_names_file_and_row(self, shape, poison, block_bytes, renormalize):
        values = random_unit_rows(np.random.default_rng(shape[0] * 97 + shape[1]), *shape)
        flat = values.reshape(-1)
        for position, bad in poison:
            flat[position % flat.size] = bad
        expected = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        with tempfile.TemporaryDirectory() as tmp:
            manifest = _write_bag(Path(tmp), values)
            with small_blocks(block_bytes), warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteValue) as err:
                    next(iter_bags(manifest, Path(tmp) / "manifest.jsonl", renormalize=renormalize))
        assert (err.value.row, err.value.path) == (expected, str(Path(tmp) / "bag.pse"))

    @pytest.mark.parametrize("block_bytes", [16, 32, 1 << 20])
    def test_inf_and_minus_inf_in_one_column_never_summed(self, tmp_path, block_bytes):
        values = random_unit_rows(np.random.default_rng(44), 6, 3)
        values[3, 1], values[4, 1] = np.inf, -np.inf
        manifest = _write_bag(tmp_path, values)
        with small_blocks(block_bytes), warnings.catch_warnings():
            warnings.simplefilter("error")
            for renormalize in (False, True):
                with pytest.raises(NonFiniteValue) as err:
                    next(iter_bags(manifest, tmp_path / "manifest.jsonl", renormalize=renormalize))
                assert err.value.row == 3
            with pytest.raises(NonFiniteValue) as err:
                PatchMatrix(values)
            assert err.value.row == 3

    def test_huge_finite_rows_load_without_warnings(self, tmp_path):
        big = np.float32(3e38)
        values = np.array([[big, big], [-big, -big], [big, -big], [big, big]], dtype=np.float32)
        manifest = _write_bag(tmp_path, values)
        path = tmp_path / "manifest.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_embeddings_file(tmp_path / "bag.pse").values.tobytes() == values.tobytes()
            (bag,) = iter_bags(manifest, path, renormalize=True)
            with pytest.raises(UnnormalizedRow) as err:
                next(iter_bags(manifest, path))
        assert off_unit_row(bag.patches.row_norms(), LOAD_NORM_ATOL) is None
        v = values.astype(np.float64)
        assert err.value.norm == np.sqrt(np.einsum("ij,ij->i", v, v))[0]

    def test_requested_scores_come_from_the_walk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(45)
        manifest, bags = _toy_dataset(tmp_path, rng)
        w = random_unit_rows(rng, 1, 6)[0].astype(np.float64)
        seen = counting_pass(monkeypatch)
        streamed = list(iter_pooled(manifest, tmp_path / "manifest.jsonl",
                                    lambda sid, label: PoolRequest((2,), w, mean=False)))
        assert len(seen) == 3  # the scores came from the one walk of each bag
        means = list(iter_pooled(manifest, tmp_path / "manifest.jsonl", lambda sid, label: MEAN))
        assert len(seen) == 6
        for (sid, label, rows), built in zip(streamed, bags):
            assert (sid, label) == (built.slide_id, built.label)
            assert rows.tobytes() == guided_pools(built, w, (2,))[2].tobytes()
        for (_, _, rows), built in zip(means, bags):
            widened = built.patches.values.astype(np.float64)
            assert rows.tobytes() == widened.mean(axis=0).tobytes()

    def test_zero_row_names_the_file_and_offers_no_fix(self, tmp_path):
        """Re-normalizing cannot fix an all-zero row: it fails naming the
        file, and without it the error does not offer it as the fix."""
        values = random_unit_rows(np.random.default_rng(47), 6, 4)
        values[3] = 0.0
        manifest = _write_bag(tmp_path, values)
        path, bag = tmp_path / "manifest.jsonl", str(tmp_path / "bag.pse")
        with pytest.raises(ZeroVectorRow) as err:
            next(iter_bags(manifest, path, renormalize=True))
        assert (err.value.row, err.value.path) == (3, bag)
        assert str(err.value) == f"{bag}: row 3 has near-zero L2 norm and cannot be normalized"
        with pytest.raises(UnnormalizedRow) as err:
            next(iter_bags(manifest, path))
        assert str(err.value) == f"{bag}: slide 's0' row 3 has L2 norm 0, expected 1.0"

    def test_off_unit_row_offers_the_fix(self, tmp_path):
        values = random_unit_rows(np.random.default_rng(48), 6, 4)
        values[2] *= 5
        manifest = _write_bag(tmp_path, values)
        with pytest.raises(UnnormalizedRow) as err:
            next(iter_bags(manifest, tmp_path / "manifest.jsonl"))
        assert str(err.value).endswith(
            ", expected 1.0; pass renormalize=True (--normalize) to fix at load"
        )

    @pytest.mark.parametrize("edit, error", [
        ("nan", NonFiniteValue), ("double", UnnormalizedRow), ("truncate", TruncatedPayload),
    ])
    def test_read_back_of_a_longer_bag_checks_its_rows(self, tmp_path, monkeypatch, edit, error):
        """The top-K rows of a bag of several blocks are read back after its
        walk and checked as the walk checks them, so a file that changes
        between the two fails naming it."""
        rng = np.random.default_rng(49)
        values = random_unit_rows(rng, 40, 8)
        vector = random_unit_rows(rng, 1, 8)[0].astype(np.float64)
        manifest = _write_bag(tmp_path, values)
        bag = tmp_path / "bag.pse"
        top = np.sort(embedstore.score_order(values.astype(np.float64) @ vector)[:5])
        row, offset = int(top[-1]), HEADER_SIZE + 4 * 8 * int(top[-1])
        walk = embedstore._walk

        def walk_then_edit(values, *args, **kwargs):
            walked = walk(values, *args, **kwargs)
            if isinstance(values, embedstore._Payload):  # the walk, not the read-back
                with open(bag, "r+b") as fh:
                    if edit == "truncate":
                        fh.truncate(offset)
                    else:
                        fh.seek(offset)
                        kept = np.frombuffer(fh.read(32), "<f4")
                        fh.seek(offset)
                        fh.write((kept * 2 if edit == "double" else kept * np.nan).tobytes())
            return walked

        monkeypatch.setattr(embedstore, "_walk", walk_then_edit)
        request = PoolRequest((5,), vector, mean=False)
        with small_blocks(4 * 8 * 8), pytest.raises(error) as err:
            next(iter_pooled(manifest, tmp_path / "manifest.jsonl", lambda sid, label: request))
        assert err.value.path == str(bag)
        if edit == "truncate":
            assert (err.value.expected, err.value.actual) == (40 * 8 * 4, offset - HEADER_SIZE)
        else:
            assert err.value.row == row
        if edit == "double":
            assert err.value.slide_id == "s0" and err.value.norm == pytest.approx(2.0)

    def test_vector_of_another_length_names_the_slide(self, tmp_path):
        """A class vector the bag cannot be scored against fails after the
        bag's load checks, in the reader, as it does for a bag in memory."""
        rng = np.random.default_rng(46)
        manifest, bags = _toy_dataset(tmp_path, rng)
        request = PoolRequest((2,), np.ones(4))
        stream = iter_pooled(manifest, tmp_path / "manifest.jsonl", lambda sid, label: request)
        for pool in (lambda: next(stream), lambda: guided_pools(bags[0], np.ones(4), (2,))):
            with pytest.raises(DimensionMismatch) as err:
                pool()
            assert (err.value.expected, err.value.actual, err.value.slide_id) == (4, 6, "s0")


class TestIterBags:
    def test_load_manifest_is_the_stream(self, tmp_path):
        rng = np.random.default_rng(25)
        _toy_dataset(tmp_path, rng)
        path = tmp_path / "manifest.jsonl"
        manifest, loaded = load_manifest(path)
        streamed = list(iter_bags(manifest, path))
        assert _bag_bytes(streamed) == _bag_bytes(loaded)

    def test_renormalized_stream_matches_load(self, tmp_path):
        rng = np.random.default_rng(26)
        records, bags = [], []
        for i in range(3):
            rows = (rng.standard_normal((4 + i, 5)) * 3.0).astype(np.float32)
            records.append(SlideRecord(f"s{i}", "a", f"s{i}.pse", rows.shape[0]))
            bags.append(SlideBag(f"s{i}", PatchMatrix(rows), label=0))
        manifest = DatasetManifest(("a",), tuple(records))
        path = write_dataset(manifest.classes, zip(manifest.slides, bags), tmp_path)
        _, loaded = load_manifest(path, renormalize=True)
        streamed = list(iter_bags(manifest, path, renormalize=True))
        assert _bag_bytes(streamed) == _bag_bytes(loaded)
        assert all(off_unit_row(b.patches.row_norms(), LOAD_NORM_ATOL) is None for b in streamed)

    def test_held_bags_stay_intact(self, tmp_path):
        """Bags that are held keep buffers of their own: after the stream has
        moved past them, and after later streams, they hold the bytes of a
        fresh read."""
        rng = np.random.default_rng(28)
        manifest, _ = _equal_bags(tmp_path, rng, count=9)
        path = tmp_path / "manifest.jsonl"
        fresh = [read_embeddings_file(tmp_path / rec.path).values.tobytes()
                 for rec in manifest.slides]
        _, loaded = load_manifest(path)
        listed = list(iter_bags(manifest, path))
        kept = [bag for i, bag in enumerate(iter_bags(manifest, path)) if i % 3 == 0]
        stream = iter_bags(manifest, path)
        first = next(stream)
        for _ in stream:
            pass
        for _ in iter_bags(manifest, path):
            pass
        assert [b.patches.values.tobytes() for b in loaded] == fresh
        assert [b.patches.values.tobytes() for b in listed] == fresh
        assert [b.patches.values.tobytes() for b in kept] == fresh[::3]
        assert first.patches.values.tobytes() == fresh[0]

    @pytest.mark.parametrize("block_bytes", [1 << 20, 160])
    def test_stream_reads_every_bag_into_its_one_block_buffer(
        self, tmp_path, monkeypatch, block_bytes
    ):
        """A pooled stream walks each bag once, read a block of rows at a time
        from its open file into the stream's one block buffer: twelve bags of
        one size, in one block each or in several, make one buffer, and a
        top-K below the bag size widens nothing more for a one-block bag and
        only the rows it reads back for a longer one."""
        rng = np.random.default_rng(29)
        manifest, _ = _equal_bags(tmp_path, rng, count=12)
        vector = random_unit_rows(rng, 1, 6)[0].astype(np.float64)
        seen = counting_pass(monkeypatch)
        holders, buffers, widened = [], set(), []
        call, blocks = embedstore._GrowOnly.__call__, embedstore.float64_blocks

        def held(holder, nbytes):
            holders.append(id(holder))
            buffers.add(call(holder, nbytes).__array_interface__["data"][0])
            return holder.held

        def counted(values, rows=None, buffer=None):
            widened.append(values.shape[0] if rows is None else len(rows))
            return blocks(values, rows, buffer)

        monkeypatch.setattr(embedstore._GrowOnly, "__call__", held)
        monkeypatch.setattr(embedstore, "float64_blocks", counted)
        with small_blocks(block_bytes):
            rows = list(iter_pooled(manifest, tmp_path / "manifest.jsonl",
                                    lambda sid, label: PoolRequest((3,), vector)))
        walks = [values for values in seen if isinstance(values, embedstore._Payload)]
        assert len(rows) == len(walks) == 12 and len({w.path for w in walks}) == 12
        assert len(set(holders)) == 1 and len(buffers) == 1
        # each bag's one walk; then, for a bag of several blocks (160 bytes hold 3
        # float64 rows of 6), the walk checking the 3 rows read back and their gather
        assert widened == ([7] * 12 if block_bytes == 1 << 20 else [7, 3, 3] * 12)

    def test_stream_frees_the_block_buffer(self, tmp_path):
        """A pooled stream holds its walks' block buffer between its slides
        and frees it with itself, once it is exhausted, closed after its
        first or third slide, or failed at its fourth; pool_bag keeps
        nothing after its call and gives its reference bytes after any
        stream."""
        rows, dim = 40, 64
        manifest, bags = _equal_bags(tmp_path, np.random.default_rng(30), 6, rows, dim)
        path = tmp_path / "manifest.jsonl"
        block = 8 * (rows + 1) * dim  # a walk's widened rows and its spare row
        references = [bag.patches.values.astype(np.float64).mean(axis=0) for bag in bags]

        def numpy_traces() -> list[int]:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            return [trace.size for trace in snapshot.traces]

        def held() -> int:  # numpy allocations as large as the block buffer
            return sum(size >= block for size in numpy_traces())

        def pools_in_memory():
            for bag, reference in zip(bags, references):
                before = sum(numpy_traces())
                pooled = pool_bag(bag, MEAN)
                assert sum(numpy_traces()) - before == pooled.nbytes
                assert pooled[-1].tobytes() == reference.tobytes()
                del pooled

        def stream():
            return iter_pooled(manifest, path, lambda sid, label: MEAN)

        tracemalloc.start()
        try:
            pools_in_memory()
            assert held() == 0
            assert len(list(stream())) == 6 and held() == 0
            for taken in (1, 3):
                open_stream = stream()
                assert [next(open_stream)[0] for _ in range(taken)][-1] == f"s{taken - 1}"
                assert held() == 1  # held between the stream's walks
                open_stream.close()
                assert held() == 0
                pools_in_memory()
            (tmp_path / "s3.pse").unlink()
            failing = stream()
            assert [next(failing)[0] for _ in range(3)] == ["s0", "s1", "s2"]
            try:
                next(failing)
            except MissingFile:
                pass  # dropped here, with the stream's frames that its traceback holds
            else:
                pytest.fail("the stream read a missing file")
            assert held() == 0
            pools_in_memory()
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("failure", ["missing", "nan"])
    def test_a_kept_error_holds_no_buffer(self, tmp_path, failure):
        """A stream that fails at its fourth slide, missing or holding NaN,
        and whose error is kept, holds no numpy allocation of a block's size
        or more: the stream empties its buffer, and no frame of its
        traceback keeps a view of it."""
        rows, dim = 40, 64
        manifest, bags = _equal_bags(tmp_path, np.random.default_rng(32), 6, rows, dim)
        if failure == "missing":
            (tmp_path / "s3.pse").unlink()
        else:
            values = bags[3].patches.values.copy()
            values[30, 5] = np.nan
            _write_bag(tmp_path, values)
            os.replace(tmp_path / "bag.pse", tmp_path / "s3.pse")
        block = 8 * (rows + 1) * dim  # a walk's widened rows and its spare row
        tracemalloc.start()
        try:
            stream = iter_pooled(manifest, tmp_path / "manifest.jsonl", lambda sid, label: MEAN)
            assert [next(stream)[0] for _ in range(3)] == ["s0", "s1", "s2"]
            with pytest.raises((MissingFile, NonFiniteValue)) as kept:
                next(stream)
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        assert "s3.pse" in str(kept.value)
        assert max((trace.size for trace in snapshot.traces), default=0) < block

    def test_memory_does_not_follow_bag_size(self, tmp_path):
        """A stream of a corpus holding one bag of 64 MiB keeps no allocation
        of the bag's size alive at any slide, and its traced peak stays below
        four blocks plus 16 bytes a row, pooling the mean or a top-K."""
        n, dim = 1 << 16, 256
        rng = np.random.default_rng(33)
        records = (SlideRecord("small", "a", "small.pse", 9), SlideRecord("big", "a", "big.pse", n),
                   SlideRecord("after", "a", "small.pse", 9))
        write_embeddings_file(PatchMatrix(random_unit_rows(rng, 9, dim)), tmp_path / "small.pse")
        with (tmp_path / "big.pse").open("wb") as fh:
            fh.write(struct.pack("<4sIII", MAGIC, n, dim, 0))
            for _ in range(n // 4096):
                fh.write(random_unit_rows(rng, 4096, dim).tobytes())
        manifest = DatasetManifest(("a",), records)
        write_manifest(manifest, tmp_path / "manifest.jsonl")
        bag_bytes = 4 * n * dim
        assert bag_bytes >= 64 << 20
        vector = random_unit_rows(rng, 1, dim)[0].astype(np.float64)
        for request in (MEAN, PoolRequest((100, 10), vector)):
            tracemalloc.start()
            try:
                for sid, _, _ in iter_pooled(manifest, tmp_path / "manifest.jsonl",
                                             lambda sid, label: request):
                    largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
                    assert largest < bag_bytes // 16, sid
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * embedstore.BLOCK_BYTES + 16 * n, peak

    def test_threads_share_no_buffer(self, tmp_path):
        """Two streams and two loops of pool_bag, each in its own thread and
        switched as often as the interpreter can, give the bytes they give
        in one thread."""
        rng = np.random.default_rng(31)
        manifest, bags = _equal_bags(tmp_path, rng, 12, 30, 48)
        path = tmp_path / "manifest.jsonl"
        vector = random_unit_rows(rng, 1, 48)[0].astype(np.float64)
        requests = [PoolRequest((3, 10), vector), MEAN]

        def streamed(request):
            return _pooled_bytes(iter_pooled(manifest, path, lambda sid, label: request))

        def in_memory(request):
            return [pool_bag(bag, request).tobytes() for bag in bags]

        jobs = [partial(read, request) for read in (streamed, in_memory) for request in requests]
        alone = [job() for job in jobs]
        results = [None] * len(jobs)

        def run(i):
            results[i] = [jobs[i]() for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected] * 5 for expected in alone]

    def test_lazy(self, tmp_path):
        rng = np.random.default_rng(27)
        manifest, _ = _toy_dataset(tmp_path, rng)
        (tmp_path / "s1.pse").unlink()
        stream = iter_bags(manifest, tmp_path / "manifest.jsonl")
        assert next(stream).slide_id == "s0"
        with pytest.raises(MissingFile):
            next(stream)


class TestPooledReader:
    """The reader pools each slide as it is read; every row it hands over
    has the bytes of the per-bag kernels on the bag held in memory."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 9),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        block_bytes=st.integers(1, 256),
        renormalize=st.booleans(),
    )
    def test_rows_are_the_per_bag_pools(self, seed, dim, sizes, block_bytes, renormalize):
        rng = np.random.default_rng(seed)
        vectors = random_unit_rows(rng, 2, dim).astype(np.float64)
        vectors[0, 0] = 0.0  # rows that differ only in their first value tie
        with tempfile.TemporaryDirectory() as tmp:
            path = write_random_corpus(Path(tmp), rng, dim, sizes)
            with small_blocks(block_bytes):
                manifest, bags = load_manifest(path, renormalize=renormalize)
                # a top-K below, equal to and above each bag's size
                top_ks = {rec.slide_id: tuple(dict.fromkeys((max(1, n // 2), n, n + 3)))
                          for rec, n in zip(manifest.slides, sizes)}
                guided = {sid: PoolRequest(ks, vectors[int(sid[1:]) % 2])
                          for sid, ks in top_ks.items()}
                streamed = list(iter_pooled(manifest, path, lambda sid, label: guided[sid],
                                            renormalize=renormalize))
                means = list(iter_pooled(manifest, path, lambda sid, label: MEAN,
                                         renormalize=renormalize))
                for bag, (sid, label, rows), (_, _, mean) in zip(bags, streamed, means):
                    assert (sid, label) == (bag.slide_id, bag.label)
                    pools = guided_pools(bag, vectors[label], top_ks[sid])
                    scores = score_against(bag.patches, vectors[label])
                    assert rows.shape == (len(top_ks[sid]) + 1, dim)
                    for row, k in zip(rows, top_ks[sid]):
                        chained = bgap(bag.patches, top_k(scores, k))
                        assert row.tobytes() == pools[k].tobytes() == chained.tobytes()
                    assert rows[-1].tobytes() == mean[0].tobytes() == bgap(bag.patches).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 9),
        sizes=st.lists(st.integers(2, 60), min_size=2, max_size=5),
        block_bytes=st.integers(1, 600),
    )
    def test_file_pools_are_pool_bag_pools(self, seed, dim, sizes, block_bytes):
        """A stream's pools of bags in one block and in several, gathered
        from the widened block or from rows read back, hold the bytes
        pool_bag gives for the bag in memory, with tied scores."""
        rng = np.random.default_rng(seed)
        vector = random_unit_rows(rng, 1, dim)[0].astype(np.float64)
        vector[0] = 0.0  # rows that differ only in their first value tie
        with tempfile.TemporaryDirectory() as tmp:
            path = write_random_corpus(Path(tmp), rng, dim, sizes)
            with small_blocks(block_bytes):
                manifest, bags = load_manifest(path)
                requests = {bag.slide_id: PoolRequest((1, bag.patches.rows // 2, bag.patches.rows - 1,
                                                       bag.patches.rows), vector) for bag in bags}
                streamed = list(iter_pooled(manifest, path, lambda sid, label: requests[sid]))
                for bag, (sid, _, rows) in zip(bags, streamed):
                    assert rows.tobytes() == pool_bag(bag, requests[sid]).tobytes()


@contextmanager
def split_streams(split_bytes: int = 0, cpus: int = 2, quota: float = math.inf):
    """Streams fork their worker from `split_bytes` declared payload bytes
    on, any corpus by default, inside the with block, where this process
    may run on `cpus` CPUs and its cgroup CPU quota allows `quota` CPUs,
    whatever the host; yields the list of the workers' pids."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedstore, "SPLIT_BYTES", split_bytes)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(embedstore, "_quota_cpus", lambda: quota)
        patch.setattr(os, "fork", counted)
        yield pids


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _pooled_bytes(stream):
    """Each item of `stream` as comparable bytes, and the type and message
    of the error that ended it, or None."""
    got = []
    try:
        for sid, label, rows in stream:
            got.append((sid, label, rows.dtype.str, rows.shape, rows.tobytes()))
    except (ProtoshotError, ValueError) as exc:
        return got, (type(exc), str(exc))
    return got, None


class TestSplitStream:
    """A stream past embedstore.SPLIT_BYTES forks a worker that pools every
    other run of embedstore.RUN slides; what it yields, and where and how it
    fails, is the serial loop's."""

    @staticmethod
    def requests(manifest, dim, rng):
        """evaluate's kinds of request: top-Ks below, at and above a bag's
        size against its class vector, then its mean; the mean alone; or
        nothing (a slide outside the grid)."""
        vectors = random_unit_rows(rng, 2, dim).astype(np.float64)
        vectors[0, 0] = 0.0
        kinds = [PoolRequest((1, 3, 50), vectors[0]), PoolRequest((2, 4), vectors[1]),
                 MEAN, PoolRequest(mean=False)]
        chosen = {rec.slide_id: kinds[int(rng.integers(0, 4))] for rec in manifest.slides}
        return lambda sid, label: chosen[sid]

    @pytest.mark.parametrize("count, renormalize, block_bytes", [
        (17, False, 1 << 20), (40, True, 24), (70, False, 40), (96, True, 1 << 20),
    ])
    def test_rows_are_the_serial_rows(self, tmp_path, count, renormalize, block_bytes):
        rng = np.random.default_rng(count)
        path = write_random_corpus(tmp_path, rng, 5, rng.integers(1, 12, count).tolist())
        manifest = parse_manifest(path)
        request = self.requests(manifest, 5, rng)
        with small_blocks(block_bytes):
            with split_streams(split_bytes=1 << 60) as pids:
                serial = _pooled_bytes(iter_pooled(manifest, path, request,
                                                   renormalize=renormalize))
            assert pids == []
            with split_streams() as pids:
                split = _pooled_bytes(iter_pooled(manifest, path, request,
                                                  renormalize=renormalize))
        assert len(pids) == 1 and no_child_left()
        assert split == serial and serial[1] is None and len(serial[0]) == count

    @staticmethod
    def corrupt(kind, tmp_path, sid):
        """Make slide `sid` (7 rows of 4 values) fail as `kind` says; returns
        the request function of the stream."""
        target = tmp_path / f"{sid}.pse"
        values = read_embeddings_file(target).values.copy()
        if kind == "truncated":
            target.write_bytes(target.read_bytes()[:-4])
        elif kind in ("nan", "off-unit", "count", "dimension"):
            if kind == "nan":
                values[3, 2] = np.nan
            elif kind == "off-unit":
                values[5] *= 2
            elif kind == "count":
                values = values[:6]
            else:
                values = random_unit_rows(np.random.default_rng(3), 7, 5)
            n, d = values.shape
            target.write_bytes(struct.pack("<4sIII", MAGIC, n, d, 0) + values.tobytes())
        vector = np.full(4, 0.5)

        def request(slide_id, label):
            if kind == "request" and slide_id == sid:
                raise ValueError(f"no request for {slide_id}")
            return PoolRequest((2,), vector)

        return request

    @pytest.mark.parametrize("count, at", [
        pytest.param(70, 20, id="20"), pytest.param(70, 50, id="50"),
        pytest.param(70, 16, id="16"), pytest.param(70, 31, id="31"),
        pytest.param(70, 63, id="63"), pytest.param(60, 59, id="60-59"),
    ])
    @pytest.mark.parametrize("kind, error", [
        ("truncated", TruncatedPayload), ("nan", NonFiniteValue),
        ("count", PatchCountMismatch), ("off-unit", UnnormalizedRow),
        ("dimension", DimensionMismatch), ("request", ValueError),
    ])
    def test_worker_failure_raises_the_serial_error(self, tmp_path, kind, error, count, at):
        """A slide failing in a worker run (slides 16-31 and 48-63 of 70, the
        short last run 48-59 of 60), at its first, last or a middle slide,
        raises the serial error, with its message, after the same slides."""
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(at), count=count, dim=4)
        request = self.corrupt(kind, tmp_path, f"s{at}")
        path = tmp_path / "manifest.jsonl"
        serial = _pooled_bytes(iter_pooled(manifest, path, request))
        with split_streams() as pids:
            split = _pooled_bytes(iter_pooled(manifest, path, request))
        assert len(pids) == 1 and no_child_left()
        assert split == serial
        assert len(serial[0]) == at and serial[1][0] is error

    def test_close_and_a_raising_consumer_leave_no_child(self, tmp_path):
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(48), count=70)
        path = tmp_path / "manifest.jsonl"

        def consume():
            for sid, _, _ in iter_pooled(manifest, path, lambda sid, label: MEAN):
                if sid == "s40":
                    raise KeyError(sid)

        with split_streams() as pids:
            stream = iter_pooled(manifest, path, lambda sid, label: MEAN)
            assert [next(stream)[0] for _ in range(20)][-1] == "s19"
            stream.close()
            assert len(pids) == 1 and no_child_left()
            with pytest.raises(KeyError):
                consume()
            assert len(pids) == 2 and no_child_left()
            stream = iter_pooled(manifest, path, lambda sid, label: MEAN)
            assert next(stream)[0] == "s0" and next(stream)[0] == "s1"
            del stream
            assert len(pids) == 3 and no_child_left()

    @staticmethod
    def open_fds():
        return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []

    def test_a_worker_reaped_elsewhere_is_not_waited_for(self, tmp_path):
        """With SIGCHLD ignored, or the worker reaped by someone else's
        waitpid, closing the stream and a consumer's error raise nothing
        else, and the stream's pipes are closed."""
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(52), count=70)
        path = tmp_path / "manifest.jsonl"

        def consume():
            for sid, _, _ in iter_pooled(manifest, path, lambda sid, label: MEAN):
                if sid == "s40":
                    raise KeyError(sid)

        fds = self.open_fds()
        with split_streams() as pids:
            before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            try:
                stream = iter_pooled(manifest, path, lambda sid, label: MEAN)
                assert [next(stream)[0] for _ in range(20)][-1] == "s19"
                stream.close()
                with pytest.raises(KeyError):
                    consume()
            finally:
                signal.signal(signal.SIGCHLD, before)
            stream = iter_pooled(manifest, path, lambda sid, label: MEAN)
            assert [next(stream)[0] for _ in range(20)][-1] == "s19"
            os.kill(pids[-1], signal.SIGKILL)
            os.waitpid(pids[-1], 0)
            stream.close()
        assert len(pids) == 3 and no_child_left()
        assert self.open_fds() == fds

    def test_a_failed_fork_pools_every_slide_here(self, tmp_path):
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(53), count=40)
        path = tmp_path / "manifest.jsonl"
        serial = _pooled_bytes(iter_pooled(manifest, path, lambda sid, label: MEAN))
        fds = self.open_fds()

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        with split_streams() as pids:
            os.fork = no_process
            split = _pooled_bytes(iter_pooled(manifest, path, lambda sid, label: MEAN))
        assert split == serial and len(split[0]) == 40
        assert self.open_fds() == fds

    def test_worker_stays_one_run_ahead(self, tmp_path):
        """While the consumer holds the stream at slide 15, the worker pools
        the run the stream reads next (16-31) and one more (48-63), and no
        further, whatever the corpus size."""
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(50), count=200)
        marks = tmp_path / "requested"
        marks.mkdir()

        def request(sid, label):  # a side effect the worker's requests leave behind
            (marks / sid).touch()
            return MEAN

        with split_streams() as pids:
            stream = iter_pooled(manifest, tmp_path / "manifest.jsonl", request)
            assert [next(stream)[0] for _ in range(16)][-1] == "s15"
            expected = {f"s{i}" for i in [*range(16), *range(16, 32), *range(48, 64)]}
            deadline = time.monotonic() + 30
            while len(list(marks.iterdir())) < len(expected) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            assert {path.name for path in marks.iterdir()} == expected
            stream.close()
        assert len(pids) == 1 and no_child_left()

    def test_no_fork_below_the_threshold_or_on_one_cpu(self, tmp_path):
        """The declared payloads, 40 bags of 7 x 6 float32 values, must
        reach SPLIT_BYTES; a corpus of one run, one CPU, or a cgroup quota
        below two CPUs never forks."""
        manifest, _ = _equal_bags(tmp_path, np.random.default_rng(49), count=40)
        path = tmp_path / "manifest.jsonl"
        declared = 40 * 7 * 6 * 4
        streams = []
        for split_bytes, cpus, quota, slides in [
            (declared + 1, 2, math.inf, 40), (declared, 2, math.inf, 40),
            (0, 2, math.inf, 16), (0, 1, math.inf, 40), (0, 2, 1.5, 40), (0, 2, 2.0, 40),
        ]:
            part = DatasetManifest(manifest.classes, manifest.slides[:slides])
            with split_streams(split_bytes, cpus, quota) as pids:
                rows = _pooled_bytes(iter_pooled(part, path, lambda sid, label: MEAN))
            streams.append((len(pids), rows))
        assert [forks for forks, _ in streams] == [0, 1, 0, 0, 0, 1]
        assert streams[0][1] == streams[1][1] == streams[3][1] == streams[4][1] == streams[5][1]
        assert streams[2][1][0] == streams[0][1][0][:16]


def _cfs(folder: str, quota: str, period: str = "100000\n") -> dict:
    """A cgroup v1 quota and period, as files of `folder`."""
    return {f"{folder}/cpu.cfs_quota_us": quota, f"{folder}/cpu.cfs_period_us": period}


class TestCpuQuota:
    """The cgroup CPU quota, read from fake ``proc`` and ``sys`` trees."""

    @staticmethod
    def tree(root: Path, cgroup: str, files: dict) -> Path:
        (root / "proc/self").mkdir(parents=True)
        (root / "proc/self/cgroup").write_text(cgroup)
        for name, text in files.items():
            target = root / "sys/fs/cgroup" / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        return root

    @pytest.mark.parametrize("cgroup, files, cpus", [
        # cgroup v2: cpu.max holds "quota period", or "max" for none
        ("0::/app\n", {"app/cpu.max": "150000 100000\n"}, 1.5),
        ("0::/app\n", {"app/cpu.max": "max 100000\n"}, math.inf),
        # a parent's quota binds its children, down to the mount's root, which is
        # all a container may see of its own cgroup
        ("0::/a/b\n", {"a/b/cpu.max": "max 100000\n", "a/cpu.max": "100000 100000\n"}, 1.0),
        ("0::/a/b\n", {"cpu.max": "50000 100000\n"}, 0.5),
        ("0::/a/b\n", {"a/b/cpu.max": "400000 100000\n", "cpu.max": "300000 100000\n"}, 3.0),
        # cgroup v1: the hierarchy whose controllers include cpu; -1 for none
        ("4:memory:/x\n1:cpu:/x\n0::/\n", _cfs("cpu/x", "-1\n"), math.inf),
        ("4:memory:/x\n1:cpu:/x\n0::/\n", _cfs("cpu/x", "120000\n"), 1.2),
        ("2:cpu,cpuacct:/x\n", _cfs("cpu,cpuacct/x", "300000\n"), 3.0),
        ("1:cpu:/x\n", _cfs("cpu", "100000\n"), 1.0),
        ("3:cpuacct:/x\n", _cfs("cpuacct/x", "100000\n"), math.inf),
        # what cannot be read is no quota
        ("0::/app\n", {"app/cpu.max": "150000\n"}, math.inf),
        ("1:cpu:/x\n", {"cpu/x/cpu.cfs_quota_us": "100000\n"}, math.inf),
        ("1:cpu:/x\n", _cfs("cpu/x", "100000\n", "0\n"), math.inf),
        ("1:cpu:/x\n", _cfs("cpu/x", "lots\n"), math.inf),
        ("not a cgroup line\n", {"cpu.max": "100000 100000\n"}, math.inf),
    ])
    def test_least_quota_over_period(self, tmp_path, cgroup, files, cpus):
        assert embedstore._quota_cpus(self.tree(tmp_path, cgroup, files)) == cpus

    def test_no_cgroup_file_is_no_quota(self, tmp_path):
        assert embedstore._quota_cpus(tmp_path) == math.inf

    def test_reads_this_host(self):
        assert embedstore._quota_cpus() > 0
