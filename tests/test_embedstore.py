import io
import json
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import protoshot.embedstore as embedstore
from protoshot.embedstore import (
    HEADER_SIZE,
    MAGIC,
    DatasetManifest,
    PatchMatrix,
    SlideBag,
    SlideRecord,
    TextClassifier,
    is_normalized,
    iter_bags,
    load_manifest,
    normalize,
    off_unit_row,
    parse_manifest,
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

from protoshot.simsel import bgap, guided_pools
from protoshot.synthgen import SynthConfig, generate

from conftest import random_unit_rows


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
    """Count the float64 passes; returns the list of matrices they ran on."""
    seen = []
    original = embedstore._float64_pass

    def counted(values):
        seen.append(values)
        return original(values)

    monkeypatch.setattr(embedstore, "_float64_pass", counted)
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
        seen = counting_pass(monkeypatch)
        m = matrix([[1, 0], [0, 1], [0.6, 0.8]])
        assert not seen  # lazy: construction widens nothing
        m.row_norms()
        m.mean
        bgap(m)
        bgap(m)
        m.row_norms()
        assert len(seen) == 1

    def test_synth_never_widens(self, monkeypatch):
        seen = counting_pass(monkeypatch)
        generate(SynthConfig(num_classes=2, dim=8, slides_per_class=3, patches_min=5,
                             patches_max=9, informative_fraction=0.3, noise_scale=1.0,
                             seed=3))
        assert not seen

    def test_load_check_serves_every_full_bag_pool(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(29)
        manifest, _ = _toy_dataset(tmp_path, rng)
        seen = counting_pass(monkeypatch)
        class_vector = random_unit_rows(rng, 1, 6)[0]
        bags = []
        for bag in iter_bags(manifest, tmp_path / "manifest.jsonl"):
            bags.append(bag)
            bgap(bag.patches)
            guided_pools(bag, class_vector, (2, 100))  # one scored pool, one covering
        assert [id(values) for values in seen] == [id(bag.patches.values) for bag in bags]


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
        streamed = []
        for bag in iter_bags(manifest, path, renormalize=True):
            streamed.append(bag)
            bgap(bag.patches)
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
        assert is_normalized(bags[0].patches)

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
            (2, "num_patches", "3", "an integer"),
            (2, "num_patches", 3.7, "an integer"),
            (2, "num_patches", True, "an integer"),
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
        streamed = list(iter_bags(manifest, path, tmp_path, renormalize=True))
        assert _bag_bytes(streamed) == _bag_bytes(loaded)
        assert all(is_normalized(b.patches) for b in streamed)

    def test_lazy(self, tmp_path):
        rng = np.random.default_rng(27)
        manifest, _ = _toy_dataset(tmp_path, rng)
        (tmp_path / "s1.pse").unlink()
        stream = iter_bags(manifest, tmp_path / "manifest.jsonl")
        assert next(stream).slide_id == "s0"
        with pytest.raises(MissingFile):
            next(stream)
