import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from protoshot.adapters import row_scores, visionshot_slide_embedding
from protoshot.embedstore import PatchMatrix, SlideBag
from protoshot.errors import DimensionMismatch, EmptySubset
from protoshot.simsel import as_class_vector, bgap, clamp_k, guided_pools, score_against, top_k

from conftest import random_unit_rows, small_blocks

SRC = Path(__file__).resolve().parent.parent / "src"


def matrix(rows) -> PatchMatrix:
    return PatchMatrix(np.asarray(rows, dtype=np.float32))


def sort_then_truncate(scores, k):
    """Independent selection oracle: full sort by (-score, index), truncate."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[: min(k, len(scores))]


class TestScoreAgainst:
    def test_aligned(self):
        assert score_against(matrix([[1, 0]]), np.array([1.0, 0.0]))[0] == 1.0

    def test_orthogonal(self):
        assert score_against(matrix([[1, 0]]), np.array([0.0, 1.0]))[0] == 0.0

    def test_plain_dot(self):
        out = score_against(matrix([[0.6, 0.8]]), np.array([0.8, 0.6]))
        assert out[0] == pytest.approx(0.96, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_against(matrix([[1, 0]]), np.array([1.0, 0.0, 0.0]))

    def test_length_and_dtype(self):
        rng = np.random.default_rng(0)
        bag = PatchMatrix(random_unit_rows(rng, 17, 5))
        out = score_against(bag, random_unit_rows(rng, 1, 5)[0])
        assert out.shape == (17,) and out.dtype == np.float64

    def test_unit_inputs_bounded(self):
        rng = np.random.default_rng(1)
        bag = PatchMatrix(random_unit_rows(rng, 200, 8))
        w = random_unit_rows(rng, 1, 8)[0]
        out = score_against(bag, w)
        assert np.all(np.abs(out) <= 1 + 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 60), st.integers(2, 12)),
            elements=st.floats(-1e6, 1e6, width=32),
        ),
        seed=st.integers(0, 2**32 - 1),
        block_bytes=st.integers(1, 1024),
    )
    def test_blocked_scores_are_the_whole_copy_einsum(self, values, seed, block_bytes):
        """Scored a block at a time, the bytes are those of one einsum on the
        whole widened bag, and of the grid's row_scores kernel."""
        v = values.astype(np.float64)
        w = np.random.default_rng(seed).standard_normal(values.shape[1])
        with small_blocks(block_bytes):
            out = score_against(PatchMatrix(values), w)
        assert out.tobytes() == np.einsum("nd,d->n", v, w).tobytes()
        assert out.tobytes() == row_scores(v, w[None])[:, 0].tobytes()

    def test_lone_last_row_of_a_wide_bag_scores_in_its_block(self):
        rng = np.random.default_rng(44)
        values = random_unit_rows(rng, 3, 10000)
        w = rng.standard_normal(10000)
        with small_blocks(2 * 8 * 10000):
            out = score_against(PatchMatrix(values), w)
        assert out.tobytes() == row_scores(values.astype(np.float64), w[None])[:, 0].tobytes()

    def test_scores_do_not_depend_on_blas_threads(self):
        """No score goes through BLAS, whose sums follow its thread count: a
        fixed 1500 x 512 bag scores to the same bytes with 1 and 2 threads."""
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            from protoshot.embedstore import PatchMatrix
            from protoshot.simsel import score_against
            rng = np.random.default_rng(2024)
            rows = rng.standard_normal((1500, 512))
            rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
            w = rng.standard_normal(512)
            scores = score_against(PatchMatrix(rows.astype(np.float32)), w)
            print(hashlib.sha256(scores.tobytes()).hexdigest())
            """
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_linear_in_class_vector(self):
        rng = np.random.default_rng(2)
        bag = PatchMatrix(random_unit_rows(rng, 50, 6))
        w1 = rng.standard_normal(6)
        w2 = rng.standard_normal(6)
        for a, b in [(2.0, -0.5), (0.25, 3.0), (-1.5, -1.5)]:
            combined = score_against(bag, a * w1 + b * w2)
            split = a * score_against(bag, w1) + b * score_against(bag, w2)
            np.testing.assert_allclose(combined, split, rtol=0, atol=1e-9)


class TestTopK:
    def test_basic(self):
        sel = top_k(np.array([0.9, 0.1, 0.5]), 2)
        assert sel.tolist() == [0, 2] and len(sel) == 2

    def test_read_only_int64_indices(self):
        sel = top_k(np.array([0.9, 0.1, 0.5]), 2)
        assert sel.dtype == np.int64 and sel.flags.c_contiguous and not sel.flags.writeable

    def test_tie_breaks_by_index(self):
        sel = top_k(np.array([0.5, 0.5, 0.1]), 1)
        assert sel.tolist() == [0]

    def test_k_clamps(self):
        sel = top_k(np.array([0.3, 0.1]), 10)
        assert len(sel) == 2
        assert sorted(sel.tolist()) == [0, 1]

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(31)
        sel = top_k(scores, 31)
        assert sorted(sel.tolist()) == list(range(31))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(np.array([1.0]), 0)

    def test_matches_sort_oracle(self):
        """1000 random score vectors, duplicates included, exact agreement."""
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
            else:
                scores = rng.standard_normal(n)
            k = int(rng.integers(1, n + 4))
            sel = top_k(scores, k)
            assert sel.tolist() == sort_then_truncate(list(scores), k)

    def test_selected_dominate_unselected(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 4, size=40) / 3.0
        sel = top_k(scores, 11)
        chosen = set(sel.tolist())
        rest = [scores[i] for i in range(40) if i not in chosen]
        assert min(scores[i] for i in chosen) >= max(rest)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            scores = rng.permutation(np.linspace(0.0, 1.0, n))  # all distinct
            k = int(rng.integers(1, n + 1))
            base = set(top_k(scores, k).tolist())
            perm = rng.permutation(n)
            permuted = set(top_k(scores[perm], k).tolist())
            assert {int(perm[i]) for i in permuted} == base


class TestBgap:
    def test_identical_rows(self):
        v = np.array([0.6, 0.8], dtype=np.float32)
        bag = matrix([v, v, v])
        np.testing.assert_array_equal(bgap(bag), v.astype(np.float64))

    def test_two_basis_rows(self):
        np.testing.assert_array_equal(bgap(matrix([[1, 0], [0, 1]])), [0.5, 0.5])

    def test_matches_naive_mean(self):
        """Random subsets vs a straight-line loop oracle."""
        rng = np.random.default_rng(7)
        bag = PatchMatrix(random_unit_rows(rng, 200, 12))
        rows = bag.values
        for _ in range(60):
            size = int(rng.integers(1, 200))
            subset = rng.choice(200, size=size, replace=False)
            naive = sum(rows[i].astype(np.float64) for i in subset) / len(subset)
            np.testing.assert_allclose(bgap(bag, subset), naive, rtol=0, atol=1e-12)

    def test_singleton_subset_exact(self):
        rng = np.random.default_rng(8)
        bag = PatchMatrix(random_unit_rows(rng, 9, 4))
        np.testing.assert_array_equal(bgap(bag, [5]), bag.values[5].astype(np.float64))

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            bgap(matrix([[1, 0]]), [])

    def test_out_of_range_subset(self):
        with pytest.raises(IndexError):
            bgap(matrix([[1, 0]]), [1])

    def test_subset_order_irrelevant(self):
        rng = np.random.default_rng(9)
        bag = PatchMatrix(random_unit_rows(rng, 30, 5))
        subset = rng.choice(30, size=12, replace=False)
        shuffled = subset[rng.permutation(12)]
        assert np.array_equal(bgap(bag, subset), bgap(bag, shuffled))

    def test_norm_bounded_for_unit_rows(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            bag = PatchMatrix(random_unit_rows(rng, int(rng.integers(1, 50)), 7))
            assert np.linalg.norm(bgap(bag)) <= 1 + 1e-9

    def test_float64_output(self):
        assert bgap(matrix([[1, 0]])).dtype == np.float64


class TestFullBagPool:
    """The full-bag pool is the matrix's cached float64 mean, and a top-K that
    covers the bag pools to the same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 40), st.integers(2, 12)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_equals_plain_float64_mean(self, values):
        bag = PatchMatrix(values)
        expected = values.astype(np.float64).mean(axis=0).tobytes()
        assert bgap(bag).tobytes() == expected
        assert bgap(bag, np.arange(bag.rows)[::-1]).tobytes() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 60), st.integers(2, 12)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        picks=st.lists(st.integers(0, 59), min_size=1, max_size=80),
        block_bytes=st.integers(1, 1024),
    )
    def test_blocked_subset_is_the_whole_copy_mean(self, values, picks, block_bytes):
        """A subset, repeats included, pooled a block at a time with its sum
        carried between blocks, keeps the bytes of one whole float64 copy."""
        subset = np.array(picks) % values.shape[0]
        expected = values[np.sort(subset)].astype(np.float64).mean(axis=0)
        with small_blocks(block_bytes):
            assert bgap(PatchMatrix(values), subset).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), extra=st.integers(0, 5))
    def test_covering_top_k_equals_scored_pool(self, seed, rows, extra):
        rng = np.random.default_rng(seed)
        bag = PatchMatrix(random_unit_rows(rng, rows, 6))
        w = random_unit_rows(rng, 1, 6)[0]
        k = rows + extra
        scored = bgap(bag, top_k(score_against(bag, w), k))
        assert scored.tobytes() == bgap(bag).tobytes()


class TestGuidedPools:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 30),
        dim=st.integers(2, 10),
        distinct=st.integers(1, 30),
        ks=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    )
    def test_every_form_is_the_reference_expression(self, seed, rows, dim, distinct, ks):
        """Many-k pools, the one-k adapter and the plain chain of kernels give
        the same bytes for every k, covering ks and score ties included (rows
        repeat when `distinct` is below `rows`)."""
        rng = np.random.default_rng(seed)
        values = random_unit_rows(rng, distinct, dim)[rng.integers(0, distinct, rows)]
        bag = SlideBag("s", PatchMatrix(values), 0)
        w = random_unit_rows(rng, 1, dim)[0]
        pools = guided_pools(bag, w, ks)
        assert sorted(pools) == sorted(set(ks))
        p = bag.patches
        for k in ks:
            reference = bgap(p, top_k(score_against(p, w), k)).tobytes()
            assert pools[k].tobytes() == reference
            assert visionshot_slide_embedding(bag, w, k).tobytes() == reference


class TestChecks:
    def test_clamp_k(self):
        assert clamp_k(3, 10) == 3 and clamp_k(10, 10) == 10 and clamp_k(11, 10) == 10
        with pytest.raises(ValueError):
            clamp_k(0, 10)

    def test_as_class_vector(self):
        w = as_class_vector(matrix([[1, 0]]), np.array([[0.5], [0.5]], dtype=np.float32))
        assert w.dtype == np.float64 and w.tolist() == [0.5, 0.5]
        with pytest.raises(DimensionMismatch):
            as_class_vector(matrix([[1, 0]]), np.array([1.0, 0.0, 0.0]))
