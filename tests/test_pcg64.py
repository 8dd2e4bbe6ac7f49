"""``protoshot.pcg64`` against ``numpy.random``: the seeded state, the
64- and 32-bit streams, ``permutation`` and ``choice`` without replacement,
and the fold assignment and support draw built on them, checked against
their numpy versions kept here as oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from protoshot.evalharness import sample_few_shot, stratified_kfold
from protoshot.pcg64 import PCG64

SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 5]  # 2**128 + 5 has five 32-bit words


def numpy_kfold(labels: dict[str, int], num_folds: int, seed: int) -> dict[str, int]:
    """stratified_kfold's fold of each slide, dealt from numpy's permutations."""
    rng, fold_of = np.random.default_rng(seed), {}
    for label in sorted(set(labels.values())):
        ids = [sid for sid in labels if labels[sid] == label]
        for deal, j in enumerate(rng.permutation(len(ids))):
            fold_of[ids[j]] = deal % num_folds
    return {sid: fold_of[sid] for sid in labels}


def numpy_few_shot(ids_by_class: list[list[str]], k: int, seed: int) -> tuple[str, ...]:
    """sample_few_shot's support ids, drawn by numpy's choice."""
    rng = np.random.default_rng(seed)
    return tuple(ids[i] for ids in ids_by_class for i in rng.choice(len(ids), k, replace=False))


class CountingPCG64(PCG64):
    """Counts the 32-bit values drawn."""

    draws = 0

    def next_uint32(self):
        self.draws += 1
        return super().next_uint32()


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_state_and_streams(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    assert ours.state == theirs.bit_generator.state
    assert [ours.next_uint64() for _ in range(8)] == theirs.bit_generator.random_raw(8).tolist()
    # a 64-bit output's low half, then its high half, which is kept in the state
    expected = theirs.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    assert [ours.next_uint32() for _ in range(3)] == expected
    assert ours.state == theirs.bit_generator.state
    assert ours.state["has_uint32"] == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**300))
def test_any_seed_gives_numpys_state(seed):
    assert PCG64(seed).state == np.random.PCG64(seed).state


def test_negative_seed_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        PCG64(-1)


def test_every_permutation_up_to_3000():
    ours, theirs = PCG64(20260), np.random.default_rng(20260)
    for n in range(3001):
        assert ours.permutation(n) == theirs.permutation(n).tolist(), n


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 10000), st.data())
def test_choice_floyd_branch(seed, n, data):
    k = data.draw(st.integers(1, n))
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    assert ours.choice(n, k) == theirs.choice(n, k, replace=False).tolist()
    assert ours.state == theirs.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(10001, 30000), st.data())
def test_choice_tail_shuffle_branch(seed, n, data):
    k = data.draw(st.integers(n // 50 + 1, n))
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    assert ours.choice(n, k) == theirs.choice(n, k, replace=False).tolist()
    assert ours.state == theirs.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, 500, 10000, 10001, 20000])
def test_choice_of_one_and_of_all(n):
    for k in (1, n):
        ours, theirs = PCG64(n), np.random.default_rng(n)
        assert ours.choice(n, k) == theirs.choice(n, k, replace=False).tolist(), (n, k)


def test_choice_reaches_lemires_rejection_loop():
    """For bounds near 3 * 2**30, a quarter of the 32-bit draws are rejected,
    so some seed draws more than the five values of Floyd's three draws and
    the two swaps of its shuffle."""
    counts = []
    for seed in range(16):
        ours, theirs = CountingPCG64(seed), np.random.default_rng(seed)
        assert ours.choice(3 * 2**30, 3) == theirs.choice(3 * 2**30, 3, replace=False).tolist()
        counts.append(ours.draws)
    assert min(counts) == 5 and max(counts) > 5


def test_population_of_2_to_the_32_uses_the_full_32_bit_draw():
    for seed in range(4):
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        assert ours.choice(2**32, 3) == theirs.choice(2**32, 3, replace=False).tolist()


@pytest.mark.parametrize("draw", [lambda g: g.permutation(2**32 + 1),
                                  lambda g: g.choice(2**32 + 1, 1)])
def test_population_above_2_to_the_32_rejected_before_any_draw(draw):
    ours = CountingPCG64(0)
    with pytest.raises(ValueError, match="population must be in 0..2\\*\\*32"):
        draw(ours)
    assert ours.draws == 0 and ours.state == PCG64(0).state


def test_choice_of_more_than_the_population_rejected():
    with pytest.raises(ValueError, match="cannot take 4 of 3 without replacement"):
        PCG64(0).choice(3, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(4, 25), min_size=1, max_size=4),
    st.integers(2, 4),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_stratified_kfold_matches_numpy(sizes, num_folds, seed, data):
    classes = data.draw(st.permutations([c for c, size in enumerate(sizes) for _ in range(size)]))
    labels = {f"s{i}": c for i, c in enumerate(classes)}
    assert stratified_kfold(labels, num_folds, seed).fold_of == numpy_kfold(labels, num_folds,
                                                                            seed)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=4),
    st.integers(1, 16),
    st.integers(0, 2**64 - 1),
)
def test_sample_few_shot_matches_numpy(sizes, k, seed):
    ids = [[f"c{c}_{i}" for i in range(size)] for c, size in enumerate(sizes)]
    assume(min(sizes) >= k)
    assert sample_few_shot(ids, k, seed).support_ids == numpy_few_shot(ids, k, seed)
