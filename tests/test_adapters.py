import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoshot import adapters, simsel
from protoshot.adapters import (
    CacheModel,
    PrototypeSet,
    SlidePrediction,
    build_cache,
    build_prototypes,
    mizero_predict,
    mizero_scores,
    predict_prototype,
    prototype_rows,
    prototype_scores,
    prototypes_from_pooled,
    row_scores,
    tip_adapter_scores,
    read_prototypes,
    simpleshot_prototypes,
    tip_adapter_predict,
    visionshot_slide_embedding,
    write_prototypes,
)
from protoshot.embedstore import PatchMatrix, SlideBag, TextClassifier
from protoshot.errors import (
    DimensionMismatch,
    EmptyCache,
    EmptyClassSupport,
    PromptIndexOutOfRange,
    SidecarError,
    ZeroVectorRow,
)
from protoshot.simsel import bgap, guided_pools, score_against, top_k

from conftest import random_unit_rows


class TestAdoptedArrays:
    """Every model keeps a read-only C-ordered array, and a caller's writable
    array is copied, never frozen."""

    @pytest.mark.parametrize(
        "given, kept",
        [
            pytest.param(np.eye(2, 3, dtype=np.float32), lambda a: PatchMatrix(a).values,
                         id="PatchMatrix"),
            pytest.param(np.eye(2, 3, dtype=np.float32)[None],
                         lambda a: TextClassifier(("a", "b"), a).weights, id="TextClassifier"),
            pytest.param(np.eye(2, 3), lambda a: PrototypeSet(("a", "b"), a, True).prototypes,
                         id="PrototypeSet"),
            pytest.param(np.array([0.2, 0.8]),
                         lambda a: SlidePrediction("s", a, 1, "m").class_scores,
                         id="SlidePrediction"),
            pytest.param(np.eye(2, 3), lambda a: CacheModel(a, np.eye(2)).keys,
                         id="CacheModel.keys"),
            pytest.param(np.eye(2), lambda a: CacheModel(np.eye(2, 3), a).values,
                         id="CacheModel.values"),
        ],
    )
    def test_callers_array_stays_writable(self, given, kept):
        array = kept(given)
        assert not array.flags.writeable and array.flags.c_contiguous
        np.testing.assert_array_equal(array, given)
        given[...] = 0.5  # raises if the constructor froze the caller's array
        assert not (array == 0.5).all()

    def test_read_only_input_is_kept_as_is(self):
        values = np.eye(2, 3, dtype=np.float32)
        values.flags.writeable = False
        assert PatchMatrix(values).values is values
        rows = np.eye(2, 3)
        rows.flags.writeable = False
        assert PrototypeSet(("a", "b"), rows, True).prototypes is rows


def bag_of(rows, slide_id="s", label=None) -> SlideBag:
    return SlideBag(slide_id, PatchMatrix(np.asarray(rows, dtype=np.float32)), label)


def orthonormal_classifier(dim: int, num_classes: int) -> TextClassifier:
    weights = np.eye(num_classes, dim, dtype=np.float32)[None, :, :]
    return TextClassifier(tuple(f"c{i}" for i in range(num_classes)), weights)


def random_support(rng, num_classes, dim, slides_per_class, max_patches=30):
    support = []
    for c in range(num_classes):
        for j in range(slides_per_class):
            n = int(rng.integers(2, max_patches))
            support.append(
                bag_of(random_unit_rows(rng, n, dim), f"c{c}_s{j}", label=c)
            )
    return support


def random_classifier(rng, num_classes, dim, prompts=1) -> TextClassifier:
    w = random_unit_rows(rng, prompts * num_classes, dim).reshape(prompts, num_classes, dim)
    return TextClassifier(tuple(f"c{i}" for i in range(num_classes)), w)


def naive_visionshot_prototypes(support, classifier, k, normalize=True):
    """Straight-line reference: explicit loops, python sort, no shared code."""
    prompts = classifier.weights.astype(np.float64)
    num_prompts, num_classes, dim = prompts.shape
    canon = []
    for c in range(num_classes):
        v = sum(prompts[p, c] for p in range(num_prompts)) / num_prompts
        canon.append(v / math.sqrt(float(v @ v)))
    protos = []
    for c in range(num_classes):
        pooled = []
        for bag in support:
            if bag.label != c:
                continue
            rows = bag.patches.values.astype(np.float64)
            scores = [float(rows[i] @ canon[c]) for i in range(len(rows))]
            order = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
            chosen = order[: min(k, len(rows))]
            pooled.append(sum(rows[i] for i in chosen) / len(chosen))
        proto = sum(pooled) / len(pooled)
        if normalize:
            proto = proto / math.sqrt(float(proto @ proto))
        protos.append(proto)
    return np.stack(protos)


class TestVisionshotEmbedding:
    def test_identical_rows(self):
        v = random_unit_rows(np.random.default_rng(0), 1, 6)[0]
        bag = bag_of(np.tile(v, (12, 1)))
        for k in (1, 3, 12, 99):
            np.testing.assert_allclose(
                visionshot_slide_embedding(bag, v.astype(np.float64), k),
                v.astype(np.float64),
                rtol=0,
                atol=1e-12,
            )

    def test_selects_aligned_rows(self):
        """2 rows nearly on the class vector among 98 near-orthogonal ones."""
        rng = np.random.default_rng(1)
        dim = 16
        w = np.zeros(dim)
        w[0] = 1.0
        aligned = np.zeros((2, dim))
        aligned[:, 0] = 0.99
        aligned[0, 1] = math.sqrt(1 - 0.99**2)
        aligned[1, 2] = math.sqrt(1 - 0.99**2)
        background = random_unit_rows(rng, 98, dim).astype(np.float64)
        background[:, 0] = 0.0
        background /= np.linalg.norm(background, axis=1)[:, None]
        rows = np.vstack([background[:50], aligned, background[50:]]).astype(np.float32)
        bag = bag_of(rows)
        expected = rows[50:52].astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(
            visionshot_slide_embedding(bag, w, 2), expected, rtol=0, atol=1e-12
        )

    def test_k_at_least_bag_size_equals_full_pool(self):
        rng = np.random.default_rng(2)
        bag = bag_of(random_unit_rows(rng, 23, 7))
        w = random_unit_rows(rng, 1, 7)[0].astype(np.float64)
        assert np.array_equal(
            visionshot_slide_embedding(bag, w, 23), bgap(bag.patches)
        )
        assert np.array_equal(
            visionshot_slide_embedding(bag, w, 500), bgap(bag.patches)
        )

    def test_covering_k_skips_scoring_but_checks(self, monkeypatch):
        rng = np.random.default_rng(3)
        bag = bag_of(random_unit_rows(rng, 9, 5))
        w = random_unit_rows(rng, 1, 5)[0]
        expected = bgap(bag.patches, top_k(score_against(bag.patches, w), 9))

        def no_scoring(*args):
            raise AssertionError("a covering k scored the bag")

        assert not hasattr(adapters, "score_against")  # it scores through simsel
        monkeypatch.setattr(simsel, "score_against", no_scoring)
        for k in (9, 10, 1000):
            assert visionshot_slide_embedding(bag, w, k).tobytes() == expected.tobytes()
        with pytest.raises(DimensionMismatch):
            visionshot_slide_embedding(bag, np.ones(4), 10)
        with pytest.raises(ValueError):
            visionshot_slide_embedding(bag_of(random_unit_rows(rng, 1, 5)), w, 0)


class TestBuildPrototypes:
    def test_basis_slides_give_basis_prototypes(self):
        dim = 4
        clf = orthonormal_classifier(dim, 3)
        support = [
            bag_of(np.tile(np.eye(dim, dtype=np.float32)[c], (5, 1)), f"s{c}", label=c)
            for c in range(3)
        ]
        protos = build_prototypes(support, clf, k=2)
        np.testing.assert_allclose(protos.prototypes, np.eye(3, dim), rtol=0, atol=1e-7)

    def test_equals_simpleshot_when_k_covers_bags(self):
        rng = np.random.default_rng(3)
        clf = random_classifier(rng, 3, 8)
        support = random_support(rng, 3, 8, slides_per_class=4, max_patches=20)
        vs = build_prototypes(support, clf, k=1000)
        ss = simpleshot_prototypes(support, num_classes=3, class_names=clf.class_names)
        np.testing.assert_allclose(vs.prototypes, ss.prototypes, rtol=0, atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            clf = random_classifier(rng, 3, 10, prompts=2)
            support = random_support(rng, 3, 10, slides_per_class=4)
            k = int(rng.integers(1, 12))
            protos = build_prototypes(support, clf, k)
            expected = naive_visionshot_prototypes(support, clf, k)
            np.testing.assert_allclose(protos.prototypes, expected, rtol=0, atol=1e-10)

    def test_empty_class_support(self):
        rng = np.random.default_rng(5)
        clf = random_classifier(rng, 3, 6)
        support = random_support(rng, 2, 6, slides_per_class=2)  # class 2 missing
        with pytest.raises(EmptyClassSupport) as err:
            build_prototypes(support, clf, k=3)
        assert err.value.class_name == "c2"

    def test_unlabeled_support_rejected(self):
        rng = np.random.default_rng(6)
        clf = random_classifier(rng, 2, 6)
        support = [bag_of(random_unit_rows(rng, 4, 6), "s", label=None)]
        with pytest.raises(ValueError):
            build_prototypes(support, clf, k=2)

    def test_duplicate_support_slides_no_op(self):
        rng = np.random.default_rng(7)
        clf = random_classifier(rng, 2, 6)
        support = random_support(rng, 2, 6, slides_per_class=2)
        base = build_prototypes(support, clf, k=4)
        doubled = build_prototypes(support + support, clf, k=4)
        np.testing.assert_allclose(
            doubled.prototypes, base.prototypes, rtol=0, atol=1e-12
        )

    def test_provenance(self):
        rng = np.random.default_rng(8)
        clf = random_classifier(rng, 2, 6)
        support = random_support(rng, 2, 6, slides_per_class=3)
        protos = build_prototypes(support, clf, k=7)
        assert protos.top_k == 7 and protos.normalized
        assert protos.support["c0"] == ("c0_s0", "c0_s1", "c0_s2")

    def test_unnormalized_flag(self):
        rng = np.random.default_rng(9)
        clf = random_classifier(rng, 2, 6)
        support = random_support(rng, 2, 6, slides_per_class=2)
        protos = build_prototypes(support, clf, k=4, normalize_prototypes=False)
        expected = naive_visionshot_prototypes(support, clf, 4, normalize=False)
        np.testing.assert_allclose(protos.prototypes, expected, rtol=0, atol=1e-10)
        assert not protos.normalized


def same_prototypes(a, b) -> bool:
    return (
        a.class_names == b.class_names
        and a.prototypes.tobytes() == b.prototypes.tobytes()
        and (a.normalized, a.top_k, a.support) == (b.normalized, b.top_k, b.support)
    )


class TestStreamedSupport:
    """A one-shot generator of support slides builds the same prototypes as a list."""

    def test_build_prototypes(self):
        rng = np.random.default_rng(40)
        clf = random_classifier(rng, 3, 8, prompts=2)
        support = random_support(rng, 3, 8, slides_per_class=3)
        rng.shuffle(support)
        for normalize in (True, False):
            listed = build_prototypes(support, clf, 5, normalize)
            streamed = build_prototypes((bag for bag in support), clf, 5, normalize)
            assert same_prototypes(listed, streamed)

    def test_simpleshot_prototypes(self):
        rng = np.random.default_rng(41)
        support = random_support(rng, 3, 8, slides_per_class=3)
        rng.shuffle(support)
        names = ("x", "y", "z")
        listed = simpleshot_prototypes(support, num_classes=3, class_names=names)
        streamed = simpleshot_prototypes(
            (bag for bag in support), num_classes=3, class_names=names
        )
        assert same_prototypes(listed, streamed)
        # num_classes inferred from the labels
        assert same_prototypes(
            simpleshot_prototypes(support), simpleshot_prototypes(iter(support))
        )

    def test_bad_k_consumes_nothing(self):
        rng = np.random.default_rng(43)
        clf = random_classifier(rng, 3, 8)
        stream = iter(random_support(rng, 3, 8, 2))
        with pytest.raises(ValueError):
            build_prototypes(stream, clf, 0)
        assert len(list(stream)) == 6

    def test_empty_class_in_stream(self):
        rng = np.random.default_rng(42)
        clf = random_classifier(rng, 3, 8)
        support = [b for b in random_support(rng, 3, 8, 2) if b.label != 1]
        with pytest.raises(EmptyClassSupport) as err:
            build_prototypes(iter(support), clf, 4)
        assert err.value.class_name == "c1"


class TestSimpleshotPrototypes:
    def test_single_identical_slide(self):
        v = random_unit_rows(np.random.default_rng(10), 1, 5)[0]
        support = [
            bag_of(np.tile(v, (7, 1)), "a", label=0),
            bag_of(random_unit_rows(np.random.default_rng(11), 4, 5), "b", label=1),
        ]
        protos = simpleshot_prototypes(support)
        np.testing.assert_allclose(protos.prototypes[0], v, rtol=0, atol=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        support = random_support(rng, 3, 9, slides_per_class=3)
        protos = simpleshot_prototypes(support, num_classes=3)
        for c in range(3):
            pooled = [
                bag.patches.values.astype(np.float64).mean(axis=0)
                for bag in support
                if bag.label == c
            ]
            expected = sum(pooled) / len(pooled)
            expected /= np.linalg.norm(expected)
            np.testing.assert_allclose(protos.prototypes[c], expected, rtol=0, atol=1e-10)

    def test_empty_class(self):
        rng = np.random.default_rng(13)
        support = random_support(rng, 2, 5, slides_per_class=1)
        with pytest.raises(EmptyClassSupport):
            simpleshot_prototypes(support, num_classes=3)


class TestPredictPrototype:
    def test_parallel_prototype_wins(self):
        rng = np.random.default_rng(14)
        protos = simpleshot_prototypes(
            [
                bag_of(np.tile(np.eye(4, dtype=np.float32)[c], (3, 1)), f"s{c}", label=c)
                for c in range(3)
            ]
        )
        bag = bag_of(np.tile(np.eye(4, dtype=np.float32)[0], (5, 1)), "q")
        pred = predict_prototype(bag, protos)
        assert pred.predicted == 0

    def test_all_prototypes_identical_ties_to_zero(self):
        rng = np.random.default_rng(15)
        v = random_unit_rows(rng, 1, 6)[0]
        support = [bag_of(np.tile(v, (3, 1)), f"s{c}", label=c) for c in range(3)]
        protos = simpleshot_prototypes(support)
        pred = predict_prototype(bag_of(random_unit_rows(rng, 8, 6), "q"), protos)
        assert pred.predicted == 0

    def test_matches_linear_scan_oracle(self):
        """500 random (bag, prototypes) pairs against an explicit max scan."""
        rng = np.random.default_rng(16)
        for _ in range(500):
            dim = int(rng.integers(3, 9))
            num_classes = int(rng.integers(2, 6))
            support = random_support(rng, num_classes, dim, 1, max_patches=8)
            protos = simpleshot_prototypes(support, num_classes=num_classes)
            bag = bag_of(random_unit_rows(rng, int(rng.integers(1, 12)), dim), "q")
            pred = predict_prototype(bag, protos)
            pooled = bgap(bag.patches)
            best, best_score = 0, -np.inf
            for c in range(num_classes):
                score = float(protos.prototypes[c] @ pooled)
                if score > best_score:
                    best, best_score = c, score
            assert pred.predicted == best
            np.testing.assert_allclose(
                pred.class_scores,
                [float(protos.prototypes[c] @ pooled) for c in range(num_classes)],
                rtol=0,
                atol=1e-12,
            )

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        support = random_support(rng, 3, 6, 2)
        protos = simpleshot_prototypes(support, num_classes=3)
        rows = random_unit_rows(rng, 10, 6)
        base = predict_prototype(bag_of(rows, "q"), protos).predicted
        for lam in (1e-3, 0.5, 7.0, 1e3):
            scaled = predict_prototype(bag_of(rows * lam, "q"), protos).predicted
            assert scaled == base

    def test_patch_order_invariance(self):
        rng = np.random.default_rng(18)
        support = random_support(rng, 3, 6, 2)
        protos = simpleshot_prototypes(support, num_classes=3)
        rows = random_unit_rows(rng, 20, 6)
        base = predict_prototype(bag_of(rows, "q"), protos).predicted
        for _ in range(10):
            perm = rng.permutation(20)
            assert predict_prototype(bag_of(rows[perm], "q"), protos).predicted == base

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(19)
        protos = simpleshot_prototypes(random_support(rng, 2, 6, 1), num_classes=2)
        with pytest.raises(DimensionMismatch):
            predict_prototype(bag_of(random_unit_rows(rng, 3, 5), "q"), protos)


class TestMizero:
    def test_pure_class_bag(self):
        clf = orthonormal_classifier(5, 3)
        bag = bag_of(np.tile(np.eye(5, dtype=np.float32)[1], (9, 1)), "q")
        pred = mizero_predict(bag, clf)
        assert pred.predicted == 1
        assert pred.class_scores[1] == pytest.approx(1.0, abs=1e-7)

    def test_even_split_ties_to_zero(self):
        clf = orthonormal_classifier(4, 2)
        rows = np.vstack(
            [np.tile(np.eye(4, dtype=np.float32)[0], (6, 1)),
             np.tile(np.eye(4, dtype=np.float32)[1], (6, 1))]
        )
        pred = mizero_predict(bag_of(rows, "q"), clf)
        assert pred.class_scores[0] == pred.class_scores[1]
        assert pred.predicted == 0

    def test_matches_patchwise_mean_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            clf = random_classifier(rng, 3, 7, prompts=2)
            bag = bag_of(random_unit_rows(rng, int(rng.integers(1, 30)), 7), "q")
            p = int(rng.integers(0, 2))
            pred = mizero_predict(bag, clf, p)
            rows = bag.patches.values.astype(np.float64)
            w = clf.weights[p].astype(np.float64)
            expected = np.array(
                [np.mean([row @ w[c] for row in rows]) for c in range(3)]
            )
            np.testing.assert_allclose(pred.class_scores, expected, rtol=0, atol=1e-12)
            assert pred.predicted == int(np.argmax(expected))

    def test_prompt_out_of_range(self):
        rng = np.random.default_rng(21)
        clf = random_classifier(rng, 2, 5, prompts=3)
        bag = bag_of(random_unit_rows(rng, 4, 5), "q")
        with pytest.raises(PromptIndexOutOfRange):
            mizero_predict(bag, clf, 3)

    def test_method_tag(self):
        rng = np.random.default_rng(22)
        clf = random_classifier(rng, 2, 5)
        pred = mizero_predict(bag_of(random_unit_rows(rng, 3, 5), "q"), clf)
        assert pred.method == "mizero"


class TestTipAdapter:
    def test_alpha_zero_is_zero_shot(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            clf = random_classifier(rng, 3, 6)
            support = random_support(rng, 3, 6, 1, max_patches=6)
            cache = build_cache(support, 3, alpha=0.0, beta=2.0)
            bag = bag_of(random_unit_rows(rng, int(rng.integers(1, 10)), 6), "q")
            tip = tip_adapter_predict(bag, cache, clf)
            pooled = bgap(bag.patches)
            zero_shot = clf.canonical_vectors() @ (pooled / np.linalg.norm(pooled))
            assert tip.predicted == int(np.argmax(zero_shot))

    def test_matching_cache_entry_dominates(self):
        rng = np.random.default_rng(24)
        dim = 8
        rows = random_unit_rows(rng, 5, dim)
        bag = bag_of(rows, "q")
        query = bgap(bag.patches)
        query /= np.linalg.norm(query)
        values = np.zeros((1, 3))
        values[0, 2] = 1.0
        cache = CacheModel(keys=query[None, :], values=values, alpha=100.0, beta=20.0)
        clf = random_classifier(rng, 3, dim)
        assert tip_adapter_predict(bag, cache, clf).predicted == 2

    def test_matches_formula_oracle(self):
        """Random 3-class instances with M=6 cache entries."""
        rng = np.random.default_rng(25)
        for _ in range(100):
            dim = 7
            clf = random_classifier(rng, 3, dim, prompts=2)
            support = random_support(rng, 3, dim, 2, max_patches=6)
            alpha = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.5, 8.0))
            cache = build_cache(support, 3, alpha, beta)
            assert cache.size == 6
            bag = bag_of(random_unit_rows(rng, int(rng.integers(1, 9)), dim), "q")
            pred = tip_adapter_predict(bag, cache, clf)

            q = bag.patches.values.astype(np.float64).mean(axis=0)
            q = q / math.sqrt(float(q @ q))
            prompts = clf.weights.astype(np.float64)
            expected = np.zeros(3)
            for c in range(3):
                canon = (prompts[0, c] + prompts[1, c]) / 2
                canon = canon / math.sqrt(float(canon @ canon))
                cache_term = 0.0
                for m in range(6):
                    affinity = math.exp(-beta * (1.0 - float(q @ cache.keys[m])))
                    cache_term += affinity * cache.values[m, c]
                expected[c] = alpha * cache_term + float(q @ canon)
            np.testing.assert_allclose(pred.class_scores, expected, rtol=0, atol=1e-10)
            assert pred.predicted == int(np.argmax(expected))

    def test_empty_cache(self):
        with pytest.raises(EmptyCache):
            build_cache([], 3)

    def test_support_label_out_of_range_named(self):
        rng = np.random.default_rng(26)
        support = [bag_of(random_unit_rows(rng, 3, 4), "a", label=0),
                   bag_of(random_unit_rows(rng, 3, 4), "b", label=5)]
        with pytest.raises(ValueError, match="support slide 'b' has label 5, but there are 2"):
            build_cache(support, 2)
        with pytest.raises(ValueError, match="support slide 'b' has no label"):
            build_cache([support[0], bag_of(random_unit_rows(rng, 3, 4), "b")], 2)

    def test_one_hot_values_enforced(self):
        keys = np.eye(2, 4)
        with pytest.raises(ValueError):
            CacheModel(keys=keys, values=np.full((2, 3), 0.5))

    def test_nan_key_is_not_unit(self):
        keys = np.eye(2, 4)
        keys[1, 3] = np.nan
        with pytest.raises(ValueError, match="cache keys must be unit norm"):
            CacheModel(keys=keys, values=np.eye(2))


class TestPrototypePersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        clf = random_classifier(rng, 3, 6)
        support = random_support(rng, 3, 6, 2)
        protos = build_prototypes(support, clf, k=5)
        write_prototypes(protos, tmp_path / "proto.pse")
        back = read_prototypes(tmp_path / "proto.pse")
        assert back.class_names == protos.class_names
        assert back.top_k == 5 and back.normalized
        assert back.support == protos.support
        np.testing.assert_allclose(back.prototypes, protos.prototypes, rtol=0, atol=1e-6)

    def test_round_trip_unnormalized(self, tmp_path):
        rng = np.random.default_rng(27)
        support = random_support(rng, 2, 6, 2)
        protos = simpleshot_prototypes(support, normalize_prototypes=False)
        write_prototypes(protos, tmp_path / "proto.pse")
        back = read_prototypes(tmp_path / "proto.pse")
        assert back.top_k is None and not back.normalized
        np.testing.assert_allclose(back.prototypes, protos.prototypes, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize(
        "sidecar, key, reason",
        [
            ('{"top_k": 5, "normalized": true}', "class_names", "missing key 'class_names'"),
            ('{"class_names": ["a", "b"],', None, "malformed JSON"),
        ],
    )
    def test_bad_sidecar_named(self, tmp_path, sidecar, key, reason):
        rng = np.random.default_rng(28)
        path = tmp_path / "proto.pse"
        write_prototypes(simpleshot_prototypes(random_support(rng, 2, 6, 2)), path)
        (tmp_path / "proto.pse.json").write_text(sidecar)
        with pytest.raises(SidecarError) as err:
            read_prototypes(path)
        assert err.value.key == key
        assert str(err.value).startswith(f"{tmp_path / 'proto.pse.json'}: {reason}")


class TestRowScores:
    """One kernel scores a single bag and a whole fold with the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        dim=st.integers(2, 130),
        classes=st.integers(1, 20),
    )
    def test_rows_equal_one_row_calls(self, seed, n, dim, classes):
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((n, dim))
        # C-order weights, and a transposed view as tip_adapter_scores passes
        transposed = rng.standard_normal((dim, classes)).T
        for weights in (rng.standard_normal((classes, dim)), transposed):
            scores = row_scores(queries, weights)
            assert scores.shape == (n, classes) and scores.dtype == np.float64
            for i in range(n):
                assert scores[i].tobytes() == row_scores(queries[i][None], weights)[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 40),
        num_classes=st.integers(2, 6),
        prompts=st.integers(1, 3),
        n=st.integers(1, 12),
    )
    def test_batched_cores_equal_per_bag_predictions(self, seed, dim, num_classes, prompts, n):
        rng = np.random.default_rng(seed)
        clf = random_classifier(rng, num_classes, dim, prompts)
        support = random_support(rng, num_classes, dim, 2)
        test = [bag_of(random_unit_rows(rng, int(rng.integers(1, 20)), dim)) for _ in range(n)]
        # a fold's queries: full-bag means stacked row by row, as run_grid's table holds them
        queries = np.stack([bgap(bag.patches) for bag in test])
        protos = simpleshot_prototypes(support)
        cache = build_cache(support, num_classes, alpha=0.7, beta=4.0)
        batched = {
            "prototype": prototype_scores(queries, protos),
            "mizero": mizero_scores(queries, clf, prompts - 1),
            "tipadapter": tip_adapter_scores(queries, cache, clf.canonical_vectors()),
        }
        for i, bag in enumerate(test):
            per_bag = {
                "prototype": predict_prototype(bag, protos),
                "mizero": mizero_predict(bag, clf, prompts - 1),
                "tipadapter": tip_adapter_predict(bag, cache, clf),
            }
            for name, pred in per_bag.items():
                assert batched[name][i].tobytes() == pred.class_scores.tobytes(), name
                assert int(batched[name][i].argmax()) == pred.predicted, name

    def test_identical_prototypes_resolve_to_lower_index(self):
        rng = np.random.default_rng(40)
        p, q = random_unit_rows(rng, 2, 8).astype(np.float64)
        bag = bag_of(np.stack([p, p]).astype(np.float32))
        for rows, expected in (([p, p, q], 0), ([q, p, p], 1), ([-p, q, q], 1)):
            protos = PrototypeSet(("a", "b", "c"), np.stack(rows), normalized=True)
            pred = predict_prototype(bag, protos)
            scores = pred.class_scores
            assert pred.predicted == expected
            assert scores[expected] == scores.max()

    def test_core_checks_query_dimension(self):
        rng = np.random.default_rng(41)
        clf = random_classifier(rng, 3, 8)
        protos = simpleshot_prototypes(random_support(rng, 3, 8, 2))
        cache = build_cache(random_support(rng, 3, 8, 2), 3)
        queries = rng.standard_normal((4, 6))
        with pytest.raises(DimensionMismatch):
            prototype_scores(queries, protos)
        with pytest.raises(DimensionMismatch):
            mizero_scores(queries, clf)
        with pytest.raises(DimensionMismatch):
            tip_adapter_scores(queries, cache, clf.canonical_vectors())

    def test_per_bag_dimension_errors_name_the_slide(self):
        rng = np.random.default_rng(42)
        clf = random_classifier(rng, 3, 8)
        protos = simpleshot_prototypes(random_support(rng, 3, 8, 2))
        cache = build_cache(random_support(rng, 3, 8, 2), 3)
        narrow = SlideBag("narrow-slide", PatchMatrix(random_unit_rows(rng, 5, 6)), 0)
        for predict in (
            lambda: predict_prototype(narrow, protos),
            lambda: mizero_predict(narrow, clf),
            lambda: tip_adapter_predict(narrow, cache, clf),
            lambda: guided_pools(narrow, clf.canonical_vectors()[0], (2,)),
        ):
            with pytest.raises(DimensionMismatch) as err:
                predict()
            assert err.value.slide_id == "narrow-slide"
            assert "slide 'narrow-slide'" in str(err.value)
        # a classifier that disagrees with the cache is not the slide's fault
        bag = SlideBag("fine-slide", PatchMatrix(random_unit_rows(rng, 5, 8)), 0)
        with pytest.raises(DimensionMismatch) as err:
            tip_adapter_predict(bag, cache, random_classifier(rng, 3, 6))
        assert err.value.slide_id is None

    def test_zero_query_names_its_row(self):
        rng = np.random.default_rng(42)
        clf = random_classifier(rng, 3, 8)
        cache = build_cache(random_support(rng, 3, 8, 2), 3)
        queries = rng.standard_normal((4, 8))
        queries[2] = 0.0
        with pytest.raises(ZeroVectorRow) as err:
            tip_adapter_scores(queries, cache, clf.canonical_vectors())
        assert err.value.row == 2


class TestPrototypeRows:
    """Every prototype set of a grid cell, stacked into one array, gives the
    bytes each set gives when built and scored alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(2, 4),
        k=st.integers(1, 10),
        dim=st.integers(2, 24),
        top_ks=st.lists(st.integers(1, 15), max_size=4, unique=True),
        normalize=st.booleans(),
    )
    def test_stacked_sets_equal_per_set_builds(
        self, seed, num_classes, k, dim, top_ks, normalize
    ):
        rng = np.random.default_rng(seed)
        bags = [
            bag_of(random_unit_rows(rng, int(rng.integers(1, 13)), dim), f"s{i}")
            for i in range(num_classes * k)
        ]
        vector = random_unit_rows(rng, 1, dim)[0].astype(np.float64)
        # guided pools per top-K (64 covers every bag), then the full-bag means:
        # the sets of a grid cell, in the order it stacks them
        top_ks = [*top_ks, 64]
        by_k = [guided_pools(bag, vector, top_ks) for bag in bags]
        pools = np.stack(
            [[p[kt] for p in by_k] for kt in top_ks] + [[bgap(bag.patches) for bag in bags]]
        )
        cols = rng.permutation(len(bags))
        sets = len(top_ks) + 1
        pooled = np.take(pools, cols, axis=1).reshape(sets, num_classes, k, dim)
        rows = prototype_rows(pooled, normalize)
        queries = rng.standard_normal((5, dim))
        scores = row_scores(queries, rows.reshape(-1, dim))
        names = [f"c{c}" for c in range(num_classes)]
        for s in range(sets):
            per_class = [
                [pools[s, cols[c * k + j]] for j in range(k)] for c in range(num_classes)
            ]
            ids = [[f"s{cols[c * k + j]}" for j in range(k)] for c in range(num_classes)]
            alone = prototypes_from_pooled(per_class, names, ids, None, normalize)
            assert rows[s].tobytes() == alone.prototypes.tobytes()
            block = scores[:, s * num_classes : (s + 1) * num_classes]
            assert block.tobytes() == prototype_scores(queries, alone).tobytes()

    def test_zero_row_named_within_its_set(self):
        pooled = np.ones((3, 4, 2, 5))
        pooled[1, 2, 1] = -1.0  # set 1, class 2: mean zero
        with pytest.raises(ZeroVectorRow) as err:
            prototype_rows(pooled, True)
        assert err.value.row == 2
        assert prototype_rows(pooled, False)[1, 2].tolist() == [0.0] * 5
