import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protoshot.evalharness as evalharness
import protoshot.simsel as simsel
from protoshot.adapters import (
    build_cache,
    build_prototypes,
    mizero_predict,
    predict_prototype,
    simpleshot_prototypes,
    tip_adapter_predict,
)
from protoshot.errors import (
    ClassAbsent,
    ClassTooSmall,
    DimensionMismatch,
    GridCellError,
    InsufficientSupport,
    InvalidConfig,
    LengthMismatch,
    SingleCluster,
    TooFewPoints,
    ZeroVectorRow,
)
from protoshot.evalharness import (
    EvalRecord,
    EvalReport,
    GridConfig,
    aggregate_records,
    balanced_accuracy,
    canonical_json,
    derive_seed,
    export_embedding_table,
    pca_2d,
    projection_csv,
    run_grid,
    sample_few_shot,
    silhouette,
    slide_embedding_table,
    stratified_kfold,
)
from protoshot.embedstore import (
    PatchMatrix,
    SlideBag,
    TextClassifier,
    iter_bags,
    load_manifest,
    write_dataset,
)
from protoshot.simsel import bgap, guided_pools, score_against, top_k
from protoshot.synthgen import SynthConfig, generate

from conftest import random_unit_rows


def silhouette_oracle(points, labels):
    """Textbook O(M^2) mean silhouette, straight loops."""
    points = np.asarray(points, dtype=np.float64)
    labels = list(labels)
    n = len(points)
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            continue  # singleton: s = 0
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(points[i] - points[j]) for j in range(n) if labels[j] == c])
            for c in set(labels)
            if c != labels[i]
        )
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n


def confusion_oracle(preds, labels, num_classes):
    conf = np.zeros((num_classes, num_classes))
    for p, y in zip(preds, labels):
        conf[y, p] += 1
    recalls = [conf[c, c] / conf[c].sum() for c in range(num_classes)]
    return float(np.mean(recalls))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "folds") == derive_seed(7, "folds")
        assert derive_seed(7, "support", 1, 2) == derive_seed(7, "support", 1, 2)

    def test_tags_matter(self):
        seen = {
            derive_seed(7),
            derive_seed(7, "folds"),
            derive_seed(7, "support"),
            derive_seed(7, "support", 0),
            derive_seed(7, "support", 1),
            derive_seed(8, "support", 0),
            derive_seed(7, "support", 0, 2),
        }
        assert len(seen) == 7

    def test_64_bit_range(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(base, "x") < 2**64


class TestStratifiedKfold:
    def test_perfectly_balanced(self):
        labels = {f"s{i}": i % 2 for i in range(10)}
        folds = stratified_kfold(labels, 5, seed=1)
        for f in range(5):
            ids = folds.fold_ids(f)
            assert len(ids) == 2
            assert sorted(labels[i] for i in ids) == [0, 1]

    def test_deterministic(self):
        labels = {f"s{i}": i % 3 for i in range(30)}
        a = stratified_kfold(labels, 5, seed=9)
        b = stratified_kfold(labels, 5, seed=9)
        assert a.fold_of == b.fold_of
        c = stratified_kfold(labels, 5, seed=10)
        assert c.fold_of != a.fold_of

    def test_partition(self):
        rng = np.random.default_rng(2)
        labels = {f"s{i}": int(rng.integers(0, 3)) for i in range(57)}
        folds = stratified_kfold(labels, 4, seed=3)
        union = [sid for f in range(4) for sid in folds.fold_ids(f)]
        assert sorted(union) == sorted(labels)
        assert len(union) == len(set(union))

    def test_per_class_balance_on_imbalanced_corpus(self):
        # class sizes mirroring a heavily imbalanced three-class corpus
        sizes = (513, 119, 291)
        labels = {}
        i = 0
        for c, size in enumerate(sizes):
            for _ in range(size):
                labels[f"s{i}"] = c
                i += 1
        folds = stratified_kfold(labels, 5, seed=4)
        for c, size in enumerate(sizes):
            per_fold = [
                sum(1 for sid in folds.fold_ids(f) if labels[sid] == c) for f in range(5)
            ]
            assert sum(per_fold) == size
            assert max(per_fold) - min(per_fold) <= 1

    def test_class_too_small(self):
        labels = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1, "g": 1, "h": 1}
        with pytest.raises(ClassTooSmall) as err:
            stratified_kfold(labels, 5, seed=0)
        assert err.value.class_index == 0 and err.value.count == 3


class TestSampleFewShot:
    def test_k_equals_class_size(self):
        ids = [[f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]]
        draw = sample_few_shot(ids, 4, seed=5)
        assert sorted(draw.support_ids[:4]) == sorted(ids[0])
        assert sorted(draw.support_ids[4:]) == sorted(ids[1])

    def test_same_seed_identical(self):
        ids = [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(10)]]
        assert sample_few_shot(ids, 3, 77) == sample_few_shot(ids, 3, 77)

    def test_draws_differ_across_seeds(self):
        ids = [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(10)]]
        draws = {sample_few_shot(ids, 2, s).support_ids for s in range(5)}
        assert len(draws) > 1

    def test_no_duplicates_and_counts(self):
        ids = [[f"c{c}_{i}" for i in range(9)] for c in range(3)]
        draw = sample_few_shot(ids, 4, seed=6)
        assert len(draw.support_ids) == 12
        assert len(set(draw.support_ids)) == 12
        for c in range(3):
            assert sum(1 for s in draw.support_ids if s.startswith(f"c{c}_")) == 4

    def test_insufficient_support(self):
        with pytest.raises(InsufficientSupport):
            sample_few_shot([["a", "b"]], 3, seed=0)


class TestBalancedAccuracy:
    def test_all_correct(self):
        score, recalls = balanced_accuracy([0, 1, 2, 1], [0, 1, 2, 1])
        assert score == 1.0
        assert recalls.tolist() == [1.0, 1.0, 1.0]

    def test_degenerate_predictor(self):
        score, _ = balanced_accuracy([0, 0, 0, 0], [0, 0, 1, 1])
        assert score == 0.5

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 120))
            labels = rng.integers(0, 3, size=n)
            while len(set(labels.tolist())) < 3:
                labels = rng.integers(0, 3, size=n)
            preds = rng.integers(0, 3, size=n)
            score, _ = balanced_accuracy(preds.tolist(), labels.tolist(), 3)
            assert abs(score - confusion_oracle(preds, labels, 3)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            balanced_accuracy([0, 1], [0])

    def test_class_absent(self):
        with pytest.raises(ClassAbsent):
            balanced_accuracy([0, 2], [0, 2], num_classes=3)

    @staticmethod
    def per_class_loop(preds, labels, num_classes):
        """Balanced accuracy as a loop over classes with boolean hit masks."""
        preds, y = np.asarray(preds, dtype=np.int64), np.asarray(labels, dtype=np.int64)
        if num_classes is None:
            num_classes = int(y.max()) + 1
        recalls = np.empty(num_classes, dtype=np.float64)
        for c in range(num_classes):
            mask = y == c
            if not mask.any():
                raise ClassAbsent(c)
            recalls[c] = np.mean(preds[mask] == c)
        return float(recalls.mean()), recalls

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bincount_matches_per_class_loop(self, data):
        num_classes = data.draw(st.integers(1, 6))
        declared = data.draw(st.sampled_from([None, num_classes]))
        n = data.draw(st.integers(1, 40))
        # out-of-range labels are ignored when the class count is declared
        low = 0 if declared is None else -1
        labels = data.draw(st.lists(st.integers(low, num_classes + 1), min_size=n, max_size=n))
        preds = data.draw(st.lists(st.integers(0, num_classes + 1), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            preds = np.array(preds)  # a row-wise argmax, as run_grid passes it
        try:
            expected = self.per_class_loop(preds, labels, declared)
        except ClassAbsent as exc:
            with pytest.raises(ClassAbsent) as err:
                balanced_accuracy(preds, labels, declared)
            assert err.value.class_index == exc.class_index
            return
        score, recalls = balanced_accuracy(preds, labels, declared)
        assert score == expected[0]
        assert recalls.tobytes() == expected[1].tobytes()

    def test_random_predictor_near_chance(self):
        rng = np.random.default_rng(8)
        n = 10_000 // 3 * 3
        labels = np.repeat(np.arange(3), n // 3)
        preds = rng.integers(0, 3, size=n)
        score, _ = balanced_accuracy(preds.tolist(), labels.tolist(), 3)
        sigma = np.sqrt(3 * (1 / 3) * (2 / 3) / (n // 3)) / 3
        assert abs(score - 1 / 3) <= 3 * sigma


class TestSilhouette:
    def test_two_tight_clusters(self):
        points = np.vstack([np.zeros((4, 3)), np.ones((5, 3))])
        labels = [0] * 4 + [1] * 5
        assert silhouette(points, labels) == pytest.approx(1.0, abs=1e-12)

    def test_identical_points_zero(self):
        points = np.ones((6, 2))
        assert silhouette(points, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((200, 5))
        labels = rng.integers(0, 3, size=200).tolist()
        ours = silhouette(points, labels)
        assert abs(ours - silhouette_oracle(points, labels)) <= 1e-9

    def test_singleton_cluster_counts_zero(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((11, 4))
        labels = [0] * 5 + [1] * 5 + [2]  # one singleton
        ours = silhouette(points, labels)
        assert abs(ours - silhouette_oracle(points, labels)) <= 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            points = rng.standard_normal((n, 3))
            labels = rng.integers(0, 2, size=n)
            if len(set(labels.tolist())) < 2:
                continue
            value = silhouette(points, labels.tolist())
            assert -1 - 1e-9 <= value <= 1 + 1e-9

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleCluster):
            silhouette(np.eye(3), [1, 1, 1])

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            silhouette(np.ones((1, 3)), [0])


@pytest.fixture(scope="module")
def small_dataset():
    config = SynthConfig(
        num_classes=3,
        dim=16,
        slides_per_class=10,
        patches_min=15,
        patches_max=30,
        informative_fraction=1.0,
        noise_scale=0.0,
        seed=31,
    )
    return generate(config)


class TestGridConfigValidation:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("k_grid", {"k_grid": (2, 4, 2)}),
            ("top_k_grid", {"top_k_grid": (20, 20)}),
            ("k_grid", {"k_grid": (0, 2)}),
            ("top_k_grid", {"top_k_grid": (2, -1)}),
            ("tip_beta", {"tip_beta": 0.0}),
            ("tip_beta", {"tip_beta": -1.0}),
            ("tip_beta", {"tip_beta": float("nan")}),
            ("tip_alpha", {"tip_alpha": -0.5}),
            ("methods", {"methods": ()}),
            ("methods", {"methods": ("visionshot", "nope")}),
            ("methods", {"methods": ("mizero", "simpleshot", "mizero")}),
            ("k_grid", {"k_grid": ()}),
            ("top_k_grid", {"top_k_grid": ()}),
            ("num_folds", {"num_folds": 1}),
            ("num_folds", {"num_folds": 0}),
            ("seeds", {"seeds": (3, 3)}),
            ("seeds", {"seeds": ()}),
            ("num_seeds", {"num_seeds": 0}),
            ("num_seeds", {"methods": ("tipadapter",), "num_seeds": -1}),
        ],
    )
    def test_rejected_before_any_cell(self, field, kwargs):
        with pytest.raises(InvalidConfig) as err:
            GridConfig(**kwargs)
        assert str(err.value).startswith(field)
        assert isinstance(err.value, ValueError)

    def test_boundary_values_accepted(self):
        GridConfig(k_grid=(1,), top_k_grid=(1,), tip_alpha=0.0, tip_beta=1e-9)
        GridConfig(num_folds=2, seeds=(3,))
        # zero-shot alone needs no seeds
        assert GridConfig(methods=("mizero",), num_seeds=0).resolved_seeds() == ()
        assert GridConfig(methods=("mizero",), seeds=()).resolved_seeds() == ()


class TestRunGrid:
    def test_record_shape(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=5, k_grid=(2,), top_k_grid=(4,), seeds=(101,))
        report = run_grid(manifest, bags, clf, config)
        by_method = {}
        for r in report.records:
            by_method.setdefault(r.method, []).append(r)
        assert {m: len(rs) for m, rs in by_method.items()} == {
            "visionshot": 5,
            "simpleshot": 5,
            "tipadapter": 5,
            "mizero": 5,
        }

    def test_separable_dataset_perfect(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(
            methods=("visionshot", "simpleshot"),
            num_folds=5,
            k_grid=(2, 4),
            top_k_grid=(2, 50),
            seeds=(101, 202),
        )
        report = run_grid(manifest, bags, clf, config)
        assert all(r.balanced_accuracy == 1.0 for r in report.records)

    def test_byte_identical_reruns_and_threads(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(11, 12))
        first = run_grid(manifest, bags, clf, config)
        second = run_grid(manifest, bags, clf, config)
        threaded = run_grid(manifest, bags, clf, config)
        assert first.to_json() == second.to_json() == threaded.to_json()
        assert first.to_csv() == threaded.to_csv()

    def test_aggregate_matches_record_mean(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2, 4), top_k_grid=(4, 8), seeds=(1, 2, 3))
        report = run_grid(manifest, bags, clf, config)
        for agg in report.aggregates:
            group = [
                r.balanced_accuracy
                for r in report.records
                if (r.method, r.k, r.top_k) == (agg.method, agg.k, agg.top_k)
            ]
            assert agg.num_records == len(group)
            assert abs(agg.mean - np.mean(group)) <= 1e-12

    def test_mizero_records_per_prompt(self, small_dataset):
        manifest, bags, clf = small_dataset
        prompts = np.stack([clf.weights[0]] * 4)
        multi = TextClassifier(clf.class_names, prompts)
        config = GridConfig(methods=("mizero",), num_folds=3, k_grid=(2,), top_k_grid=(2,))
        report = run_grid(manifest, bags, multi, config)
        assert len(report.records) == 3 * 4
        assert all(r.seed is None and r.k is None for r in report.records)
        assert sorted({r.prompt for r in report.records}) == [0, 1, 2, 3]
        agg = report.aggregates[0]
        assert agg.method == "mizero" and agg.num_records == 12

    def test_failing_cell_identified(self, small_dataset):
        manifest, bags, clf = small_dataset
        # k larger than any class's training split
        config = GridConfig(num_folds=5, k_grid=(9,), top_k_grid=(2,), seeds=(1,))
        with pytest.raises(GridCellError) as err:
            run_grid(manifest, bags, clf, config)
        assert "k=9" in str(err.value)
        assert isinstance(err.value.cause, InsufficientSupport)

    def test_support_never_in_test_fold(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=5, k_grid=(2, 4), top_k_grid=(2,), seeds=(5, 6))
        report = run_grid(manifest, bags, clf, config)
        # reproduce the grid's own derivations and check disjointness
        labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
        folds = stratified_kfold(labels, 5, derive_seed(config.base_seed, "folds"))
        assert folds.seed == report.config["fold_seed"]
        for f in range(5):
            test_ids = set(folds.fold_ids(f))
            groups = [[] for _ in manifest.classes]
            for rec in manifest.slides:
                if rec.slide_id not in test_ids:
                    groups[labels[rec.slide_id]].append(rec.slide_id)
            for seed in (5, 6):
                for k in (2, 4):
                    draw = sample_few_shot(groups, k, derive_seed(seed, "support", f, k))
                    assert not set(draw.support_ids) & test_ids


@pytest.fixture(scope="module")
def noisy_dataset():
    config = SynthConfig(
        num_classes=3,
        dim=16,
        slides_per_class=8,
        patches_min=10,
        patches_max=24,
        informative_fraction=0.3,
        noise_scale=1.5,
        seed=5,
    )
    return generate(config)


def reference_records(manifest, bags, clf, config):
    """Every record of the grid, recomputed bag by bag with the public
    per-bag adapters, keyed by (method, fold, seed, k, top_k, prompt)."""
    bags_by_id = {bag.slide_id: bag for bag in bags}
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    num_classes = len(manifest.classes)
    folds = stratified_kfold(labels, config.num_folds, derive_seed(config.base_seed, "folds"))
    out = {}

    def add(method, fold, seed, k, top_k, prompt, preds, y):
        score, recalls = balanced_accuracy(preds, y, num_classes)
        out[(method, fold, seed, k, top_k, prompt)] = EvalRecord(
            method, fold, seed, k, top_k, prompt, score, tuple(recalls)
        )

    for f in range(config.num_folds):
        test = [bags_by_id[sid] for sid in folds.fold_ids(f)]
        y = [bag.label for bag in test]
        for prompt in range(clf.num_prompts):
            preds = [mizero_predict(bag, clf, prompt) for bag in test]
            add("mizero", f, None, None, None, prompt, preds, y)
        groups = [[] for _ in manifest.classes]
        for rec in manifest.slides:
            if folds.fold_of[rec.slide_id] != f:
                groups[labels[rec.slide_id]].append(rec.slide_id)
        for seed in config.resolved_seeds():
            for k in config.k_grid:
                draw = sample_few_shot(groups, k, derive_seed(seed, "support", f, k))
                support = [bags_by_id[sid] for sid in draw.support_ids]
                for kt in config.top_k_grid:
                    protos = build_prototypes(support, clf, kt)
                    preds = [predict_prototype(bag, protos) for bag in test]
                    add("visionshot", f, seed, k, kt, None, preds, y)
                protos = simpleshot_prototypes(
                    support, num_classes=num_classes, class_names=manifest.classes
                )
                preds = [predict_prototype(bag, protos) for bag in test]
                add("simpleshot", f, seed, k, None, None, preds, y)
                cache = build_cache(support, num_classes, config.tip_alpha, config.tip_beta)
                preds = [tip_adapter_predict(bag, cache, clf) for bag in test]
                add("tipadapter", f, seed, k, None, None, preds, y)
    return out


class TestPooledGrid:
    """The grid reads every pooled vector from one per-slide table; it must
    match the per-bag adapters exactly and compute each pool once."""

    config = GridConfig(num_folds=4, k_grid=(2, 4), top_k_grid=(3, 8, 50), seeds=(7, 8))

    def test_matches_per_bag_adapters(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        assert max(bag.patches.rows for bag in bags) < 50  # one top-K clamps
        report = run_grid(manifest, bags, clf, self.config)
        got = {(r.method, r.fold, r.seed, r.k, r.top_k, r.prompt): r for r in report.records}
        expected = reference_records(manifest, bags, clf, self.config)
        assert got == expected
        assert len({r.balanced_accuracy for r in report.records}) > 1  # not trivial

    def test_each_slide_scored_and_pooled_once(self, noisy_dataset, monkeypatch):
        manifest, bags, clf = noisy_dataset
        slide_of = {id(bag.patches): bag.slide_id for bag in bags}
        scores, pools = Counter(), Counter()

        def counting(counter, fn):
            def wrapped(patches, *args, **kwargs):
                counter[slide_of[id(patches)]] += 1
                return fn(patches, *args, **kwargs)

            return wrapped

        # guided pools score and pool in simsel; the table's full-bag means
        # pool in evalharness
        monkeypatch.setattr(simsel, "score_against", counting(scores, simsel.score_against))
        monkeypatch.setattr(simsel, "bgap", counting(pools, simsel.bgap))
        monkeypatch.setattr(evalharness, "bgap", counting(pools, evalharness.bgap))
        assert not hasattr(evalharness, "score_against")
        run_grid(manifest, bags, clf, self.config)
        assert scores and max(scores.values()) == 1
        assert pools and max(pools.values()) <= 1 + len(self.config.top_k_grid)

    @staticmethod
    def with_zero_mean_slide(dataset):
        manifest, bags, clf = dataset
        v = bags[0].patches.values[0]
        zero = SlideBag(bags[0].slide_id, PatchMatrix(np.stack([v, -v])), bags[0].label)
        return manifest, [zero] + list(bags[1:]), clf

    def test_zero_mean_slide_runs_without_tipadapter(self, noisy_dataset):
        manifest, bags, clf = self.with_zero_mean_slide(noisy_dataset)
        config = GridConfig(
            methods=("visionshot", "simpleshot", "mizero"),
            num_folds=4,
            k_grid=(2,),
            top_k_grid=(1, 8),
            seeds=(7,),
        )
        report = run_grid(manifest, bags, clf, config)
        assert len(report.records) == 4 * (2 + 1 + 1)

    def test_zero_mean_slide_fails_inside_tipadapter_cell(self, noisy_dataset):
        manifest, bags, clf = self.with_zero_mean_slide(noisy_dataset)
        config = GridConfig(num_folds=4, k_grid=(2,), top_k_grid=(1, 8), seeds=(7,))
        with pytest.raises(GridCellError) as err:
            run_grid(manifest, bags, clf, config)
        assert isinstance(err.value.cause, ZeroVectorRow)
        assert re.search(r"\[fold=\d+ seed=7 k=2\]", str(err.value))

    @pytest.mark.parametrize("method", ["visionshot", "mizero", "tipadapter"])
    def test_classifier_dimension_mismatch_is_typed(self, noisy_dataset, method):
        manifest, bags, clf = noisy_dataset
        narrow = clf.weights[:, :, : clf.dim // 2].astype(np.float64)
        narrow /= np.linalg.norm(narrow, axis=-1, keepdims=True)
        narrow_clf = TextClassifier(clf.class_names, narrow)
        config = GridConfig(
            methods=(method,), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        with pytest.raises(GridCellError) as err:
            run_grid(manifest, bags, narrow_clf, config)
        assert isinstance(err.value.cause, DimensionMismatch)


class TestGuidedPools:
    """A top-K that covers the bag pools the full bag without scoring it."""

    @staticmethod
    def bag_and_vector(rows=12, dim=6, seed=30):
        rng = np.random.default_rng(seed)
        bag = SlideBag("s", PatchMatrix(random_unit_rows(rng, rows, dim)), 0)
        return bag, random_unit_rows(rng, 1, dim)[0]

    def test_covering_pool_is_full_bag_mean(self):
        bag, w = self.bag_and_vector()
        p = bag.patches
        scored = bgap(p, top_k(score_against(p, w), p.rows).indices)
        pools = guided_pools(bag, w, (3, 12, 40))
        assert pools[12].tobytes() == pools[40].tobytes() == scored.tobytes()
        assert pools[40].tobytes() == bgap(p).tobytes()
        assert pools[3].tobytes() == bgap(p, top_k(score_against(p, w), 3).indices).tobytes()

    def test_covering_ks_never_score(self, monkeypatch):
        bag, w = self.bag_and_vector()

        def no_scoring(*args):
            raise AssertionError("a covering top-K scored the bag")

        monkeypatch.setattr(simsel, "score_against", no_scoring)
        pools = guided_pools(bag, w, (12, 50))
        assert pools[12].tobytes() == pools[50].tobytes() == bgap(bag.patches).tobytes()
        with pytest.raises(DimensionMismatch):
            guided_pools(bag, np.ones(4), (12, 50))
        with pytest.raises(ValueError, match="k must be >= 1"):
            guided_pools(bag, w, (50, 0))


def support_slides(manifest, config):
    """Every slide that some support draw of the grid picks."""
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    folds = stratified_kfold(labels, config.num_folds, derive_seed(config.base_seed, "folds"))
    picked = set()
    for f in range(config.num_folds):
        groups = [[] for _ in manifest.classes]
        for rec in manifest.slides:
            if folds.fold_of[rec.slide_id] != f:
                groups[labels[rec.slide_id]].append(rec.slide_id)
        for seed in config.resolved_seeds():
            for k in config.k_grid:
                draw = sample_few_shot(groups, k, derive_seed(seed, "support", f, k))
                picked.update(draw.support_ids)
    return picked


def unreadable_bags():
    raise AssertionError("a bag was read")
    yield


class TestStreamedGrid:
    """run_grid consumes its bags in one pass; a one-shot stream gives the
    report a list gives, and only support slides are scored."""

    config = GridConfig(num_folds=4, k_grid=(2, 4), top_k_grid=(3, 8, 50), seeds=(7, 8))

    def test_stream_matches_list_and_load(self, noisy_dataset, tmp_path):
        manifest, bags, clf = noisy_dataset
        listed = run_grid(manifest, bags, clf, self.config).to_json()
        assert run_grid(manifest, (bag for bag in bags), clf, self.config).to_json() == listed
        path = write_dataset(manifest.classes, zip(manifest.slides, bags), tmp_path)
        loaded_manifest, loaded = load_manifest(path)
        assert run_grid(loaded_manifest, loaded, clf, self.config).to_json() == listed
        streamed = iter_bags(loaded_manifest, path)
        assert run_grid(loaded_manifest, streamed, clf, self.config).to_json() == listed

    def test_scores_each_support_slide_once(self, noisy_dataset, monkeypatch):
        manifest, bags, clf = noisy_dataset
        slide_of = {id(bag.patches): bag.slide_id for bag in bags}
        scores = Counter()
        original = simsel.score_against

        def counting(patches, *args, **kwargs):
            scores[slide_of[id(patches)]] += 1
            return original(patches, *args, **kwargs)

        monkeypatch.setattr(simsel, "score_against", counting)
        config = GridConfig(num_folds=4, k_grid=(1,), top_k_grid=(3, 8), seeds=(7,))
        support = support_slides(manifest, config)
        assert 0 < len(support) < len(bags)
        run_grid(manifest, iter(bags), clf, config)
        assert scores == Counter(dict.fromkeys(support, 1))
        scores.clear()
        unguided = GridConfig(
            methods=("simpleshot", "tipadapter", "mizero"),
            num_folds=4,
            k_grid=(1,),
            top_k_grid=(3,),
            seeds=(7,),
        )
        run_grid(manifest, iter(bags), clf, unguided)
        assert not scores

    def test_failed_draw_reads_no_bag(self, noisy_dataset):
        manifest, _, clf = noisy_dataset
        config = GridConfig(num_folds=4, k_grid=(2, 9), top_k_grid=(3,), seeds=(7,))
        with pytest.raises(GridCellError) as err:
            run_grid(manifest, unreadable_bags(), clf, config)
        assert err.value.cell == "fold=0 seed=7 k=9"
        assert isinstance(err.value.cause, InsufficientSupport)

    def test_missing_bag_named_after_the_pass(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        with pytest.raises(ValueError, match=repr(bags[-1].slide_id)):
            run_grid(manifest, iter(bags[:-1]), clf, self.config)

    def test_degenerate_classifier_fails_only_guided_cells(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        cancelling = TextClassifier(clf.class_names, np.stack([clf.weights[0], -clf.weights[0]]))
        config = GridConfig(
            methods=("simpleshot", "mizero"), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        assert len(run_grid(manifest, iter(bags), cancelling, config).records) == 4 * (1 + 2)
        for method in ("visionshot", "tipadapter"):
            guided = GridConfig(
                methods=(method,), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
            )
            with pytest.raises(GridCellError) as err:
                run_grid(manifest, iter(bags), cancelling, guided)
            assert err.value.cell == "fold=0 seed=7 k=2"
            assert isinstance(err.value.cause, ZeroVectorRow)


class TestFoldMatrix:
    """Cells score a fold's slice of the pooled table as one matrix."""

    def test_ties_resolve_to_lower_index(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        # classes 0 and 1: every slide holds one patch matrix, and one text vector
        same = bags[0].patches
        bags = [SlideBag(b.slide_id, same, b.label) if b.label < 2 else b for b in bags]
        weights = clf.weights.copy()
        weights[:, 1] = weights[:, 0]
        clf = TextClassifier(clf.class_names, weights)
        config = GridConfig(
            methods=("simpleshot", "mizero"), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        report = run_grid(manifest, bags, clf, config)
        assert len(report.records) == 4 * 2
        for r in report.records:
            assert r.per_class_recalls[1] == 0.0  # class 1 only ever ties with class 0
        simpleshot = [r for r in report.records if r.method == "simpleshot"]
        assert all(r.per_class_recalls[0] == 1.0 for r in simpleshot)
        expected = reference_records(manifest, bags, clf, config)
        assert all(expected[r.method, r.fold, r.seed, r.k, r.top_k, r.prompt] == r
                   for r in report.records)

    def test_dimension_change_fails_during_the_pass(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        narrow = SlideBag(
            bags[5].slide_id,
            PatchMatrix(random_unit_rows(np.random.default_rng(3), 10, clf.dim // 2)),
            bags[5].label,
        )
        read = []

        def stream():
            for bag in bags[:5] + [narrow] + bags[6:]:
                read.append(bag.slide_id)
                yield bag

        with pytest.raises(DimensionMismatch) as err:
            run_grid(manifest, stream(), clf, TestPooledGrid.config)
        assert err.value.slide_id == narrow.slide_id
        assert (err.value.expected, err.value.actual) == (clf.dim, clf.dim // 2)
        assert repr(narrow.slide_id) in str(err.value)
        assert read == [bag.slide_id for bag in bags[:6]]


class TestReportSerialization:
    def test_json_round_trip(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        report = run_grid(manifest, bags, clf, config)
        back = EvalReport.from_json(report.to_json())
        assert back.records == report.records
        assert back.aggregates == report.aggregates
        assert back.to_json() == report.to_json()

    def test_csv_layout(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(
            methods=("simpleshot",), num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,)
        )
        report = run_grid(manifest, bags, clf, config)
        lines = report.to_csv().splitlines()
        assert lines[0] == "method,fold,seed,k,top_k,balanced_accuracy"
        assert len(lines) == 1 + len(report.records)
        first = lines[1].split(",")
        assert first[0] == "simpleshot" and first[4] == ""  # no top_k axis

    def test_aggregate_recompute(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2, 4), top_k_grid=(4,), seeds=(1, 2))
        report = run_grid(manifest, bags, clf, config)
        assert aggregate_records(report.records) == report.aggregates

    def test_canonical_json_floats(self):
        text = canonical_json({"b": 1 / 3, "a": [True, None, 2]})
        assert text == '{"a":[true,null,2],"b":0.33333333333333331}'
        assert json.loads(text)["b"] == 1 / 3

    def test_canonical_json_sorted_keys(self):
        assert canonical_json({"z": 1, "a": 0}) == '{"a":0,"z":1}'
        assert canonical_json({"z": {"y": 2, "b": 3}}) == '{"z":{"b":3,"y":2}}'


class TestEmbeddingTable:
    def test_label_guided_rows_separate_better(self):
        config = SynthConfig(
            num_classes=3,
            dim=24,
            slides_per_class=12,
            patches_min=40,
            patches_max=60,
            informative_fraction=0.5,
            noise_scale=1.0,
            seed=77,
        )
        manifest, bags, clf = generate(config)
        guided = export_embedding_table(bags, "visionshot", clf, k=10)
        plain = export_embedding_table(bags, "bgap")
        s_guided = silhouette(guided.embeddings, guided.labels)
        s_plain = silhouette(plain.embeddings, plain.labels)
        assert s_guided > s_plain

    def test_single_slide_pca_error(self, small_dataset):
        _, bags, clf = small_dataset
        rows, labels, ids = slide_embedding_table(bags[:1], "bgap")
        assert rows.shape[0] == 1 and labels == [bags[0].label]
        with pytest.raises(TooFewPoints):
            pca_2d(rows)
        with pytest.raises(TooFewPoints):
            export_embedding_table(bags[:1], "bgap")

    def test_identical_slides_project_to_zero(self, small_dataset):
        _, bags, _ = small_dataset
        same = [bags[0], bags[0], bags[0]]
        rows, _, _ = slide_embedding_table(same, "bgap")
        projection = pca_2d(rows)
        np.testing.assert_allclose(projection, 0.0, rtol=0, atol=1e-12)

    def test_pca_sign_convention(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal((40, 6)) * np.array([5, 2, 1, 1, 1, 1])
        centered = points - points.mean(axis=0)
        projection = pca_2d(points)
        # recover the components from the projection and check the dominant
        # loading of each is positive
        comps, *_ = np.linalg.lstsq(centered, projection, rcond=None)
        for i in range(2):
            j = int(np.argmax(np.abs(comps[:, i])))
            assert comps[j, i] > 0

    def test_projection_csv(self, small_dataset):
        _, bags, _ = small_dataset
        table = export_embedding_table(bags[:5], "bgap")
        text = projection_csv(table)
        lines = text.splitlines()
        assert lines[0] == "slide_id,label,pc1,pc2"
        assert len(lines) == 6
        assert lines[1].startswith(f"{bags[0].slide_id},{bags[0].label},")
