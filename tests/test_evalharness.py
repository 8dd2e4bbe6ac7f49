import dataclasses
import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protoshot.adapters as adapters
import protoshot.embedstore as embedstore
import protoshot.evalharness as evalharness
import protoshot.simsel as simsel
from protoshot.adapters import (
    build_cache,
    build_prototypes,
    mizero_predict,
    mizero_scores,
    predict_prototype,
    prototype_scores,
    simpleshot_prototypes,
    tip_adapter_predict,
    tip_adapter_scores,
)
from protoshot.errors import (
    ClassAbsent,
    ClassNamesMismatch,
    ClassTooSmall,
    DimensionMismatch,
    GridCellError,
    InsufficientSupport,
    InvalidConfig,
    LengthMismatch,
    ReportError,
    SingleCluster,
    TooFewPoints,
    ZeroVectorRow,
)
from protoshot.evalharness import (
    METHODS,
    EvalRecord,
    EvalReport,
    GridConfig,
    aggregate_records,
    balanced_accuracy,
    canonical_json,
    column_balanced_accuracies,
    derive_seed,
    grid_cells,
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

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(ValueError, match="num_folds must be >= 2, got 1"):
            stratified_kfold({"a": 0, "b": 1}, 1, seed=0)


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

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            sample_few_shot([["a", "b"]], 0, seed=0)


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


class TestColumnCounts:
    """One bincount per fold counts every record; each column's score and
    recalls hold the bytes balanced_accuracy gives that column alone."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(2, 40),
        n=st.integers(0, 200),
        columns=st.integers(1, 40),
    )
    def test_columns_equal_per_record_balanced_accuracy(self, seed, num_classes, n, columns):
        rng = np.random.default_rng(seed)
        n = max(n, num_classes)  # every class among the labels
        labels = rng.permutation(
            np.concatenate([np.arange(num_classes), rng.integers(0, num_classes, n - num_classes)])
        )
        # each column hits its label at its own rate, from never to always
        hit = rng.random((n, columns)) < rng.random(columns)
        guesses = rng.integers(0, num_classes, (n, columns))
        predictions = np.where(hit, labels[:, None], guesses)
        scores, recalls = column_balanced_accuracies(predictions, labels, num_classes)
        assert scores.shape == (columns,) and recalls.shape == (columns, num_classes)
        for r in range(columns):
            score, expected = balanced_accuracy(predictions[:, r], labels, num_classes)
            assert scores[r].tobytes() == np.float64(score).tobytes()
            assert recalls[r].tobytes() == expected.tobytes()

    def test_absent_class_named_like_balanced_accuracy(self):
        labels = np.array([0, 0, 2, 4, 2])
        predictions = np.zeros((5, 3), dtype=np.int64)
        for count in (lambda: column_balanced_accuracies(predictions, labels, 5),
                      lambda: balanced_accuracy(predictions[:, 0], labels, 5)):
            with pytest.raises(ClassAbsent) as err:
                count()
            assert err.value.class_index == 1


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
            ("tip_alpha", {"tip_alpha": math.inf}),
            ("tip_beta", {"tip_beta": math.inf}),
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

    def test_byte_identical_reruns(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(11, 12))
        first = run_grid(manifest, bags, clf, config)
        second = run_grid(manifest, bags, clf, config)
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()

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


def counting_walks(monkeypatch, bags) -> Counter:
    """Count the walks of each bag of `bags`, keyed by (slide_id, whether the
    walk was given a class vector to score the bag against)."""
    slide_of = {id(bag.patches.values): bag.slide_id for bag in bags}
    walks = Counter()
    original = embedstore._walk

    def counted(values, vector=None, mean=True):
        walks[slide_of[id(values)], vector is not None] += 1
        return original(values, vector, mean)

    monkeypatch.setattr(embedstore, "_walk", counted)
    return walks


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
        walks = counting_walks(monkeypatch, bags)
        pools = Counter()
        pool_bag = simsel.pool_bag

        def pooling(bag, *args, **kwargs):
            pools[bag.slide_id] += 1
            return pool_bag(bag, *args, **kwargs)

        # a bag in memory is pooled in one walk, every pool of it at once
        monkeypatch.setattr(simsel, "pool_bag", pooling)
        assert not hasattr(evalharness, "score_against")
        run_grid(manifest, bags, clf, self.config)
        every = dict.fromkeys((bag.slide_id for bag in bags), 1)
        assert pools == Counter(every)
        assert Counter(sid for sid, _ in walks.elements()) == Counter(every)
        assert any(scored for _, scored in walks)

    def test_bag_outside_the_manifest_is_ignored(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        rng = np.random.default_rng(3)
        # the first of another dimension than every manifest bag and the classifier
        strays = [SlideBag(f"stray_{d}", PatchMatrix(random_unit_rows(rng, 6, d)), 0)
                  for d in (5, clf.dim)]
        with_strays = [strays[0], *bags[:4], strays[1], *bags[4:]]
        report = run_grid(manifest, with_strays, clf, self.config)
        assert report.to_json() == run_grid(manifest, bags, clf, self.config).to_json()

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
        # the slide is fold 0's first query, so the query check of the fold's first
        # Tip-Adapter cell names it, before any fold is scored
        assert err.value.cell == "fold=0 seed=7 k=2"
        assert str(err.value) == (
            "grid cell [fold=0 seed=7 k=2] failed: "
            "row 0 has near-zero L2 norm and cannot be normalized"
        )

    @pytest.mark.parametrize("method", ["visionshot", "mizero", "tipadapter"])
    def test_classifier_dimension_mismatch_is_typed(self, noisy_dataset, monkeypatch, method):
        manifest, bags, clf = noisy_dataset
        forbid_guided_pools(monkeypatch)
        config = GridConfig(
            methods=(method,), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        read = []
        with pytest.raises(DimensionMismatch) as err:
            run_grid(manifest, counted(bags, read), narrow_classifier(clf), config)
        assert read == [bags[0].slide_id] == [err.value.slide_id]
        assert (err.value.expected, err.value.actual) == (clf.dim // 2, clf.dim)


class TestBatchedCell:
    """A cell builds all of its prototype sets as one array through the one
    prototype-row function the per-bag builders use."""

    config = GridConfig(
        methods=("visionshot", "simpleshot"),
        num_folds=4,
        k_grid=(2, 3),
        top_k_grid=(1,),
        seeds=(7,),
    )

    def test_zero_mean_simpleshot_class_names_its_row(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        # every class-1 slide has a zero full-bag mean, but a non-zero top-1 pool,
        # so the cell's visionshot set builds and its simpleshot set fails
        def zero_mean(bag):
            v = bag.patches.values[0]
            return SlideBag(bag.slide_id, PatchMatrix(np.stack([v, -v])), bag.label)

        zeroed = [zero_mean(bag) if bag.label == 1 else bag for bag in bags]
        with pytest.raises(GridCellError) as err:
            run_grid(manifest, zeroed, clf, self.config)
        assert err.value.cell == "fold=0 seed=7 k=2"
        assert isinstance(err.value.cause, ZeroVectorRow)
        assert err.value.cause.row == 1  # the class row, not its row in the stack
        assert "row 1 has near-zero L2 norm" in str(err.value)

    def test_grid_and_builders_share_the_row_function(self, noisy_dataset, monkeypatch):
        manifest, bags, clf = noisy_dataset
        calls = Counter()
        rows = adapters.prototype_rows

        def counting(pooled, normalize, out=None):
            calls["dense" if isinstance(pooled, np.ndarray) else "lists"] += 1
            return rows(pooled, normalize, out)

        assert evalharness.prototype_rows is rows
        monkeypatch.setattr(adapters, "prototype_rows", counting)
        monkeypatch.setattr(evalharness, "prototype_rows", counting)
        run_grid(manifest, bags, clf, self.config)
        # one call per (fold, seed, k) cell, for all of its sets
        assert calls == {"dense": 4 * 1 * 2}
        build_prototypes(bags, clf, 3)
        simpleshot_prototypes(bags)
        assert calls == {"dense": 8, "lists": 2}


FEWSHOT = ("visionshot", "simpleshot", "tipadapter")


@pytest.fixture(scope="module")
def pooled_reference(noisy_dataset):
    manifest, bags, clf = noisy_dataset
    return reference_records(manifest, bags, clf, TestPooledGrid.config)


class TestSupportPools:
    """Every few-shot cell reads its pools from one support array: the
    guided pools per top-K, then the full-bag means, one column per drawn
    slide."""

    @pytest.mark.parametrize("mizero", [False, True], ids=["no-mizero", "mizero"])
    @pytest.mark.parametrize(
        "fewshot",
        [combo for n in (1, 2, 3) for combo in itertools.combinations(FEWSHOT, n)],
        ids="+".join,
    )
    def test_any_method_subset_matches_per_bag_adapters(
        self, noisy_dataset, pooled_reference, fewshot, mizero
    ):
        manifest, bags, clf = noisy_dataset
        methods = fewshot + ("mizero",) * mizero
        config = dataclasses.replace(TestPooledGrid.config, methods=methods)
        report = run_grid(manifest, bags, clf, config)
        got = {(r.method, r.fold, r.seed, r.k, r.top_k, r.prompt): r for r in report.records}
        assert got == {key: r for key, r in pooled_reference.items() if key[0] in methods}

    def test_classifier_dimension_mismatch_fails_the_first_cell(
        self, noisy_dataset, monkeypatch
    ):
        """Only simpleshot reads no text vector, so only a simpleshot-only grid
        accepts a classifier of another dimension; any text method fails at
        the first bag, before any cell or guided pool."""
        manifest, bags, clf = noisy_dataset
        narrow = narrow_classifier(clf)
        config = GridConfig(
            methods=("simpleshot",), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        report = run_grid(manifest, bags, narrow, config)
        assert report.to_json() == run_grid(manifest, bags, clf, config).to_json()
        forbid_guided_pools(monkeypatch)
        both = dataclasses.replace(config, methods=("simpleshot", "visionshot"))
        read = []
        with pytest.raises(DimensionMismatch) as err:
            run_grid(manifest, counted(bags, read), narrow, both)
        assert read == [bags[0].slide_id] == [err.value.slide_id]

    def test_cells_pass_c_ordered_pools_and_share_one_key_per_slide(
        self, noisy_dataset, monkeypatch
    ):
        """Every cell builds its prototype rows from C-ordered pools, the query
        norms are checked once per fold, and each support slide's unit cache
        key is made once: one cache_affinity call per fold scores the fold's
        queries on the distinct keys its cells draw."""
        manifest, bags, clf = noisy_dataset
        layouts, keys = Counter(), []

        def checking(name):
            fn = getattr(evalharness, name)

            def wrapped(pooled, *args, **kwargs):
                layouts[name, pooled.flags.c_contiguous] += 1
                return fn(pooled, *args, **kwargs)

            monkeypatch.setattr(evalharness, name, wrapped)

        for name in ("prototype_rows", "checked_norms", "row_norms"):
            checking(name)
        affinity = evalharness.cache_affinity

        def recorded(unit, cache_keys, beta):
            keys.append(cache_keys)
            return affinity(unit, cache_keys, beta)

        monkeypatch.setattr(evalharness, "cache_affinity", recorded)
        config = TestPooledGrid.config
        run_grid(manifest, bags, clf, config)
        # prototype rows of 16 cells, the query norms of 4 folds, and the key norms
        assert layouts == {("prototype_rows", True): 4 * 2 * 2, ("checked_norms", True): 4,
                           ("row_norms", True): 1}
        drawn = [set(ids) for ids in support_slides_by_fold(manifest, config)]
        assert [len(k) for k in keys] == [len(ids) for ids in drawn]
        assert all(len({row.tobytes() for row in k}) == len(k) for k in keys)
        assert all(k.flags.c_contiguous for k in keys)

    def test_zero_mean_key_fails_in_the_first_cell_that_draws_it(self, noisy_dataset):
        """A support slide whose full-bag mean is zero still fails inside the
        first cell that draws it, fold-major, naming its row in that cell's
        draw, or before that its row among a fold's queries."""
        manifest, bags, clf = noisy_dataset
        config = GridConfig(methods=("tipadapter",), num_folds=4, k_grid=(2, 4), seeds=(7, 8))
        labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
        folds = stratified_kfold(labels, 4, derive_seed(config.base_seed, "folds"))
        by_class = [[sid for sid in labels if labels[sid] == c] for c in range(len(clf.class_names))]

        def first_failure(zero_id):
            for f in range(config.num_folds):
                train = [[sid for sid in ids if folds.fold_of[sid] != f] for ids in by_class]
                for i, (seed, k) in enumerate(itertools.product(config.seeds, config.k_grid)):
                    ids = list(sample_few_shot(train, k, derive_seed(seed, "support", f, k))
                               .support_ids)
                    queries = folds.fold_ids(f)
                    if zero_id in ids:
                        return f"fold={f} seed={seed} k={k}", ids.index(zero_id)
                    if i == 0 and zero_id in queries:
                        return f"fold={f} seed={seed} k={k}", queries.index(zero_id)

        expected = {bag.slide_id: first_failure(bag.slide_id) for bag in bags}
        assert len({cell for cell, _ in expected.values()}) > 1
        for bag in bags[::5]:
            v = bag.patches.values[0]
            zero = SlideBag(bag.slide_id, PatchMatrix(np.stack([v, -v])), bag.label)
            with pytest.raises(GridCellError) as err:
                run_grid(manifest, [zero if b is bag else b for b in bags], clf, config)
            assert isinstance(err.value.cause, ZeroVectorRow)
            assert (err.value.cell, err.value.cause.row) == expected[bag.slide_id]


def per_cell_scores(manifest, bags, clf, config):
    """Every fold's score blocks, each prompt or cell scored alone with the
    public per-bag functions: per fold, mizero's score under every prompt,
    then every cell's prototype sets (visionshot top-Ks, then simpleshot),
    then every cell's Tip-Adapter scores, cells in (seed, k) order."""
    bags_by_id = {bag.slide_id: bag for bag in bags}
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    num_classes = len(manifest.classes)
    folds = stratified_kfold(labels, config.num_folds, derive_seed(config.base_seed, "folds"))
    normalize = config.normalize_prototypes
    out = []
    for f in range(config.num_folds):
        queries = np.stack([bgap(bags_by_id[sid].patches) for sid in folds.fold_ids(f)])
        groups = [[] for _ in manifest.classes]
        for rec in manifest.slides:
            if folds.fold_of[rec.slide_id] != f:
                groups[labels[rec.slide_id]].append(rec.slide_id)
        protos, tips = [], []
        if "mizero" in config.methods:
            protos = [mizero_scores(queries, clf, p) for p in range(clf.num_prompts)]
        for seed in config.resolved_seeds():
            for k in config.k_grid:
                draw = sample_few_shot(groups, k, derive_seed(seed, "support", f, k))
                support = [bags_by_id[sid] for sid in draw.support_ids]
                if "visionshot" in config.methods:
                    for kt in config.top_k_grid:
                        built = build_prototypes(support, clf, kt, normalize)
                        protos.append(prototype_scores(queries, built))
                if "simpleshot" in config.methods:
                    built = simpleshot_prototypes(
                        support, normalize, num_classes=num_classes, class_names=manifest.classes
                    )
                    protos.append(prototype_scores(queries, built))
                if "tipadapter" in config.methods:
                    cache = build_cache(support, num_classes, config.tip_alpha, config.tip_beta)
                    tips.append(tip_adapter_scores(queries, cache, clf.canonical_vectors()))
        out.append(protos + tips)
    return out


class TestFoldScoring:
    """A fold scores the classifier's prompts and every cell's prototype rows
    with one call and every cell's cache keys with one affinity call; each
    block of the result holds the bytes of its prompt or cell scored alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(2, 4),
        extra_dim=st.integers(0, 12),
        per_class=st.integers(4, 7),
        folds=st.integers(2, 3),
        top_ks=st.lists(st.integers(1, 14), min_size=1, max_size=3, unique=True),
        methods=st.sampled_from(
            [combo for n in (1, 2, 3, 4) for combo in itertools.combinations(METHODS, n)]
        ),
        normalize=st.booleans(),
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.01, 20.0),
    )
    def test_fold_blocks_equal_per_cell_path(
        self, seed, num_classes, extra_dim, per_class, folds, top_ks, methods, normalize,
        alpha, beta,
    ):
        manifest, bags, one_prompt = generate(SynthConfig(
            num_classes=num_classes,
            dim=num_classes + extra_dim,
            slides_per_class=per_class,
            patches_min=1,
            patches_max=12,
            informative_fraction=0.3,
            noise_scale=1.0,
            seed=seed % 2**16,
        ))
        # a second prompt unlike the first: each class vector's coordinates rotated
        w = one_prompt.weights[0]
        clf = TextClassifier(one_prompt.class_names, np.stack([w, np.roll(w, 1, axis=-1)]))
        assert not np.array_equal(clf.weights[0], clf.weights[1])
        config = GridConfig(
            methods=methods,
            num_folds=folds,
            k_grid=(1, 2),
            top_k_grid=tuple(top_ks),
            seeds=(seed, seed + 1),
            tip_alpha=alpha,
            tip_beta=beta,
            normalize_prototypes=normalize,
        )
        captured = []
        fold_scores = evalharness._fold_scores

        def capturing(*args):
            captured.append(fold_scores(*args))
            return captured[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evalharness, "_fold_scores", capturing)
            run_grid(manifest, bags, clf, config)
        expected = per_cell_scores(manifest, bags, clf, config)
        assert len(captured) == len(expected) == folds
        for got, blocks in zip(captured, expected):
            assert got.shape == (blocks[0].shape[0], len(blocks), num_classes)
            for r, block in enumerate(blocks):
                assert got[:, r].tobytes() == block.tobytes()

    def test_fold_phase_holds_each_buffer_once(self):
        """run_grid's traced peak stays below its table, its pools and one copy each
        of a fold's prototype rows, its cache keys and its largest cell's
        gather, plus 1 MiB of slack for records, scores, affinities and
        Python objects: it peaks about 0.33 MiB above those arrays. Holding
        a fold's rows and keys twice, in a list and again stacked, and the
        last cell's own gather, peaks about 2.7 MiB above them."""
        manifest, bags, clf = generate(SynthConfig(
            num_classes=3, dim=512, slides_per_class=20, patches_min=4, patches_max=8,
            informative_fraction=0.3, noise_scale=1.0, seed=3,
        ))
        config = GridConfig(num_seeds=4)  # 5 folds, shots 2 to 16, 4 top-Ks
        run_grid(manifest, bags, clf, config)  # the walks' block buffer is made here
        tracemalloc.start()
        try:
            run_grid(manifest, bags, clf, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = 512 * 8
        # every top-K and simpleshot: the planes of the pools and the sets of a cell
        classes, seeds, sets = 3, 4, len(config.top_k_grid) + 1
        table = len(manifest.slides) * row
        pools = sets * len(support_slides(manifest, config)) * row
        rows = (clf.num_prompts + seeds * len(config.k_grid) * sets) * classes * row
        keys = seeds * classes * sum(config.k_grid) * row
        gather = sets * classes * max(config.k_grid) * row
        assert peak < table + pools + rows + keys + gather + (1 << 20)


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
        scored = bgap(p, top_k(score_against(p, w), p.rows))
        pools = guided_pools(bag, w, (3, 12, 40))
        assert pools[12].tobytes() == pools[40].tobytes() == scored.tobytes()
        assert pools[40].tobytes() == bgap(p).tobytes()
        assert pools[3].tobytes() == bgap(p, top_k(score_against(p, w), 3)).tobytes()

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


def support_slides_by_fold(manifest, config):
    """The slides that some support draw of each fold of the grid picks."""
    labels = {rec.slide_id: manifest.class_index(rec.class_name) for rec in manifest.slides}
    folds = stratified_kfold(labels, config.num_folds, derive_seed(config.base_seed, "folds"))
    picked = [set() for _ in range(config.num_folds)]
    for f in range(config.num_folds):
        groups = [[] for _ in manifest.classes]
        for rec in manifest.slides:
            if folds.fold_of[rec.slide_id] != f:
                groups[labels[rec.slide_id]].append(rec.slide_id)
        for seed in config.resolved_seeds():
            for k in config.k_grid:
                draw = sample_few_shot(groups, k, derive_seed(seed, "support", f, k))
                picked[f].update(draw.support_ids)
    return picked


def support_slides(manifest, config):
    """Every slide that some support draw of the grid picks."""
    return set().union(*support_slides_by_fold(manifest, config))


def unreadable_bags():
    raise AssertionError("a bag was read")
    yield


def counted(bags, read):
    """Yield `bags`, appending each one's slide id to `read` as it is read."""
    for bag in bags:
        read.append(bag.slide_id)
        yield bag


def unreachable(*args):
    raise AssertionError("a guided pool was taken")


def forbid_guided_pools(monkeypatch):
    """Make scoring a bag, and pooling a top-K subset of it, fail the test."""
    monkeypatch.setattr(simsel, "score_against", unreachable)
    monkeypatch.setattr(embedstore, "subset_mean", unreachable)


def narrow_classifier(clf):
    """`clf` cut to the first half of its dimensions, rows re-normalized."""
    narrow = clf.weights[:, :, : clf.dim // 2].astype(np.float64)
    return TextClassifier(clf.class_names, narrow / np.linalg.norm(narrow, axis=-1, keepdims=True))


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
        walks = counting_walks(monkeypatch, bags)
        config = GridConfig(num_folds=4, k_grid=(1,), top_k_grid=(3, 8), seeds=(7,))
        support = support_slides(manifest, config)
        assert 0 < len(support) < len(bags)
        run_grid(manifest, iter(bags), clf, config)
        assert walks == Counter({(bag.slide_id, bag.slide_id in support): 1 for bag in bags})
        walks.clear()
        unguided = GridConfig(
            methods=("simpleshot", "tipadapter", "mizero"),
            num_folds=4,
            k_grid=(1,),
            top_k_grid=(3,),
            seeds=(7,),
        )
        run_grid(manifest, iter(bags), clf, unguided)
        assert walks == Counter({(bag.slide_id, False): 1 for bag in bags})

    @pytest.mark.parametrize("order", [(2, 1, 0), (0, 2, 1), (0, 1)])
    def test_classifier_of_other_classes_reads_no_bag(self, noisy_dataset, order):
        """A classifier whose classes are in another order (or fewer) would be
        scored by position against the wrong classes; it fails first."""
        manifest, _, clf = noisy_dataset
        names = tuple(clf.class_names[c] for c in order)
        other = TextClassifier(names, clf.weights[:, list(order)])
        first = next(i for i, c in enumerate(order + (None,)) if c != i)
        with pytest.raises(ClassNamesMismatch) as err:
            run_grid(manifest, unreadable_bags(), other, self.config)
        assert err.value.index == first and err.value.path is None

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
        """simpleshot and mizero need no canonical vector; visionshot and
        tipadapter fail on a zero one before any bag is read."""
        manifest, bags, clf = noisy_dataset
        cancelling = TextClassifier(clf.class_names, np.stack([clf.weights[0], -clf.weights[0]]))
        config = GridConfig(
            methods=("simpleshot", "mizero"), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        assert len(run_grid(manifest, iter(bags), cancelling, config).records) == 4 * (1 + 2)
        for method in ("visionshot", "tipadapter"):
            guided = dataclasses.replace(config, methods=("simpleshot", "mizero", method))
            with pytest.raises(ZeroVectorRow) as err:
                run_grid(manifest, unreadable_bags(), cancelling, guided)
            assert err.value.row == 0


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


    def test_later_bag_of_another_dimension_names_the_slide(self, noisy_dataset):
        """With no method that reads the classifier, the first bag fixes the
        table's dimension, and a later bag of another one fails naming it."""
        manifest, bags, clf = noisy_dataset
        narrow = SlideBag(
            bags[5].slide_id,
            PatchMatrix(random_unit_rows(np.random.default_rng(4), 10, clf.dim // 2)),
            bags[5].label,
        )
        config = GridConfig(
            methods=("simpleshot",), num_folds=4, k_grid=(2,), top_k_grid=(3,), seeds=(7,)
        )
        with pytest.raises(DimensionMismatch) as err:
            run_grid(manifest, bags[:5] + [narrow] + bags[6:], clf, config)
        assert (err.value.expected, err.value.actual) == (clf.dim, clf.dim // 2)
        assert err.value.slide_id == narrow.slide_id

    def test_bag_label_that_disagrees_with_the_manifest_names_the_slide(self, noisy_dataset):
        manifest, bags, clf = noisy_dataset
        bags = list(bags)
        relabeled = SlideBag(bags[3].slide_id, bags[3].patches, (bags[3].label + 1) % 3)
        bags[3] = relabeled
        with pytest.raises(ValueError) as err:
            run_grid(manifest, bags, clf, TestPooledGrid.config)
        assert str(err.value) == (
            f"slide {relabeled.slide_id!r} label {relabeled.label} disagrees with manifest "
            f"({(relabeled.label + 2) % 3})"
        )


class TestGridCells:
    """grid_cells is the one list of a grid's cells: run_grid's records are
    its cells for each fold, each once, in report order."""

    @pytest.mark.parametrize("prompts", [1, 2])
    @pytest.mark.parametrize(
        "grid",
        [dict(seeds=(7,), k_grid=(2,), top_k_grid=(4,)),
         dict(seeds=(5, 1, 3), k_grid=(3, 1), top_k_grid=(200, 2))],
        ids=["one-draw", "unsorted"],
    )
    @pytest.mark.parametrize(
        "methods",
        [combo for n in range(1, 5) for combo in itertools.combinations(METHODS, n)],
        ids="+".join,
    )
    def test_records_are_the_cells_of_each_fold(self, noisy_dataset, methods, grid, prompts):
        manifest, bags, clf = noisy_dataset
        clf = TextClassifier(clf.class_names, np.concatenate([clf.weights] * prompts))
        report = run_grid(manifest, bags, clf, GridConfig(methods=methods, num_folds=2, **grid))
        cells = [(m, f, *rest) for f in range(2) for m, *rest in grid_cells(report.config)]
        # report order: method, then k, top_k, prompt and seed with null first, then fold
        order = lambda c: (c[0], *(-1 if v is None else v for v in (c[3], c[4], c[5], c[2])), c[1])
        held = [(r.method, r.fold, r.seed, r.k, r.top_k, r.prompt) for r in report.records]
        assert held == sorted(cells, key=order) and len(set(held)) == len(held)
        assert EvalReport.from_json(report.to_json()).to_json() == report.to_json()


class TestReportSerialization:
    def test_json_round_trip(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        report = run_grid(manifest, bags, clf, config)
        back = EvalReport.from_json(report.to_json())
        assert back.records == report.records
        assert back.aggregates == report.aggregates
        assert back.to_json() == report.to_json()

    def test_missing_optional_field_reads_null_and_int_reads_float(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        raw = json.loads(run_grid(manifest, bags, clf, config).to_json())
        # reports older than prompt lack it; only a mizero record must set it
        i = next(i for i, r in enumerate(raw["records"]) if r["method"] != "mizero")
        del raw["records"][i]["prompt"]
        raw["records"][i]["balanced_accuracy"] = 1
        raw["aggregates"][0]["std"] = 0
        back = EvalReport.from_json(json.dumps(raw))
        assert back.records[i].prompt is None
        assert type(back.records[i].balanced_accuracy) is float
        assert type(back.aggregates[0].std) is float

    @pytest.mark.parametrize(
        "edit, key, start, end",
        [
            pytest.param(lambda raw: raw.pop("config"), "config", "missing key 'config'", "",
                         id="no-config"),
            pytest.param(lambda raw: raw["records"].append(3), "records",
                         "key 'records' holds [{'balanced_accuracy': ",
                         ", ...], not a list of objects", id="record-not-an-object"),
            pytest.param(lambda raw: raw["aggregates"][1].pop("mean"), "mean",
                         "aggregates[1]: missing key 'mean'", "", id="aggregate-without-mean"),
            pytest.param(lambda raw: raw["records"][2].update(k="2"), "k",
                         "records[2]: key 'k' holds '2', not an integer or null", "",
                         id="string-k"),
        ],
    )
    def test_malformed_report_names_key(self, small_dataset, edit, key, start, end):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        raw = json.loads(run_grid(manifest, bags, clf, config).to_json())
        edit(raw)
        with pytest.raises(ReportError) as err:
            EvalReport.from_json(json.dumps(raw), "r.json")
        message = str(err.value)
        assert err.value.key == key
        assert message.startswith(f"r.json: {start}") and message.endswith(end)
        assert len(message) < 600  # a long value is shown abridged

    @pytest.mark.parametrize(
        "index, field, value, reason",
        [
            (0, "fold", -1, "key 'fold' holds -1, not 0"),
            (4, "fold", 3, "key 'fold' holds 3, not 1"),
            (1, "per_class_recalls", [1.0, 0.5],
             "key 'per_class_recalls' holds 2 recalls, not one per class of num_classes 3"),
            (2, "per_class_recalls", [1.0, 0.5, 0.5, 0.0],
             "key 'per_class_recalls' holds 4 recalls, not one per class of num_classes 3"),
        ],
    )
    def test_record_rules_name_record_and_key(self, small_dataset, index, field, value, reason):
        """A record's fold must be that of the grid's cell at its index, and
        its recall count must fit the report's config."""
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        raw = json.loads(run_grid(manifest, bags, clf, config).to_json())
        assert raw["config"]["num_classes"] == 3
        raw["records"][index][field] = value
        with pytest.raises(ReportError) as err:
            EvalReport.from_json(json.dumps(raw), "r.json")
        assert err.value.key == field
        assert str(err.value) == f"r.json: records[{index}]: {reason}"

    @pytest.mark.parametrize(
        "edit, index, held",
        [
            pytest.param(lambda a: a[1].update(mean=a[1]["mean"] + 2**-40), 1, "(", id="mean"),
            pytest.param(lambda a: a[2].update(num_records=a[2]["num_records"] + 1), 2, "(",
                         id="num_records"),
            pytest.param(lambda a: a.pop(), -1, "absent", id="missing"),
        ],
    )
    def test_aggregates_that_differ_from_records_name_the_index(
        self, small_dataset, edit, index, held
    ):
        """The file's aggregates must equal those of its records exactly;
        the first that differs is named, with key 'aggregates'."""
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1, 2))
        raw = json.loads(run_grid(manifest, bags, clf, config).to_json())
        index %= len(raw["aggregates"])
        edit(raw["aggregates"])
        with pytest.raises(ReportError) as err:
            EvalReport.from_json(json.dumps(raw), "r.json")
        assert err.value.key == "aggregates"
        assert str(err.value).startswith(
            f"r.json: aggregates do not match their records: aggregates[{index}] is {held}"
        )
        assert " in the file, (" in str(err.value) and str(err.value).endswith(") from the records")

    def test_record_accuracy_outside_unit_interval_is_named(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        raw = json.loads(run_grid(manifest, bags, clf, config).to_json())
        raw["records"][3]["balanced_accuracy"] = 1.5
        with pytest.raises(ReportError) as err:
            EvalReport.from_json(json.dumps(raw), "r.json")
        assert str(err.value) == "r.json: records[3]: balanced accuracy 1.5 outside [0, 1]"

    def test_report_aggregates_are_those_of_its_records(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1, 2))
        records = run_grid(manifest, bags, clf, config).records[::2]
        assert EvalReport({}, records).aggregates == aggregate_records(records)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_to_json_equals_canonical_json_of_the_fields(self, data):
        axis = st.one_of(st.none(), st.integers(-3, 2**40), st.integers(0, 9).map(np.int64))
        value = st.one_of(
            st.sampled_from([0.0, 1.0, 1 / 3, 2 / 3, 5e-324, 2.2250738585072014e-308, 1e-300]),
            st.floats(0.0, 1.0),
        )
        records = []
        for _ in range(data.draw(st.integers(0, 5))):
            num_classes = data.draw(st.integers(2, 40))
            records.append(EvalRecord(
                method=data.draw(st.one_of(st.sampled_from(evalharness.METHODS), st.text())),
                fold=data.draw(st.integers(0, 9)),
                seed=data.draw(axis),
                k=data.draw(axis),
                top_k=data.draw(axis),
                prompt=data.draw(axis),
                balanced_accuracy=data.draw(value),
                per_class_recalls=data.draw(
                    st.lists(value, min_size=num_classes, max_size=num_classes)
                ),
            ))
        report = EvalReport({"seeds": [1, 2], "tip_alpha": 1 / 3}, tuple(records))
        payload = {
            "config": report.config,
            "records": [dataclasses.asdict(r) for r in report.records],
            "aggregates": [dataclasses.asdict(a) for a in report.aggregates],
        }
        assert report.to_json() == canonical_json(payload) + "\n"

    def test_record_writer_keys_are_the_record_fields(self):
        # a field added to EvalRecord must be added to the writer too
        names = sorted(f.name for f in dataclasses.fields(EvalRecord))
        assert list(evalharness._RECORD_KEYS) == names

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_recall_rejected(self, bad):
        record = EvalRecord("simpleshot", 0, 7, 2, None, None, 0.5, (1.0, bad, 0.0))
        with pytest.raises(ValueError, match="non-finite float"):
            EvalReport({}, (record,)).to_json()

    def test_csv_rows_have_unique_axes_with_two_prompts(self, small_dataset):
        manifest, bags, clf = small_dataset
        two = TextClassifier(clf.class_names, np.stack([clf.weights[0]] * 2))
        config = GridConfig(num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,))
        report = run_grid(manifest, bags, two, config)
        axes = [line.rsplit(",", 1)[0] for line in report.to_csv().splitlines()[1:]]
        assert sum(r.method == "mizero" for r in report.records) == 3 * 2
        assert len(set(axes)) == len(axes) == len(report.records)

    def test_csv_layout(self, small_dataset):
        manifest, bags, clf = small_dataset
        config = GridConfig(
            methods=("simpleshot",), num_folds=3, k_grid=(2,), top_k_grid=(4,), seeds=(1,)
        )
        report = run_grid(manifest, bags, clf, config)
        lines = report.to_csv().splitlines()
        assert lines[0] == "method,fold,seed,k,top_k,prompt,balanced_accuracy"
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

    def test_canonical_json_numpy_scalars_and_errors(self):
        mixed = [np.float64(0.1), np.float32(0.5), np.int64(-3), np.int32(7), 0.1, "é"]
        assert canonical_json(mixed) == '[0.10000000000000001,0.5,-3,7,0.10000000000000001,"é"]'
        for bad in (float("nan"), np.float64("inf"), [1.0, -float("inf")]):
            with pytest.raises(ValueError, match="non-finite float"):
                canonical_json(bad)
        with pytest.raises(TypeError, match="string keys"):
            canonical_json({1: 0})
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(np.bool_(True))


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
        guided, labels, _ = slide_embedding_table(bags, "visionshot", clf, k=10)
        plain, _, _ = slide_embedding_table(bags, "bgap")
        assert silhouette(guided, labels) > silhouette(plain, labels)

    def test_single_slide_table(self, small_dataset):
        _, bags, _ = small_dataset
        rows, labels, ids = slide_embedding_table(bags[:1], "bgap")
        assert rows.shape == (1, bags[0].patches.dim)
        assert (labels, ids) == ([bags[0].label], [bags[0].slide_id])
        assert rows[0].tobytes() == bgap(bags[0].patches).tobytes()
        with pytest.raises(TooFewPoints):
            silhouette(rows, labels)
