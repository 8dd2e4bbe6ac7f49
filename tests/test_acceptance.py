"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion. Criteria 5-7 share one reference benchmark: 3 classes, dim 64,
40 slides/class, 400-600 patches/slide, 5% informative patches at unit
noise, 5 stratified folds, 5 seeds.
"""

import io
import math
import struct
import time

import numpy as np
import pytest

from protoshot.adapters import (
    build_cache,
    build_prototypes,
    mizero_predict,
    predict_prototype,
    simpleshot_prototypes,
    tip_adapter_predict,
)
from protoshot.cli import main as cli_main
from protoshot.embedstore import (
    PatchMatrix,
    SlideBag,
    TextClassifier,
    read_embeddings,
    write_embeddings,
)
from protoshot.errors import BadMagic, DimensionZero, TruncatedPayload
from protoshot.evalharness import (
    GridConfig,
    balanced_accuracy,
    derive_seed,
    run_grid,
    sample_few_shot,
    silhouette,
    slide_embedding_table,
    stratified_kfold,
)
from protoshot.simsel import top_k
from protoshot.synthgen import SynthConfig, generate

from conftest import random_unit_rows

REFERENCE_CONFIG = SynthConfig(
    num_classes=3,
    dim=64,
    slides_per_class=40,
    patches_min=400,
    patches_max=600,
    informative_fraction=0.05,
    noise_scale=1.0,
    seed=11,
)
REFERENCE_TOP_K = 25
CANONICAL_TOP_K_GRID = (2, 20, 200, 2000)


@pytest.fixture(scope="module")
def reference_benchmark():
    manifest, bags, classifier = generate(REFERENCE_CONFIG)
    grid = GridConfig(
        methods=("visionshot", "simpleshot"),
        num_folds=5,
        k_grid=(2, 4, 8, 16),
        top_k_grid=CANONICAL_TOP_K_GRID + (REFERENCE_TOP_K,),
        num_seeds=5,
        base_seed=0,
    )
    start = time.perf_counter()
    report = run_grid(manifest, bags, classifier, grid)
    duration = time.perf_counter() - start
    means = {(a.method, a.k, a.top_k): a.mean for a in report.aggregates}
    return {
        "manifest": manifest,
        "bags": bags,
        "classifier": classifier,
        "report": report,
        "means": means,
        "duration": duration,
    }


def test_criterion_01_oracle_equivalence():
    """top-k, balanced accuracy, silhouette, and cache blending all match
    independent oracles; whole check under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    # top-k vs sort-then-truncate, ties included, exact indices
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        scores = (
            rng.integers(0, 6, size=n) / 5.0 if rng.random() < 0.5 else rng.standard_normal(n)
        )
        k = int(rng.integers(1, n + 3))
        expected = sorted(range(n), key=lambda i: (-scores[i], i))[: min(k, n)]
        assert top_k(scores, k).tolist() == expected

    # balanced accuracy vs explicit confusion matrix
    for _ in range(100):
        n = int(rng.integers(6, 200))
        labels = rng.integers(0, 3, size=n)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        conf = np.zeros((3, 3))
        for p, y in zip(preds, labels):
            conf[y, p] += 1
        expected = float(np.mean([conf[c, c] / conf[c].sum() for c in range(3)]))
        score, _ = balanced_accuracy(preds.tolist(), labels.tolist(), 3)
        assert abs(score - expected) <= 1e-12

    # silhouette vs textbook O(M^2) loops at M = 200
    points = rng.standard_normal((200, 6))
    labels = rng.integers(0, 3, size=200).tolist()
    total = 0.0
    for i in range(200):
        same = [j for j in range(200) if labels[j] == labels[i] and j != i]
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = min(
            np.mean(
                [np.linalg.norm(points[i] - points[j]) for j in range(200) if labels[j] == c]
            )
            for c in set(labels)
            if c != labels[i]
        )
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    assert abs(silhouette(points, labels) - total / 200) <= 1e-9

    # cache blending vs direct formula recomputation
    for _ in range(50):
        dim = 8
        weights = random_unit_rows(rng, 3, dim).reshape(1, 3, dim)
        classifier = TextClassifier(("a", "b", "c"), weights)
        support = [
            SlideBag(f"s{c}{j}", PatchMatrix(random_unit_rows(rng, 5, dim)), label=c)
            for c in range(3)
            for j in range(2)
        ]
        alpha = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(1.0, 8.0))
        cache = build_cache(support, 3, alpha, beta)
        bag = SlideBag("q", PatchMatrix(random_unit_rows(rng, 7, dim)))
        pred = tip_adapter_predict(bag, cache, classifier)
        q = bag.patches.values.astype(np.float64).mean(axis=0)
        q /= math.sqrt(float(q @ q))
        canon = weights[0].astype(np.float64)
        expected = np.array(
            [
                alpha
                * sum(
                    math.exp(-beta * (1.0 - float(q @ cache.keys[m]))) * cache.values[m, c]
                    for m in range(cache.size)
                )
                + float(q @ (canon[c] / np.linalg.norm(canon[c])))
                for c in range(3)
            ]
        )
        np.testing.assert_allclose(pred.class_scores, expected, rtol=0, atol=1e-10)

    assert time.perf_counter() - start < 10.0


def test_criterion_02_method_identity():
    """Text-guided prototypes with k >= max bag size equal plain prototypes
    within 1e-12 per element, on 100 random support sets."""
    rng = np.random.default_rng(200)
    for _ in range(100):
        num_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(max(2, num_classes), 12))
        weights = random_unit_rows(rng, num_classes, dim).reshape(1, num_classes, dim)
        classifier = TextClassifier(
            tuple(f"c{i}" for i in range(num_classes)), weights
        )
        support = []
        max_rows = 0
        for c in range(num_classes):
            for j in range(int(rng.integers(1, 4))):
                n = int(rng.integers(2, 25))
                max_rows = max(max_rows, n)
                support.append(
                    SlideBag(f"c{c}_{j}", PatchMatrix(random_unit_rows(rng, n, dim)), label=c)
                )
        guided = build_prototypes(support, classifier, k=max_rows + int(rng.integers(0, 5)))
        plain = simpleshot_prototypes(
            support, num_classes=num_classes, class_names=classifier.class_names
        )
        np.testing.assert_allclose(
            guided.prototypes, plain.prototypes, rtol=0, atol=1e-12
        )


def test_criterion_03_argmax_invariance():
    """Nearest-prototype predictions survive positive scaling of the pooled
    embedding and patch order shuffling, 1000 trials each."""
    rng = np.random.default_rng(300)
    support = [
        SlideBag(f"s{c}{j}", PatchMatrix(random_unit_rows(rng, 10, 8)), label=c)
        for c in range(3)
        for j in range(2)
    ]
    protos = simpleshot_prototypes(support, num_classes=3)

    for _ in range(1000):
        rows = random_unit_rows(rng, int(rng.integers(2, 20)), 8)
        base = predict_prototype(SlideBag("q", PatchMatrix(rows)), protos).predicted
        lam = float(10.0 ** rng.uniform(-3, 3))
        scaled = predict_prototype(SlideBag("q", PatchMatrix(rows * lam)), protos).predicted
        assert scaled == base

    for _ in range(1000):
        rows = random_unit_rows(rng, int(rng.integers(2, 20)), 8)
        bag = SlideBag("q", PatchMatrix(rows))
        pred = predict_prototype(bag, protos)
        gaps = np.diff(np.sort(pred.class_scores))
        if gaps.min() < 1e-9:
            continue  # permutation invariance is only claimed for distinct scores
        perm = rng.permutation(rows.shape[0])
        shuffled = predict_prototype(SlideBag("q", PatchMatrix(rows[perm])), protos)
        assert shuffled.predicted == pred.predicted


def test_criterion_04_degenerate_separability():
    """Fully informative noiseless data is solved perfectly by all four
    methods; fully uninformative data leaves zero-shot at chance."""
    manifest, bags, classifier = generate(
        SynthConfig(
            num_classes=3,
            dim=16,
            slides_per_class=10,
            patches_min=20,
            patches_max=40,
            informative_fraction=1.0,
            noise_scale=0.0,
            seed=41,
        )
    )
    report = run_grid(
        manifest,
        bags,
        classifier,
        GridConfig(num_folds=5, k_grid=(2,), top_k_grid=(4,), seeds=(7, 8)),
    )
    assert {r.method for r in report.records} == {
        "visionshot", "simpleshot", "tipadapter", "mizero",
    }
    assert all(r.balanced_accuracy == 1.0 for r in report.records)

    _, noise_bags, noise_classifier = generate(
        SynthConfig(
            num_classes=3,
            dim=64,
            slides_per_class=100,
            patches_min=40,
            patches_max=60,
            informative_fraction=0.0,
            noise_scale=1.0,
            seed=23,
        )
    )
    assert len(noise_bags) == 300
    predictions = [mizero_predict(bag, noise_classifier) for bag in noise_bags]
    score, _ = balanced_accuracy(predictions, [bag.label for bag in noise_bags], 3)
    sigma = math.sqrt(3 * (1 / 3) * (2 / 3) / 100) / 3
    assert abs(score - 1 / 3) <= 3 * sigma


def test_criterion_05_lowshot_margin(reference_benchmark, acceptance_notes):
    """Text-guided prototypes beat plain prototypes at 2 and 4 shots on the
    reference benchmark; the margin is recorded, not asserted."""
    means = reference_benchmark["means"]
    margins = {}
    for k in (2, 4):
        guided = means[("visionshot", k, REFERENCE_TOP_K)]
        plain = means[("simpleshot", k, None)]
        assert guided > plain, f"k={k}: {guided} vs {plain}"
        margins[k] = guided - plain
    acceptance_notes["test_criterion_05_lowshot_margin"] = (
        f"margins: k=2 {margins[2]:+.3f}, k=4 {margins[4]:+.3f}; "
        f"benchmark ran in {reference_benchmark['duration']:.1f}s"
    )
    assert reference_benchmark["duration"] < 60.0


def test_criterion_06_topk_trend(reference_benchmark, acceptance_notes):
    """More shots never hurt (k=16 vs k=2 per top-K), and an interior top-K
    attains the maximum."""
    means = reference_benchmark["means"]
    for kt in CANONICAL_TOP_K_GRID:
        assert means[("visionshot", 16, kt)] >= means[("visionshot", 2, kt)], f"top_k={kt}"
    best_per_k = {}
    for k in (2, 4, 8, 16):
        by_topk = {kt: means[("visionshot", k, kt)] for kt in CANONICAL_TOP_K_GRID}
        best = max(by_topk, key=by_topk.get)
        best_per_k[k] = best
        assert best not in (min(CANONICAL_TOP_K_GRID), max(CANONICAL_TOP_K_GRID)), (
            f"k={k}: best top-K {best} is not interior ({by_topk})"
        )
    acceptance_notes["test_criterion_06_topk_trend"] = (
        "best top-K per k: " + ", ".join(f"k={k}->{v}" for k, v in best_per_k.items())
    )


def test_criterion_07_silhouette_gap(reference_benchmark, acceptance_notes):
    """Text-guided slide embeddings separate classes better than plain
    pooled embeddings; the ratio is recorded, not asserted."""
    bags = reference_benchmark["bags"]
    classifier = reference_benchmark["classifier"]
    guided_rows, labels, _ = slide_embedding_table(
        bags, "visionshot", classifier, REFERENCE_TOP_K
    )
    plain_rows, _, _ = slide_embedding_table(bags, "bgap")
    s_guided = silhouette(guided_rows, labels)
    s_plain = silhouette(plain_rows, labels)
    assert s_guided > s_plain
    acceptance_notes["test_criterion_07_silhouette_gap"] = (
        f"guided {s_guided:.3f} vs plain {s_plain:.3f}"
    )


def test_criterion_08_determinism(tmp_path):
    """CLI evaluation is byte-identical across reruns; generation is
    byte-identical per seed."""
    dataset = tmp_path / "ds"
    synth = [
        "synth", "--classes", "3", "--dim", "8", "--slides-per-class", "6",
        "--patches", "12:20", "--rho", "0.4", "--kappa", "1.0", "--seed", "3",
        "--out", str(dataset),
    ]
    assert cli_main(synth) == 0

    twin = tmp_path / "ds_twin"
    assert cli_main(synth[:-1] + [str(twin)]) == 0
    for path in sorted(dataset.iterdir()):
        assert path.read_bytes() == (twin / path.name).read_bytes(), path.name

    def evaluate(out):
        argv = [
            "evaluate", "--dataset", str(dataset), "--out", str(out),
            "--folds", "3", "--k-grid", "2,4", "--topk-grid", "2,8",
            "--seeds", "5,6",
        ]
        assert cli_main(argv) == 0

    single = tmp_path / "single.json"
    single_again = tmp_path / "single2.json"
    third = tmp_path / "third.json"
    evaluate(single)
    evaluate(single_again)
    evaluate(third)
    assert single.read_bytes() == single_again.read_bytes()
    assert single.read_bytes() == third.read_bytes()


def test_criterion_09_format_fidelity():
    """Embedding files round-trip bit-identically; malformed headers raise
    the specific errors."""
    rng = np.random.default_rng(900)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        d = int(rng.integers(2, 40))
        scale = float(10.0 ** rng.integers(-8, 9))
        matrix = PatchMatrix((rng.standard_normal((n, d)) * scale).astype(np.float32))
        buffer = io.BytesIO()
        write_embeddings(matrix, buffer)
        buffer.seek(0)
        back = read_embeddings(buffer)
        assert back.values.tobytes() == matrix.values.tobytes()

    with pytest.raises(BadMagic):
        read_embeddings(io.BytesIO(b"XXXX" + b"\x00" * 12))
    with pytest.raises(TruncatedPayload):
        header = struct.pack("<4sIII", b"PSE1", 4, 3, 0)
        read_embeddings(io.BytesIO(header + b"\x00" * (4 * 3 * 3)))
    with pytest.raises(DimensionZero):
        read_embeddings(io.BytesIO(struct.pack("<4sIII", b"PSE1", 0, 3, 0)))


def test_criterion_10_protocol_fidelity():
    """Folds stay within +/-1 per class on a (513, 119, 291) corpus, and no
    support draw ever touches its test fold across the full default grid."""
    sizes = (513, 119, 291)
    labels = {}
    i = 0
    for c, size in enumerate(sizes):
        for _ in range(size):
            labels[f"slide{i}"] = c
            i += 1
    assignment = stratified_kfold(labels, 5, derive_seed(0, "folds"))
    for c, size in enumerate(sizes):
        per_fold = [
            sum(1 for sid in assignment.fold_ids(f) if labels[sid] == c) for f in range(5)
        ]
        assert sum(per_fold) == size
        assert max(per_fold) - min(per_fold) <= 1

    seeds = GridConfig().resolved_seeds()
    for fold in range(5):
        test_ids = set(assignment.fold_ids(fold))
        groups = [[] for _ in sizes]
        for sid, label in labels.items():
            if sid not in test_ids:
                groups[label].append(sid)
        for seed in seeds:
            for k in (2, 4, 8, 16):
                draw = sample_few_shot(groups, k, derive_seed(seed, "support", fold, k))
                assert len(draw.support_ids) == 3 * k
                assert not set(draw.support_ids) & test_ids
