import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoshot import synthgen
from protoshot.embedstore import write_dataset
from protoshot.errors import InvalidConfig, UnknownClass
from protoshot.synthgen import SynthConfig, _class_directions, generate, stream


def config(**overrides) -> SynthConfig:
    base = dict(
        num_classes=3,
        dim=12,
        slides_per_class=5,
        patches_min=10,
        patches_max=25,
        informative_fraction=0.4,
        noise_scale=1.0,
        seed=42,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_more_classes_than_dims(self):
        with pytest.raises(InvalidConfig):
            config(num_classes=13, dim=12)

    def test_fraction_out_of_range(self):
        with pytest.raises(InvalidConfig):
            config(informative_fraction=1.5)
        with pytest.raises(InvalidConfig):
            config(informative_fraction=-0.1)

    def test_bad_patch_range(self):
        with pytest.raises(InvalidConfig):
            config(patches_min=20, patches_max=10)
        with pytest.raises(InvalidConfig):
            config(patches_min=0)

    def test_negative_noise(self):
        with pytest.raises(InvalidConfig):
            config(noise_scale=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise(self, bad):
        with pytest.raises(InvalidConfig, match="noise_scale"):
            config(noise_scale=bad)

    def test_negative_seed_names_the_field(self):
        with pytest.raises(InvalidConfig, match=r"^seed must be >= 0, got -1$"):
            config(seed=-1)
        config(seed=0)


class TestGenerate:
    def test_shapes_and_labels(self):
        manifest, bags, clf = generate(config())
        assert len(bags) == 15
        assert manifest.classes == ("class_0", "class_1", "class_2")
        assert [b.label for b in bags] == [c for c in range(3) for _ in range(5)]
        assert clf.num_prompts == 1 and clf.num_classes == 3 and clf.dim == 12
        for rec, bag in zip(manifest.slides, bags):
            assert rec.slide_id == bag.slide_id
            assert rec.num_patches == bag.patches.rows

    def test_patch_counts_within_range(self):
        _, bags, _ = generate(config(patches_min=8, patches_max=11))
        assert all(8 <= b.patches.rows <= 11 for b in bags)

    def test_rows_unit_norm(self):
        _, bags, _ = generate(config())
        for bag in bags:
            np.testing.assert_allclose(bag.patches.row_norms(), 1.0, rtol=0, atol=1e-6)

    def test_class_directions_orthonormal(self):
        _, _, clf = generate(config())
        w = clf.weights[0].astype(np.float64)
        np.testing.assert_allclose(w @ w.T, np.eye(3), rtol=0, atol=1e-6)

    def test_informative_count_exact(self):
        """With zero noise, informative rows sit exactly on the class
        direction, so they are countable."""
        cfg = config(informative_fraction=0.37, noise_scale=0.0)
        _, bags, clf = generate(cfg)
        for bag in bags:
            direction = clf.weights[0, bag.label]
            on_direction = np.all(bag.patches.values == direction, axis=1).sum()
            assert on_direction == math.ceil(0.37 * bag.patches.rows)

    def test_informative_first_layout(self):
        cfg = config(informative_fraction=0.3, noise_scale=0.0)
        _, bags, clf = generate(cfg)
        bag = bags[0]
        n_info = math.ceil(0.3 * bag.patches.rows)
        direction = clf.weights[0, bag.label]
        assert np.all(bag.patches.values[:n_info] == direction)

    def test_rho_one_kappa_zero_degenerate(self):
        _, bags, clf = generate(config(informative_fraction=1.0, noise_scale=0.0))
        for bag in bags:
            assert np.all(bag.patches.values == clf.weights[0, bag.label])

    def test_rho_zero_no_informative(self):
        cfg = config(informative_fraction=0.0)
        _, bags, clf = generate(cfg)
        # background is isotropic: mean |dot| with the class direction is small
        dots = []
        for bag in bags:
            direction = clf.weights[0, bag.label].astype(np.float64)
            dots.extend(bag.patches.values.astype(np.float64) @ direction)
        assert abs(np.mean(dots)) < 0.1

    def test_informative_background_contrast(self):
        cfg = config(
            dim=64,
            patches_min=200,
            patches_max=300,
            informative_fraction=0.05,
            noise_scale=1.0,
        )
        _, bags, clf = generate(cfg)
        info_dots = []
        background_dots = []
        for bag in bags:
            direction = clf.weights[0, bag.label].astype(np.float64)
            n_info = math.ceil(0.05 * bag.patches.rows)
            scores = bag.patches.values.astype(np.float64) @ direction
            info_dots.extend(scores[:n_info])
            background_dots.extend(scores[n_info:])
        assert np.mean(info_dots) > np.mean(background_dots) + 0.05

    def test_deterministic_per_seed(self):
        a_manifest, a_bags, a_clf = generate(config(seed=9))
        b_manifest, b_bags, b_clf = generate(config(seed=9))
        assert a_manifest == b_manifest
        assert np.array_equal(a_clf.weights, b_clf.weights)
        for x, y in zip(a_bags, b_bags):
            assert x.patches.values.tobytes() == y.patches.values.tobytes()

    def test_seeds_differ(self):
        _, a_bags, _ = generate(config(seed=9))
        _, b_bags, _ = generate(config(seed=10))
        assert a_bags[0].patches.values.tobytes() != b_bags[0].patches.values.tobytes()


def reference_slides(cfg: SynthConfig) -> list[np.ndarray]:
    """Every slide's rows drawn block by block and stacked, the layout that
    `generate` must reproduce byte for byte."""
    rng = np.random.default_rng(cfg.seed)
    directions = _class_directions(rng, cfg.num_classes, cfg.dim)

    def unit(rows):
        return rows / np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]

    slides = []
    for c in range(cfg.num_classes):
        for _ in range(cfg.slides_per_class):
            n = int(rng.integers(cfg.patches_min, cfg.patches_max + 1))
            n_info = math.ceil(cfg.informative_fraction * n)
            blocks = []
            if n_info:
                noise = cfg.noise_scale * rng.standard_normal((n_info, cfg.dim))
                blocks.append(unit(directions[c][None, :] + noise))
            if n - n_info:
                blocks.append(unit(rng.standard_normal((n - n_info, cfg.dim))))
            slides.append(np.vstack(blocks).astype(np.float32))
    return slides


class TestStream:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(3, 40),
        patches=st.tuples(st.integers(1, 30), st.integers(0, 30)),
        rho=st.sampled_from([0.0, 0.05, 0.37, 1.0]),
        kappa=st.sampled_from([0.0, 0.5, 1.0, 3.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_blockwise_reference(self, dim, patches, rho, kappa, seed):
        cfg = config(dim=dim, slides_per_class=2, patches_min=patches[0],
                     patches_max=patches[0] + patches[1], informative_fraction=rho,
                     noise_scale=kappa, seed=seed)
        _, bags, _ = generate(cfg)
        expected = reference_slides(cfg)
        assert [b.patches.values.tobytes() for b in bags] == [e.tobytes() for e in expected]

    def test_lazy_and_read_only(self):
        _, slides = stream(config())
        record, bag = next(slides)
        assert record.slide_id == bag.slide_id == "class_0_000"
        assert record.num_patches == bag.patches.rows
        assert not bag.patches.values.flags.writeable


@pytest.fixture
def new_threads():
    """A function giving the threads started since the test began."""
    before = set(threading.enumerate())
    return lambda: set(threading.enumerate()) - before


class TestDrawer:
    """The thread that draws a stream's slides lives only as long as the
    stream: it starts at the first slide asked for and is joined when the
    stream ends, fails or is closed or dropped."""

    def test_none_left_after_generate(self, new_threads):
        generate(config())
        assert not new_threads()

    def test_starts_at_first_slide_and_ends_with_the_stream(self, new_threads):
        _, slides = stream(config())
        assert not new_threads()
        next(slides)
        assert len(new_threads()) == 1
        for _ in slides:
            pass
        assert not new_threads()

    def test_close_after_two_slides_joins_it(self, new_threads):
        _, slides = stream(config())
        next(slides), next(slides)
        slides.close()
        assert not new_threads()

    def test_dropped_stream_joins_it(self, new_threads):
        _, slides = stream(config())
        next(slides)
        del slides
        assert not new_threads()

    def test_draw_error_reaches_the_consumer_at_its_slide(self, monkeypatch, new_threads):
        _, expected, _ = generate(config())
        draw = synthgen._draw_slide
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("draw 3 failed")
            draw(*args)

        monkeypatch.setattr(synthgen, "_draw_slide", failing)
        _, slides = stream(config())
        for i in range(3):
            _, bag = next(slides)
            assert bag.patches.values.tobytes() == expected[i].patches.values.tobytes()
        with pytest.raises(RuntimeError, match="^draw 3 failed$"):
            next(slides)
        assert not new_threads()
        assert len(calls) == 4  # the drawer stopped at its error

    def test_failed_write_leaves_no_thread(self, tmp_path, new_threads):
        # the first class_1 slide fails its record check, five slides in
        with pytest.raises(UnknownClass):
            write_dataset(("class_0",), stream(config())[1], tmp_path)
        assert not new_threads()
        assert len(list(tmp_path.glob("*.pse"))) == 5

    def test_concurrent_streams_under_fast_switching(self, new_threads):
        """More streams than cores, switching threads every few microseconds,
        each still gives the reference bytes: no buffer is handed to the
        consumer while it is drawn into, or reused while it is read."""
        cfg = config(dim=16, slides_per_class=8, patches_min=1, patches_max=60)
        expected = [e.tobytes() for e in reference_slides(cfg)]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: results.append([b.patches.values.tobytes()
                                                   for b in generate(cfg)[1]])
                )
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        assert not new_threads()
