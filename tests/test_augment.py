import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlc import augment, kernels
from mlc.augment import apply_mode, mixup, resize, rng_stream

from conftest import random_image, random_pixels, random_sample


@pytest.fixture
def always_flip(monkeypatch):
    monkeypatch.setattr(augment, "FLIP_PROBABILITY", 1.0)


@pytest.fixture
def never_flip(monkeypatch):
    monkeypatch.setattr(augment, "FLIP_PROBABILITY", 0.0)


def unit(pixels):
    """uint8 pixels as the [0, 1] values byte / 255."""
    return pixels.astype(np.float64) / 255.0


def flipped(pixels):
    """uint8 `pixels` through M1, resized to their own size; flips under `always_flip`."""
    return apply_mode(pixels, "M1", pixels.shape[:2], rng_stream(0, 2, 0, 0))


def cropped(pixels, size, rng):
    """uint8 `pixels` through M2; under `never_flip`, one random-resized-crop."""
    return apply_mode(pixels, "M2", size, rng)


def two_rows(a, b):
    """A two-row batch (pixels, labels) of the (pixels, labels) pairs a and b."""
    return np.stack([a[0], b[0]]), np.stack([a[1], b[1]])


def mixup_reference(pixels, labels, order):
    """mixup as a loop over pairs, one output row at a time."""
    out_pixels, out_labels = [], []
    for p in range(len(order) // 2):
        a, b = order[2 * p], order[2 * p + 1]
        out_pixels.append((pixels[a] + pixels[b]) / 2.0)
        out_labels.append(labels[a] | labels[b])
    if len(order) % 2 == 1:
        out_pixels.append(pixels[order[-1]])
        out_labels.append(labels[order[-1]])
    return np.stack(out_pixels), np.stack(out_labels)


class TestRngStream:
    def test_replay_determinism(self):
        a = rng_stream(42, 2, 1, 5).random(8)
        b = rng_stream(42, 2, 1, 5).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = rng_stream(42, 2, 1, 5).random(8)
        b = rng_stream(42, 2, 1, 6).random(8)
        assert not np.array_equal(a, b)


@pytest.mark.usefixtures("always_flip")
class TestFlip:
    def test_two_pixel_swap(self):
        out = flipped(np.array([[[25] * 3, [230] * 3]], dtype=np.uint8))
        np.testing.assert_array_equal(out[0, 0], [230 / 255] * 3)
        np.testing.assert_array_equal(out[0, 1], [25 / 255] * 3)

    def test_involution(self, rng):
        pixels = random_pixels(rng, 5, 9)
        np.testing.assert_array_equal(flipped(pixels[:, ::-1]), unit(pixels))

    def test_single_pixel_fixed(self):
        pixels = np.array([[[51, 102, 153]]], dtype=np.uint8)
        np.testing.assert_array_equal(flipped(pixels), unit(pixels))

    def test_view_resizes_like_a_flipped_copy(self, rng):
        pixels = random_pixels(rng, 7, 10)
        out = apply_mode(pixels, "M1", (5, 13), rng_stream(0, 2, 0, 0))
        flipped_copy = np.ascontiguousarray(pixels[:, ::-1])
        np.testing.assert_array_equal(out, resize(unit(flipped_copy), 5, 13))


class TestResize:
    def test_same_size_is_identity(self, rng):
        # the interpolation a same-size resize skips gives back the input's bits
        for h, w in [(1, 1), (6, 4), (5, 9), (64, 64)]:
            img = unit(random_pixels(rng, h, w))
            assert resize(img, h, w) is img
            interpolated = np.clip(kernels.resize_bilinear(img, h, w), 0.0, 1.0)
            assert interpolated.tobytes() == img.tobytes()

    def test_constant_image(self):
        out = resize(np.full((3, 3, 3), 0.7), 5, 8)
        np.testing.assert_array_equal(out, np.full((5, 8, 3), 0.7))

    def test_hand_derived_upscale(self):
        out = resize(np.array([[[0.0] * 3, [1.0] * 3]]), 1, 4)
        np.testing.assert_array_equal(out[0, :, 0], [0.0, 0.25, 0.75, 1.0])

    def test_output_within_input_range(self, rng):
        for _ in range(20):
            img = random_image(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            out = resize(img, int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            assert out.min() >= img.min() - 1e-12
            assert out.max() <= img.max() + 1e-12


@pytest.mark.usefixtures("never_flip")
class TestRandomResizedCrop:
    def test_output_size_always_target(self, rng):
        for i in range(10):
            pixels = random_pixels(rng, int(rng.integers(4, 16)), int(rng.integers(4, 16)))
            out = cropped(pixels, (7, 5), rng_stream(1, 2, 0, i))
            assert out.shape == (7, 5, 3)

    def test_degenerate_ranges_full_crop(self, rng, monkeypatch):
        monkeypatch.setattr(augment, "CROP_SCALE_RANGE", (1.0, 1.0))
        monkeypatch.setattr(augment, "CROP_ASPECT_RANGE", (1.0, 1.0))
        pixels = random_pixels(rng, 6, 6)
        out = cropped(pixels, (9, 9), rng_stream(3, 2, 0, 0))
        np.testing.assert_array_equal(out, resize(unit(pixels), 9, 9))

    def test_fixed_seed_reproduces(self, rng):
        pixels = random_pixels(rng, 12, 12)
        a = cropped(pixels, (8, 8), rng_stream(9, 2, 4, 2))
        b = cropped(pixels, (8, 8), rng_stream(9, 2, 4, 2))
        np.testing.assert_array_equal(a, b)

    def test_values_within_input_range(self, rng):
        pixels = random_pixels(rng, 10, 10)
        for i in range(10):
            out = cropped(pixels, (6, 6), rng_stream(5, 2, 0, i))
            assert out.min() >= unit(pixels).min() - 1e-12
            assert out.max() <= unit(pixels).max() + 1e-12

    @pytest.mark.parametrize("shape, corner", [((1, 64), (0, 31)), ((64, 1), (31, 0))])
    def test_thin_image_falls_back_to_the_centred_window(self, rng, shape, corner):
        # a sampled window is at least 2 pixels on each side, so every
        # attempt fails and the fallback is the centred 1x1 window
        pixels = random_pixels(rng, *shape)
        window = augment._random_crop(pixels, rng_stream(1, 2, 0, 0))
        top, left = corner
        np.testing.assert_array_equal(window, pixels[top : top + 1, left : left + 1])
        assert np.shares_memory(window, pixels)


class TestMixup:
    def test_label_or_table(self):
        pixels = np.zeros((2, 2, 2, 3))
        labels = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8)
        np.testing.assert_array_equal(mixup(pixels, labels, np.array([0, 1]))[1], [[1, 0, 1]])

    def test_pixel_average(self):
        pixels = np.stack([np.full((1, 1, 3), 0.2), np.full((1, 1, 3), 0.6)])
        labels = np.ones((2, 1), dtype=np.int8)
        mixed, _ = mixup(pixels, labels, np.array([0, 1]))
        np.testing.assert_array_equal(mixed, np.full((1, 1, 1, 3), 0.4))

    def test_self_mix_is_identity(self, rng):
        s = random_sample(rng)
        mixed, labels = mixup(*two_rows(s, s), np.array([0, 1]))
        np.testing.assert_array_equal(mixed[0], s[0])
        np.testing.assert_array_equal(labels[0], s[1])

    def test_commutative(self, rng):
        pixels, labels = two_rows(random_sample(rng), random_sample(rng))
        ab, ba = mixup(pixels, labels, np.array([0, 1])), mixup(pixels, labels, np.array([1, 0]))
        np.testing.assert_array_equal(ab[0], ba[0])
        np.testing.assert_array_equal(ab[1], ba[1])

    def test_support_is_union(self, rng):
        for _ in range(50):
            pixels, labels = two_rows(random_sample(rng), random_sample(rng))
            _, mixed = mixup(pixels, labels, np.array([0, 1]))
            union = np.flatnonzero(labels[0] | labels[1])
            np.testing.assert_array_equal(np.flatnonzero(mixed[0]), union)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=17, seed=0)
    def test_equals_per_pair_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.random((n, 3, 2, 3))
        labels = (rng.random((n, 5)) < 0.4).astype(np.int8)
        order = rng.permutation(n)
        before = pixels.copy(), labels.copy()
        mixed, mixed_labels = mixup(pixels, labels, order)
        expected, expected_labels = mixup_reference(pixels, labels, order)
        assert np.array_equal(mixed, expected) and np.array_equal(mixed_labels, expected_labels)
        assert mixed.shape == ((n + 1) // 2, 3, 2, 3) and mixed_labels.dtype == np.int8
        # the inputs are left as they were
        assert np.array_equal(pixels, before[0]) and np.array_equal(labels, before[1])


class TestApplyMode:
    def test_m1_output_is_target_size(self, rng):
        pixels = random_pixels(rng, 11, 13)
        out = apply_mode(pixels, "M1", (8, 8), rng_stream(0, 2, 0, 0))
        assert out.shape == (8, 8, 3) and out.dtype == np.float64

    def test_m2_and_m3_share_pipeline(self, rng):
        pixels = random_pixels(rng, 11, 13)
        a = apply_mode(pixels, "M2", (8, 8), rng_stream(4, 2, 0, 0))
        b = apply_mode(pixels, "M3", (8, 8), rng_stream(4, 2, 0, 0))
        np.testing.assert_array_equal(a, b)

    def test_unknown_mode(self, rng):
        pixels = random_pixels(rng, 4, 4)
        with pytest.raises(ValueError):
            apply_mode(pixels, "M4", (4, 4), rng_stream(0, 2, 0, 0))

    @pytest.mark.usefixtures("never_flip")
    def test_m1_without_flip_is_plain_resize(self, rng):
        pixels = random_pixels(rng, 9, 9)
        out = apply_mode(pixels, "M1", (5, 5), rng_stream(0, 2, 0, 0))
        np.testing.assert_array_equal(out, resize(unit(pixels), 5, 5))
