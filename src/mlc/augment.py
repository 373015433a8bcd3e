"""Augmentation: flip, random-resized-crop, bilinear resize and mixup.

`apply_mode` maps one decoded (H, W, 3) uint8 image to an (h, w) float64
array in [0, 1], and `mixup` pairs the rows of a whole (n, h, w, 3) batch
of those. The flip and the crop are views of the bytes; only the window
they leave is converted, as byte / 255, and resized. The flip probability
and the crop's ranges are fixed module constants, not parameters. Every
step keeps values in [0, 1], so nothing is checked again. Randomized ops
take an explicit numpy Generator so every transform is a pure function of
(inputs, rng stream). Streams come from `rng_stream`, which keys a
counter-based Philox generator off (seed, stream path): the same seed and
calls replay the same outputs, and disjoint paths give independent streams.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels

# stream path tags; first element of every spawn key
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_AUG = 2
STREAM_MIX = 3
STREAM_GEN = 4

MODES = ("M1", "M2", "M3")

# the fixed augmentation of the paper's baseline: a flip at even odds and
# a crop of 8-100% of the area at an aspect ratio in [3/4, 4/3]
FLIP_PROBABILITY = 0.5
CROP_SCALE_RANGE = (0.08, 1.0)
CROP_ASPECT_RANGE = (3 / 4, 4 / 3)
CROP_ATTEMPTS = 10


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for a (seed, path) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an (H, W, 3) array of byte / 255 values in [0, 1] with
    half-pixel-center bilinear interpolation.

    At its own size the input is returned as it is: there every tap weight
    is 0.0, so interpolation would give back the same bits.
    """
    if data.shape[:2] == (out_h, out_w):
        return data
    out = kernels.resize_bilinear(data, out_h, out_w)
    # interpolation can overshoot [0, 1] by one ulp; clamp it back
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def _random_crop(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random area/aspect window of `data`, as a view.

    Samples the area fraction uniformly in CROP_SCALE_RANGE and the aspect
    ratio log-uniformly in CROP_ASPECT_RANGE, retrying up to CROP_ATTEMPTS
    times; on failure falls back to the largest centered crop whose aspect
    is the in-range value closest to 1.
    """
    in_h, in_w = data.shape[0], data.shape[1]
    slo, shi = CROP_SCALE_RANGE
    alo, ahi = CROP_ASPECT_RANGE
    for _ in range(CROP_ATTEMPTS):
        area = rng.uniform(slo, shi) * in_h * in_w
        aspect = math.exp(rng.uniform(math.log(alo), math.log(ahi)))
        w = int(round(math.sqrt(area * aspect)))
        h = int(round(math.sqrt(area / aspect)))
        if 0 < w <= in_w and 0 < h <= in_h:
            top = int(rng.integers(0, in_h - h + 1))
            left = int(rng.integers(0, in_w - w + 1))
            return data[top : top + h, left : left + w, :]
    aspect = min(max(1.0, alo), ahi)
    h = max(1, min(in_h, int(in_w / aspect)))
    w = max(1, min(in_w, int(h * aspect)))
    top = (in_h - h) // 2
    left = (in_w - w) // 2
    return data[top : top + h, left : left + w, :]


def apply_mode(
    data: np.ndarray, mode: str, size: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Run one (H, W, 3) uint8 image through the augmentation pipeline of a
    training mode, to an (h, w, 3) float64 array in [0, 1].

    M1 flips (with FLIP_PROBABILITY) then resizes to `size`, an (h, w)
    pair; M2 and M3 flip, then crop a random window and resize it. The flip
    and the crop are views, so the byte / 255 conversion copies only the
    window. Mixup, the extra M3 step, is `mixup`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if rng.random() < FLIP_PROBABILITY:
        data = data[:, ::-1, :]
    if mode != "M1":
        data = _random_crop(data, rng)
    return resize(data.astype(np.float64) / 255.0, *size)


def mixup(pixels: np.ndarray, labels: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mix a batch in pairs: rows `order[2p]` and `order[2p + 1]` become row p.

    Pixels are averaged as (a + b) / 2 and labels ORed. With an odd count
    the row `order[-1]` passes through unmixed as the last row.
    """
    first, second = order[0::2], order[1::2]
    pairs = len(second)
    mixed_pixels, mixed_labels = pixels[first], labels[first]
    mixed_pixels[:pairs] = (mixed_pixels[:pairs] + pixels[second]) / 2.0
    mixed_labels[:pairs] |= labels[second]
    return mixed_pixels, mixed_labels
