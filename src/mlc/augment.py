"""Image-space augmentation: flip, bilinear resize, random-resized-crop, mixup.

Randomized ops take an explicit numpy Generator so every transform is a
pure function of (inputs, rng stream). Streams come from `rng_stream`,
which keys a counter-based Philox generator off (seed, stream path);
identical seed and call sequence always replays identical outputs, and
disjoint paths give independent streams for parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch
from .types import Image, LabelVector, Sample

# stream path tags; first element of every spawn key
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_AUG = 2
STREAM_MIX = 3
STREAM_GEN = 4

MODES = ("M1", "M2", "M3")


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for a (seed, path) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


@dataclass(frozen=True)
class AugmentConfig:
    target_size: tuple[int, int]
    flip_probability: float = 0.5
    crop_scale_range: tuple[float, float] = (0.08, 1.0)
    crop_aspect_range: tuple[float, float] = (3 / 4, 4 / 3)
    crop_attempts: int = 10

    def __post_init__(self):
        th, tw = self.target_size
        if th < 1 or tw < 1:
            raise ValueError(f"target_size must be positive, got {self.target_size}")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip_probability {self.flip_probability} outside [0, 1]")
        for name, (low, high) in (
            ("crop_scale_range", self.crop_scale_range),
            ("crop_aspect_range", self.crop_aspect_range),
        ):
            if not 0.0 < low <= high:
                raise ValueError(f"{name} must satisfy 0 < low <= high, got ({low}, {high})")
        if self.crop_attempts < 1:
            raise ValueError("crop_attempts must be >= 1")


def flip_horizontal(image: Image) -> Image:
    """Mirror columns: output(r, c) = input(r, width-1-c)."""
    return Image(np.ascontiguousarray(image.data[:, ::-1, :]))


def resize_bilinear(image: Image, out_h: int, out_w: int) -> Image:
    """Resize with half-pixel-center bilinear interpolation."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {out_h}x{out_w}")
    out = kernels.resize_bilinear(image.data, out_h, out_w)
    # interpolation can overshoot [0, 1] by one ulp; clamp before wrapping
    return Image(np.clip(out, 0.0, 1.0))


def random_resized_crop(image: Image, cfg: AugmentConfig, rng: np.random.Generator) -> Image:
    """Crop a random area/aspect patch and resize it to cfg.target_size.

    Samples the area fraction uniformly in crop_scale_range and the aspect
    ratio log-uniformly in crop_aspect_range, retrying up to crop_attempts
    times; on failure falls back to the largest centered crop whose aspect
    is the in-range value closest to 1.
    """
    data = image.data
    in_h, in_w = image.height, image.width
    slo, shi = cfg.crop_scale_range
    alo, ahi = cfg.crop_aspect_range
    crop = None
    for _ in range(cfg.crop_attempts):
        area = rng.uniform(slo, shi) * in_h * in_w
        aspect = math.exp(rng.uniform(math.log(alo), math.log(ahi)))
        w = int(round(math.sqrt(area * aspect)))
        h = int(round(math.sqrt(area / aspect)))
        if 0 < w <= in_w and 0 < h <= in_h:
            top = int(rng.integers(0, in_h - h + 1))
            left = int(rng.integers(0, in_w - w + 1))
            crop = data[top : top + h, left : left + w, :]
            break
    if crop is None:
        aspect = min(max(1.0, alo), ahi)
        h = max(1, min(in_h, int(in_w / aspect)))
        w = max(1, min(in_w, int(h * aspect)))
        top = (in_h - h) // 2
        left = (in_w - w) // 2
        crop = data[top : top + h, left : left + w, :]
    out = kernels.resize_bilinear(crop, *cfg.target_size)
    return Image(np.clip(out, 0.0, 1.0))


def mixup_pair(a: Sample, b: Sample) -> Sample:
    """Blend two samples: pixel-wise average image, elementwise OR labels."""
    if a.image.data.shape != b.image.data.shape:
        raise DimensionMismatch(
            f"mixup needs equal image shapes, got {a.image.data.shape} vs {b.image.data.shape}"
        )
    if a.labels.num_classes != b.labels.num_classes:
        raise DimensionMismatch(
            f"mixup needs equal label widths, got {a.labels.num_classes} vs {b.labels.num_classes}"
        )
    image = Image((a.image.data + b.image.data) / 2.0)
    labels = LabelVector(a.labels.data | b.labels.data)
    return Sample(image, labels)


def apply_mode(image: Image, mode: str, cfg: AugmentConfig, rng: np.random.Generator) -> Image:
    """Run one sample through the augmentation pipeline for a training mode.

    M1 flips then resizes; M2 and M3 flip then random-resized-crop. Mixup
    (the extra M3 step) pairs samples within a batch, so it lives in the
    trainer, not here.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if rng.random() < cfg.flip_probability:
        image = flip_horizontal(image)
    if mode == "M1":
        return resize_bilinear(image, *cfg.target_size)
    return random_resized_crop(image, cfg, rng)
