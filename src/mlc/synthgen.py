"""Deterministic synthetic multi-label dataset: colored shapes on noisy gray.

Each class owns one palette color (byte-exact through `io.quantize`) and
a shape kind (class index mod 3: square, disk, triangle). An image is
painted on a float canvas and quantized to (H, W, 3) uint8 bytes. It
carries class j iff a shape of class j's color is visible, so labels are
correct by construction and independently checkable by counting the pixels
whose bytes are the class color's (`census`). Every channel of the noisy
background lies in [117, 138] and every palette color has a channel of 0,
so background noise never counts as a class. Shapes may overlap in random
z-order; a draw that would fully occlude a labeled shape is rejected and
resampled from the next substream, keeping generation a pure function of
(config, image index); the class colors and their byte codes are cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .augment import STREAM_GEN, rng_stream
from .errors import NoVisibleArrangement, ShapeMismatch
from .io import DatasetManifest, quantize, write_dataset

# saturated RGB corners, then half-intensity corners; all byte-exact
_BASE_COLORS = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
]
_HALF = 128.0 / 255.0
MAX_CLASSES = 12

# shape half-extent as a fraction of the short image side; sized so pooled
# bins saturate and random crops rarely lose a shape entirely
_MIN_EXTENT = 0.20
_MAX_EXTENT = 0.38
_BACKGROUND = 0.5
_NOISE_AMPLITUDE = 0.04
_MIN_VISIBLE_PIXELS = 6
_MAX_DRAW_ATTEMPTS = 100


def palette(num_classes: int) -> np.ndarray:
    """Maximally separated class colors, exactly representable as PPM bytes."""
    if not 1 <= num_classes <= MAX_CLASSES:
        raise ValueError(f"palette supports 1..{MAX_CLASSES} classes, got {num_classes}")
    colors = [c for c in _BASE_COLORS]
    colors += [tuple(_HALF * v for v in c) for c in _BASE_COLORS]
    return np.asarray(colors[:num_classes], dtype=np.float64)


@dataclass(frozen=True)
class SynthConfig:
    num_images: int
    image_size: tuple[int, int] = (64, 64)
    num_classes: int = 6
    min_concepts: int = 1
    max_concepts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_images < 1:
            raise ValueError("num_images must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.min_concepts <= self.max_concepts <= self.num_classes:
            raise ValueError(
                f"need 1 <= min <= max <= C, got min={self.min_concepts} "
                f"max={self.max_concepts} C={self.num_classes}"
            )
        if min(self.image_size) < 16:
            raise ValueError(f"image sides must be >= 16, got {self.image_size}")
        palette(self.num_classes)


def _color_codes(rgb: np.ndarray) -> np.ndarray:
    """Each uint8 (r, g, b) of an (..., 3) array packed as r << 16 | g << 8 | b."""
    rgb = rgb.astype(np.int32)
    return rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]


@functools.lru_cache(maxsize=MAX_CLASSES)
def _class_colors(num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """`palette(num_classes)` and a column of its packed byte codes, read-only as they are shared."""
    colors = palette(num_classes)
    codes = _color_codes(quantize(colors))[:, None]
    colors.flags.writeable = codes.flags.writeable = False
    return colors, codes


def census(pixels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class count of the (H, W, 3) uint8 image's pixels whose bytes are the class color's."""
    codes = _color_codes(pixels).reshape(1, -1)
    return np.count_nonzero(codes == _class_colors(num_classes)[1], axis=1)


def render(cfg: SynthConfig, index: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Render image `index` of the dataset; returns (uint8 pixels, label indices)."""
    height, width = cfg.image_size
    colors = _class_colors(cfg.num_classes)[0]
    for attempt in range(_MAX_DRAW_ATTEMPTS):
        rng = rng_stream(cfg.seed, STREAM_GEN, index, attempt)
        count = int(rng.integers(cfg.min_concepts, cfg.max_concepts + 1))
        classes = np.sort(rng.choice(cfg.num_classes, size=count, replace=False))
        z_order = rng.permutation(classes)
        try:
            noise = rng.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE, size=(height, width, 3))
            canvas = _BACKGROUND + noise
        except (MemoryError, ValueError):
            raise ShapeMismatch(f"a {height}x{width} image is too large to allocate") from None

        halves = rng.uniform(_MIN_EXTENT, _MAX_EXTENT, size=count) * min(height, width)
        centres = [(rng.uniform(h, height - 1 - h), rng.uniform(h, width - 1 - h)) for h in halves]
        cys, cxs = np.array(centres).T
        kernels.paint_shapes(canvas, z_order % 3, cys, cxs, halves, colors[z_order])

        pixels = quantize(canvas)
        if (census(pixels, cfg.num_classes)[classes] >= _MIN_VISIBLE_PIXELS).all():
            return pixels, tuple(int(j) for j in classes)
    raise NoVisibleArrangement(
        f"image {index}: no visible arrangement in {_MAX_DRAW_ATTEMPTS} attempts"
    )


def generate(cfg: SynthConfig, out_dir: str | Path) -> DatasetManifest:
    """Render num_images images and write them, with manifest.tsv, into out_dir."""
    samples = (render(cfg, index) for index in range(cfg.num_images))
    return write_dataset(out_dir, "img", samples, cfg.num_classes)
