import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def random_image(rng: np.random.Generator, height: int = 8, width: int = 8) -> np.ndarray:
    """(H, W, 3) float64 values in [0, 1)."""
    return rng.random((height, width, 3))


def random_pixels(rng: np.random.Generator, height: int = 8, width: int = 8) -> np.ndarray:
    """(H, W, 3) uint8 bytes, as `read_ppm` decodes them."""
    return rng.integers(0, 256, (height, width, 3), dtype=np.uint8)


def random_sample(
    rng: np.random.Generator, height: int = 8, width: int = 8, num_classes: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (H, W, 3) and int8 labels (C,) of one random training example."""
    labels = (rng.random(num_classes) < 0.4).astype(np.int8)
    return random_image(rng, height, width), labels
