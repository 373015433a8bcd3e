import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mlc.io import DatasetManifest, read_manifest
from mlc.model import ModelParams, sgd_step

# the bytes of save_params(init_params(3, (2, 2), 5, seed=0))
CHECKPOINT = Path(__file__).parent / "data" / "init_c3_g2x2_h5_seed0.params"


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


def manifest_of(source: str | Path) -> DatasetManifest:
    """`read_manifest` of the file at a Path, or of str text UTF-8 encoded,
    each read as the binary stream the reader takes."""
    if isinstance(source, Path):
        with open(source, "rb") as stream:
            return read_manifest(stream)
    return read_manifest(io.BytesIO(source.encode("utf-8")))


def copy_params(params: ModelParams) -> ModelParams:
    """A copy of `params` that shares no array with it."""
    return ModelParams(
        params.pool_grid, params.W1.copy(), params.b1.copy(), params.W2.copy(), params.b2.copy()
    )


def step_gradients(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and summed gradients {"W1", "b1", "W2", "b2"} of a 1-row batch,
    read off one `sgd_step` of a copy of `params` at unit learning rates.

    With n = 1 and lr = 1 the step is `w -= g`, so before - after is g up to
    one rounding at each weight.
    """
    assert features.shape[0] == 1
    stepped = copy_params(params)
    loss = sgd_step(stepped, features, labels, 1.0, 1.0)
    return loss, {n: getattr(params, n) - getattr(stepped, n) for n in ("W1", "b1", "W2", "b2")}


def traced_peak(fn):
    """`fn()` and the peak bytes Python and numpy allocated while it ran,
    as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
