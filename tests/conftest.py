import io
import itertools
import threading
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


class InjectedFault(Exception):
    """Raised by `scripted_claims` on the caller in place of a block."""


def scripted_claims(blocks: int, owner):
    """A stand-in for `itertools.count` in `mlc.model` (patch `mlc.model.count`),
    and the list of (step, block, taker) claims made through it; block None is
    a claim past the last block, which ends that thread's part of the step.

    Step s (the s-th count made) gives `sgd_step` the same block offsets, but
    hands block k only to the thread that `owner(s, k)` names: "caller" (the
    thread that called this), "helper" (any other), None (either), or
    "caller fails", which raises InjectedFault on the caller in place of the
    block and leaves the step's other blocks to either thread. Offsets past the
    last of the `blocks` blocks go to whoever asks. A claim that waits 10 s
    raises AssertionError.
    """
    caller = threading.current_thread()
    claims = []
    steps = itertools.count()

    class Claims:
        def __init__(self, start: int, step: int):
            self.start, self.step, self.step_no = start, step, next(steps)
            self.k, self.failed = 0, False
            self.ready = threading.Condition()

        def __iter__(self):
            return self

        def __next__(self) -> int:
            me = "caller" if threading.current_thread() is caller else "helper"
            with self.ready:
                def mine() -> bool:
                    if self.k >= blocks or self.failed:
                        return True
                    want = owner(self.step_no, self.k)
                    return want in (None, me) or (want == "caller fails" and me == "caller")

                if not self.ready.wait_for(mine, timeout=10):
                    raise AssertionError(f"block {self.k} of step {self.step_no} never claimed")
                k, self.k = self.k, self.k + 1
                self.ready.notify_all()
                if k < blocks:
                    if not self.failed and owner(self.step_no, k) == "caller fails":
                        self.failed = True
                        claims.append((self.step_no, k, "caller fails"))
                        raise InjectedFault(f"injected at block {k} of step {self.step_no}")
                claims.append((self.step_no, k if k < blocks else None, me))
            return self.start + k * self.step

    return Claims, claims
