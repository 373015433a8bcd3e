"""Mini-batch SGD training with mode-specific augmentation and test scoring.

Modes: M1 = random flip only, M2 = flip + random-resized-crop, M3 = the M2
pipeline plus mixup on the even epochs 0, 2, 4 ... (random disjoint pairs
within each batch; an odd leftover passes through unmixed). The learning
rate of each parameter group is multiplied by lr_decay_factor from
lr_decay_epoch on; W2/b2 form the head group, W1/b1 the body group.
Training stops with DivergedLoss at the first batch whose mean loss is not
finite or exceeds DIVERGENCE_FACTOR times the first batch's.

Everything random is keyed off (seed, stream, epoch, index) Philox
streams, and batches reduce in a fixed order, so a (seed, config) pair
replays to bitwise-identical parameters.

A batch is built on arrays: `augment.apply_mode` writes each decoded uint8
image, at `TrainConfig.input_size`, into one (n, H, W, 3) float64 array,
its labels are rows of the label matrix, and `augment.mixup` pairs the
whole batch's rows at once; `augmented_samples` gives `mlc augment` epoch
0's batches. `TrainConfig` owns every check on its values, the pool grid
fitting the input size included. `sgd_step`, the model's only backward
pass, updates the arrays of `init_params` in place; they are validated as
`ModelParams` when made and once more before `train` returns them.

`_built_ahead` is the one way the model is run: while the calling thread
uses an item, one worker thread makes the next, `train`'s batch
(augmentation, mixup and pooling, across epoch boundaries too) or
`predict`'s pooled block, and OpenBLAS is held to one thread, so no byte
depends on OPENBLAS_NUM_THREADS. The SGD step borrows the worker: once
the next batch is built, it applies some of W1's row blocks while the
caller applies the others, each in a block buffer the step makes, with
the bytes of a serial step. A build error comes out as itself; leaving the
block joins the worker and restores the thread count on every exit path.
"""

from __future__ import annotations

import ctypes
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .augment import (
    MODES, STREAM_AUG, STREAM_MIX, STREAM_SHUFFLE, apply_mode, mixup, resize, rng_stream,
)
from .errors import DivergedLoss, EmptyInput, ShapeMismatch
from .io import DatasetManifest, quantize, read_image, write_atomic
from .model import (
    ModelParams, check_pool_grid, forward_features, init_params, pooled_batch, sgd_step,
)
from .types import LabelMatrix, ScoreMatrix

# a batch whose mean loss exceeds this multiple of the run's first batch's
# mean loss ends training as diverged
DIVERGENCE_FACTOR = 1000.0
# images predict and augmented_samples hold as floats, and the rows of each predict
# forward; even, so no mixup pair is split
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr_head: float = 0.1
    lr_body: float = 0.01
    lr_decay_factor: float = 0.1
    lr_decay_epoch: int = 20
    mode: str = "M1"
    input_size: tuple[int, int] = (64, 64)
    seed: int = 0
    pool_grid: tuple[int, int] = (16, 16)
    hidden: int = 4096

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for rate in (self.lr_head, self.lr_body, self.lr_decay_factor):
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError("learning rates and decay factor must be finite and > 0")
        if not 0 <= self.lr_decay_epoch < self.epochs:
            raise ValueError(f"lr_decay_epoch must be in [0, epochs), got {self.lr_decay_epoch}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if min(self.input_size) < 1 or min(self.pool_grid) < 1 or self.hidden < 1:
            raise ValueError("input_size, pool_grid and hidden must be positive")
        (gh, gw), (height, width) = self.pool_grid, self.input_size
        if gh > height or gw > width:
            raise ValueError(f"pool_grid {gh}x{gw} is larger than input_size {height}x{width}")


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple[float, ...]
    params: ModelParams
    wall_time_s: float


def effective_lrs(cfg: TrainConfig, epoch: int) -> tuple[float, float]:
    factor = cfg.lr_decay_factor if epoch >= cfg.lr_decay_epoch else 1.0
    return cfg.lr_head * factor, cfg.lr_body * factor


def mixup_active(cfg: TrainConfig, epoch: int) -> bool:
    return cfg.mode == "M3" and epoch % 2 == 0


def _pixel_batch(n: int, size: tuple[int, int]) -> np.ndarray:
    """An empty (n, h, w, 3) float64 batch; one too large to allocate is ShapeMismatch."""
    try:
        return np.empty((n, *size, 3), dtype=np.float64)
    except (MemoryError, ValueError):
        raise ShapeMismatch(f"{n} images of {size[0]}x{size[1]} are too large to allocate") from None


def _augmented_batch(
    images: list[np.ndarray],
    labels: LabelMatrix,
    indices: np.ndarray,
    mode: str,
    size: tuple[int, int],
    seed: int,
    epoch: int,
    mix_order: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (n, h, w, 3) and labels (n, C) of one augmented batch of (h, w) `size`.

    The image at `indices[j]` is augmented on its (seed, STREAM_AUG, epoch,
    index) stream into row j. With a `mix_order`, the rows are then paired
    by `mixup`, so positions `mix_order[2p]` and `mix_order[2p + 1]` become
    row p and an odd last position passes through unmixed.
    """
    pixels = _pixel_batch(len(indices), size)
    for j, i in enumerate(indices):
        rng = rng_stream(seed, STREAM_AUG, epoch, int(i))
        pixels[j] = apply_mode(images[i], mode, size, rng)
    targets = labels.data[indices]
    return (pixels, targets) if mix_order is None else mixup(pixels, targets, mix_order)


def _training_batches(
    images: list[np.ndarray], labels: LabelMatrix, cfg: TrainConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pooled features (n, D) and targets (n, C) of every batch of the run, in order."""
    n = len(images)
    for epoch in range(cfg.epochs):
        order = rng_stream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(n)
        for batch_no, lo in enumerate(range(0, n, cfg.batch_size)):
            indices = order[lo : lo + cfg.batch_size]
            mix_order = None
            if mixup_active(cfg, epoch):
                mix_rng = rng_stream(cfg.seed, STREAM_MIX, epoch, batch_no)
                mix_order = mix_rng.permutation(len(indices))
            pixels, targets = _augmented_batch(
                images, labels, indices, cfg.mode, cfg.input_size, cfg.seed, epoch, mix_order
            )
            yield pooled_batch(pixels, cfg.pool_grid), targets


# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None when none is found.

    Libraries are found through Linux's /proc/self/maps; elsewhere this is None.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# the `_one_blas_thread` blocks open in this process, and the count the first found
_blas_hold = threading.Lock()
_blas_holders = 0
_blas_restore = 0


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold the loaded OpenBLAS to one thread inside the block; no-op without one.

    The count is process-wide, so BLAS calls on other threads see it too, and
    overlapping blocks share one hold: the first sets 1, and the last out
    restores the count the first found.
    """
    global _blas_holders, _blas_restore
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_hold:
        if _blas_holders == 0:
            _blas_restore = get()
            set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_hold:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_restore)


@contextmanager
def _built_ahead(items: Iterator) -> Iterator[tuple[Iterator, ThreadPoolExecutor]]:
    """An iterator over `items` (never None) whose next item one worker thread
    makes while the caller uses the current one, and that worker, OpenBLAS
    held to one thread. A task the caller submits to the worker runs after
    the item being built, on the same thread, so the build's memory stays in
    one thread's allocator arena.

    numpy's overflow and invalid-value warnings are off in the block: a
    non-finite loss or score is reported as DivergedLoss or NonFinite instead.
    """
    def ahead(worker: ThreadPoolExecutor) -> Iterator:
        pending = worker.submit(next, items, None)
        while (item := pending.result()) is not None:
            pending = worker.submit(next, items, None)
            yield item

    quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet, _one_blas_thread(), ThreadPoolExecutor(1, thread_name_prefix="mlc-ahead") as worker:
        yield ahead(worker), worker


def train(
    manifest: DatasetManifest,
    cfg: TrainConfig,
    root: str | Path = ".",
    log_path: str | Path | None = None,
) -> TrainReport:
    """Run the full SGD schedule and return losses plus final parameters."""
    start = time.perf_counter()
    if len(manifest) == 0:
        raise EmptyInput("manifest lists no images to train on")
    images = [read_image(root, path) for path, _ in manifest.entries]  # each epoch draws all
    labels = manifest.label_matrix()
    num_batches = len(range(0, len(images), cfg.batch_size))
    # sgd_step updates these arrays in place
    params = init_params(manifest.num_classes, cfg.pool_grid, cfg.hidden, cfg.seed)

    log_lines = []
    epoch_losses = []
    first_loss = None
    with _built_ahead(_training_batches(images, labels, cfg)) as (batches, worker):
        for epoch in range(cfg.epochs):
            lr_head, lr_body = effective_lrs(cfg, epoch)
            loss_sum = 0.0
            row_count = 0
            for batch_no in range(num_batches):
                features, targets = next(batches)
                batch_loss = sgd_step(params, features, targets, lr_head, lr_body, worker)
                rows = len(targets)
                batch_mean = batch_loss / rows
                if first_loss is None:
                    first_loss = batch_mean
                if not (np.isfinite(batch_mean) and batch_mean <= DIVERGENCE_FACTOR * first_loss):
                    raise DivergedLoss(
                        f"training diverged at epoch {epoch} batch {batch_no}: mean loss "
                        f"{batch_mean:g}, first batch {first_loss:g}"
                    )
                loss_sum += batch_loss
                row_count += rows

            mean_loss = loss_sum / row_count
            epoch_losses.append(mean_loss)
            log_lines.append(f"{epoch} {lr_head:g} {mean_loss:.9g}")

    if log_path is not None:
        write_atomic(log_path, "\n".join(log_lines) + "\n")
    return TrainReport(
        epoch_losses=tuple(epoch_losses),
        # validated again: the loss guard never sees the last step's update
        params=replace(params),
        wall_time_s=time.perf_counter() - start,
    )


def predict(
    params: ModelParams,
    manifest: DatasetManifest,
    input_size: tuple[int, int],
    root: str | Path = ".",
) -> ScoreMatrix:
    """Raw logits per image: byte / 255, plain resize to input_size, no augmentation.

    Each forward is of one PREDICT_CHUNK-row pooled block, its images read as it
    is built and zero-padded after the last, so only one block's images are held
    and a row depends on its image and its place in its block only.
    """
    check_pool_grid(params.pool_grid, input_size)
    n = len(manifest)
    if n == 0:
        raise EmptyInput("manifest lists no images to score")

    def pooled_blocks() -> Iterator[np.ndarray]:
        pixels = _pixel_batch(min(n, PREDICT_CHUNK), input_size)
        for lo in range(0, n, PREDICT_CHUNK):
            chunk = manifest.entries[lo : lo + PREDICT_CHUNK]
            for j, (path, _) in enumerate(chunk):
                pixels[j] = resize(read_image(root, path).astype(np.float64) / 255.0, *input_size)
            features = pooled_batch(pixels[: len(chunk)], params.pool_grid)
            yield np.pad(features, ((0, PREDICT_CHUNK - len(chunk)), (0, 0)))

    scores = np.empty((n, params.num_classes))
    with _built_ahead(pooled_blocks()) as (blocks, _):
        for lo, features in zip(range(0, n, PREDICT_CHUNK), blocks):
            rows = scores[lo : lo + PREDICT_CHUNK]
            rows[:] = forward_features(params, features)[: len(rows)]
    return ScoreMatrix(scores)


def augmented_samples(
    manifest: DatasetManifest, mode: str, size: tuple[int, int], seed: int, root: str | Path = "."
) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    """(uint8 pixels, label indices) of each epoch-0 sample of `mode`, for
    `io.write_dataset`: training's batches of PREDICT_CHUNK images in manifest
    order, M3 mixing consecutive pairs. Nothing is read before the first draw,
    which reads every image: `write_dataset` draws before it touches its
    directory, so a bad input image leaves that directory as it was."""
    images = [read_image(root, path) for path, _ in manifest.entries]
    labels = manifest.label_matrix()
    for lo in range(0, len(images), PREDICT_CHUNK):
        chunk = np.arange(lo, min(lo + PREDICT_CHUNK, len(images)))
        mix_order = np.arange(len(chunk)) if mode == "M3" else None
        pixels, targets = _augmented_batch(images, labels, chunk, mode, size, seed, 0, mix_order)
        yield from zip(quantize(pixels), (tuple(map(int, np.flatnonzero(t))) for t in targets))
