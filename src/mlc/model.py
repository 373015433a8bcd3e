"""The classifier: adaptive average pooling, a one-hidden-layer MLP head,
the stable multi-label cross-entropy loss, and the SGD step that applies
its analytic gradients.

Forward pass: logits = W2.T @ relu(W1.T @ flatten(pool(image)) + b1) + b2.
The loss over C classes is the sum of per-class binary cross-entropies on
sigmoid(logit), evaluated in the log-sum form max(s,0) - s*y +
log(1 + exp(-|s|)) so large |s| never hits log(0).

Every pass operates on a feature matrix (rows = pooled, flattened
images, from `pooled_batch`). relu'(0) is taken as 0.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, wait
from dataclasses import dataclass
from itertools import count
from typing import BinaryIO

import numpy as np

from . import kernels
from .augment import STREAM_INIT, rng_stream
from .errors import NonFinite, ParseError, ShapeMismatch, allocating

CHECKPOINT_V2 = "mlc-params v2"


@dataclass(frozen=True)
class ModelParams:
    """Learnable weights. W1: (gh*gw*3, H); b1: (H,); W2: (H, C); b2: (C,)."""

    pool_grid: tuple[int, int]
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        gh, gw = self.pool_grid
        d = gh * gw * 3
        hidden = self.b1.shape[0]
        classes = self.b2.shape[0]
        if self.W1.shape != (d, hidden) or self.W2.shape != (hidden, classes):
            raise ShapeMismatch(
                f"inconsistent parameter shapes: W1 {self.W1.shape} b1 {self.b1.shape} "
                f"W2 {self.W2.shape} b2 {self.b2.shape} for pool grid {self.pool_grid}"
            )
        for arr in (self.W1, self.b1, self.W2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise NonFinite("parameters contain non-finite values")

    @property
    def num_classes(self) -> int:
        return self.b2.shape[0]

    @property
    def hidden(self) -> int:
        return self.b1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.W1.shape[0]


def init_params(
    num_classes: int,
    pool_grid: tuple[int, int],
    hidden: int,
    seed: int,
) -> ModelParams:
    """Seeded uniform init in +/- 1/sqrt(fan_in) per layer; weights too large
    to allocate are ShapeMismatch."""
    rng = rng_stream(seed, STREAM_INIT)
    d = pool_grid[0] * pool_grid[1] * 3
    bound1 = 1.0 / np.sqrt(d)
    bound2 = 1.0 / np.sqrt(hidden)
    with allocating(
        f"weights for a {pool_grid[0]}x{pool_grid[1]} pool grid, {hidden} hidden units "
        f"and {num_classes} classes are"
    ):
        w1 = rng.uniform(-bound1, bound1, size=(d, hidden))
        b1 = rng.uniform(-bound1, bound1, size=hidden)
        w2 = rng.uniform(-bound2, bound2, size=(hidden, num_classes))
        b2 = rng.uniform(-bound2, bound2, size=num_classes)
    return ModelParams(pool_grid=pool_grid, W1=w1, b1=b1, W2=w2, b2=b2)


def check_pool_grid(pool_grid: tuple[int, int], size: tuple[int, int]) -> None:
    """Raise ShapeMismatch unless a gh x gw grid fits an H x W image."""
    (gh, gw), (height, width) = pool_grid, size
    if gh < 1 or gw < 1 or gh > height or gw > width:
        raise ShapeMismatch(f"pool grid {gh}x{gw} invalid for {height}x{width} image")


def pooled_batch(pixels: np.ndarray, pool_grid: tuple[int, int]) -> np.ndarray:
    """Flattened pooled features (n, gh*gw*3) of an (n, H, W, 3) pixel batch."""
    n, height, width, channels = pixels.shape
    check_pool_grid(pool_grid, (height, width))
    gh, gw = pool_grid
    return kernels.adaptive_pool(pixels, gh, gw).reshape(n, gh * gw * channels)


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def bce_loss(scores, labels) -> float:
    """Binary cross-entropy on sigmoid(score), summed over every entry, in log-sum form."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape:
        raise ShapeMismatch(f"scores {s.shape} vs labels {y.shape}")
    return float(np.sum(np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))))


def _forward(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activations z1, hidden activations and logits of a (n, D) feature batch."""
    if features.shape[-1] != params.feature_dim:
        raise ShapeMismatch(
            f"feature dim {features.shape[-1]} != expected {params.feature_dim}"
        )
    z1 = features @ params.W1 + params.b1
    hidden = np.maximum(z1, 0.0)
    return z1, hidden, hidden @ params.W2 + params.b2


def forward_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a (n, D) feature batch; returns (n, C)."""
    return _forward(params, features)[2]


# W1's gradient is formed this many bytes of rows at a time (16 rows at
# hidden 4096), so a block and the W1 rows it is subtracted from fit in a
# 2 MiB L2 together while the SGD step applies it.
_W1_BLOCK_BYTES = 512 * 1024


def sgd_step(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    lr_head: float,
    lr_body: float,
    helper: Executor | None = None,
) -> float:
    """One mean-gradient SGD step on a (n, D) feature batch, in place on
    params' arrays; returns the batch's summed loss before the step.

    The model's only backward pass: dL/ds = sigmoid(s) - y at the output,
    chained through W2 and the relu, and each element is updated as
    `w -= (lr / n) * g` with g the batch's summed gradient. W1's gradient
    is formed and applied one `_W1_BLOCK_BYTES` row block at a time, in
    buffers made for this step, and never built whole. Without a `helper`
    the calling thread applies every block in order. With one (an executor,
    `train`'s build worker), the caller and a task on it each claim the next
    unapplied block, in a buffer of its own, until none is left (the task
    may start late and claim none), and the caller joins the task, on every
    exit path, before it updates b1, W2 and b2. A block is the same three
    calls on either thread, and blocks share no W1 row, so the bytes are
    those of the serial step.
    """
    z1, hidden, scores = _forward(params, features)
    loss = bce_loss(scores, labels)
    d_scores = sigmoid(scores) - labels
    d_z1 = np.where(z1 > 0.0, d_scores @ params.W2.T, 0.0)
    rows, d = features.shape
    w1, b1, w2, b2 = params.W1, params.b1, params.W2, params.b2
    step = min(max(1, _W1_BLOCK_BYTES // (8 * params.hidden)), d)  # W1 rows per block
    # made here, not on the helper's thread, whose allocator arena holds only its builds
    buffers = np.empty((1 if helper is None else 2, step, params.hidden))
    claims = count(0, step)  # each block's first row, taken by one thread

    def apply_w1_blocks(buf: np.ndarray) -> None:
        for lo in claims:
            if lo >= d:
                return
            hi = min(lo + step, d)
            block = buf[: hi - lo]
            np.matmul(features[:, lo:hi].T, d_z1, out=block)
            np.multiply(block, lr_body / rows, out=block)
            np.subtract(w1[lo:hi], block, out=w1[lo:hi])

    if helper is None:
        apply_w1_blocks(buffers[0])
    else:
        pending = helper.submit(apply_w1_blocks, buffers[1])
        try:
            apply_w1_blocks(buffers[0])
        finally:
            wait((pending,))
        pending.result()
    b1 -= (lr_body / rows) * d_z1.sum(axis=0)
    w2 -= (lr_head / rows) * (hidden.T @ d_scores)
    b2 -= (lr_head / rows) * d_scores.sum(axis=0)
    return loss


# -- checkpoint format ---------------------------------------------------------
# The ASCII lines "mlc-params v2" and "gh gw hidden classes", each ending in
# "\n", then the raw little-endian float64 bytes of b1, b2, W1 (row-major)
# and W2, and nothing after them. The bytes depend only on the weights, so
# equal weights give equal files on every host.

_MAGIC = (CHECKPOINT_V2 + "\n").encode("ascii")
# the most bytes read for the dimension line: four 15-digit integers fit
_DIMS_LINE_MAX = 64


def save_params(params: ModelParams) -> list[bytes | memoryview]:
    """Encode params as an `mlc-params v2` checkpoint: the header's bytes,
    then a byte view of each array, to be written in order (`io.write_atomic`)
    or joined. On a little-endian host the views share params' memory.
    """
    gh, gw = params.pool_grid
    header = f"{CHECKPOINT_V2}\n{gh} {gw} {params.hidden} {params.num_classes}\n"
    arrays = (params.b1, params.b2, params.W1, params.W2)
    views = [memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B") for a in arrays]
    return [header.encode("ascii"), *views]


def load_params(stream: BinaryIO) -> ModelParams:
    """Decode an `mlc-params v2` checkpoint from a seekable binary stream.

    The dimensions and the exact payload length are checked before anything
    is allocated, so the stream must seek; then the payload is read straight
    into the arrays. Fails only with ParseError, or with NonFinite from the
    ModelParams checks.
    """
    if stream.read(len(_MAGIC)) != _MAGIC:
        raise ParseError(f"missing checkpoint header {CHECKPOINT_V2!r}")
    line = stream.readline(_DIMS_LINE_MAX)
    if not line.endswith(b"\n"):
        raise ParseError(f"checkpoint has no dimension line in {_DIMS_LINE_MAX} bytes")
    # only what save_params writes: ASCII digits, no sign or leading zero, one space apart
    fields = line[:-1].split(b" ")
    if len(fields) != 4 or not all(f.isdigit() and f[:1] != b"0" for f in fields):
        raise ParseError("checkpoint dimensions must be four positive integers")
    gh, gw, hidden, classes = map(int, fields)
    d = gh * gw * 3
    counts = (hidden, classes, d * hidden, hidden * classes)
    expected = 8 * sum(counts)
    try:
        offset = stream.tell()
        payload = stream.seek(0, os.SEEK_END) - offset
        stream.seek(offset)
    except OSError as exc:
        name = getattr(stream, "name", "stream")
        raise ParseError(f"{name}: checkpoint stream cannot seek: {exc.strerror or exc}") from None
    if payload != expected:
        raise ParseError(f"checkpoint has {payload} payload bytes, expected {expected}")
    arrays = []
    for count in counts:
        arr = np.empty(count, dtype="<f8")
        if stream.readinto(memoryview(arr).cast("B")) != 8 * count:
            raise ParseError(f"checkpoint payload ends before its {expected} bytes")
        arrays.append(arr.astype(np.float64, copy=False))  # a no-op on little-endian hosts
    b1, b2, w1, w2 = arrays
    return ModelParams(
        pool_grid=(gh, gw), W1=w1.reshape(d, hidden), b1=b1, W2=w2.reshape(hidden, classes), b2=b2
    )
