"""Hot per-pixel kernels: bilinear resize, adaptive pooling, shape painting.

One vectorized numpy implementation per kernel, so the bytes a run writes
depend only on its flags and seed. `adaptive_pool` works on a whole
(n, H, W, C) batch at once, evenly tiled bins or not, with one accumulation
over the in-bin offsets; `resize_bilinear` and `paint_shapes` work on one
float64 (H, W, C) image. Resize and pooling build their results in place in
the arrays they allocate; each sums and interpolates in the same order as
the per-pixel loops the tests keep as references.

Coordinates follow the half-pixel-center convention: source position of
output pixel i is (i + 0.5) * (in / out) - 0.5, clamped to the image border.
"""

from __future__ import annotations

import functools

import numpy as np

BACKEND = "numpy"


@functools.lru_cache(maxsize=1024)
def _taps(size_in: int, size_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Low and high source index and the weight of the high one, per output index.

    Cached per size pair; the arrays are read-only because callers share them.
    """
    f = np.maximum((np.arange(size_out, dtype=np.float64) + 0.5) * (size_in / size_out) - 0.5, 0.0)
    lo = np.floor(f).astype(np.int64)
    hi = np.minimum(lo + 1, size_in - 1)
    # weight forced to 0 at the clamped border so border pixels reproduce exactly
    taps = (lo, hi, np.where(hi == lo, 0.0, f - lo))
    for a in taps:
        a.setflags(write=False)
    return taps


def resize_bilinear(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resize: lerp every source row along x, then the rows along y.

    Each lerp is `lo + w * (hi - lo)`, gathered with `np.take` and formed in
    place in the gathered array.
    """
    y0, y1, dy = _taps(src.shape[0], out_h)
    x0, x1, dx = _taps(src.shape[1], out_w)
    left = np.take(src, x0, axis=1)
    rows = np.take(src, x1, axis=1)
    rows -= left
    rows *= dx[:, None]
    rows += left
    top = np.take(rows, y0, axis=0)
    out = np.take(rows, y1, axis=0)
    out -= top
    out *= dy[:, None, None]
    out += top
    return out


@functools.lru_cache(maxsize=1024)
def _pool_bins(size_in: int, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat source indices of the in-bin offsets of `bins` pooling bins over
    `size_in` pixels, a flag for each index past its bin's end, and each
    bin's pixel count.

    Bin i covers [floor(i * size_in / bins), ceil((i + 1) * size_in / bins)).
    Entry a * bins + i reads offset a of bin i, for each a below the widest bin's
    pixel count; a flagged entry, past a short bin's end, reads some valid
    pixel that the caller zeroes. Cached per size pair; the arrays are read-only
    because callers share them.
    """
    i = np.arange(bins)
    lo = (i * size_in) // bins
    counts = ((i + 1) * size_in + bins - 1) // bins - lo
    offsets = np.arange(counts.max())[:, None]
    index = np.minimum(lo + offsets, size_in - 1).ravel()
    past = (offsets >= counts).ravel()
    for a in (index, past, counts):
        a.setflags(write=False)
    return index, past, counts


def adaptive_pool(src: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Average-pool an (n, H, W, C) batch to (n, gh, gw, C).

    Bin (i, j) covers rows [floor(i*H/gh), ceil((i+1)*H/gh)) and columns
    analogously. The batch is seen as (n, bh, gh, bw, gw, C): offset (a, b)
    of every bin of at most bh x bw pixels. That is a view when the bins
    tile the image evenly, and otherwise a gather of the bins' rows and
    columns with a short bin's extra offsets zeroed. One accumulator adds
    the offsets from 0.0, row by row and left to right, for every bin at
    once; each bin is then divided by its pixel count.
    """
    n, in_h, in_w, nc = src.shape
    if in_h % gh == 0 and in_w % gw == 0:
        bh, bw = in_h // gh, in_w // gw
        bins = src.reshape(n, gh, bh, gw, bw, nc).transpose(0, 2, 1, 4, 3, 5)
        counts = bh * bw
    else:
        rows, past_rows, row_counts = _pool_bins(in_h, gh)
        cols, past_cols, col_counts = _pool_bins(in_w, gw)
        gathered = np.take(np.take(src, rows, axis=1), cols, axis=2)
        gathered[:, past_rows] = 0.0
        gathered[:, :, past_cols] = 0.0
        bh, bw = len(rows) // gh, len(cols) // gw
        bins = gathered.reshape(n, bh, gh, bw, gw, nc)
        counts = np.multiply.outer(row_counts, col_counts)[:, :, None]
    acc = np.zeros((n, gh, gw, nc))
    for k in range(bh * bw):
        acc += bins[:, k // bw, :, k % bw]
    acc /= counts
    return acc


def paint_shapes(canvas, kinds, cys, cxs, halves, colors) -> None:
    """Paint filled shapes onto `canvas` in order (later shapes occlude).

    kind 0: axis-aligned square of half-extent h; kind 1: disk of radius h;
    kind 2: upright isoceles triangle, apex at cy-h, base at cy+h.
    """
    hgt, wid = canvas.shape[0], canvas.shape[1]
    rr = np.arange(hgt, dtype=np.float64)[:, None]
    cc = np.arange(wid, dtype=np.float64)[None, :]
    for s in range(kinds.shape[0]):
        cy, cx, h = cys[s], cxs[s], halves[s]
        if kinds[s] == 0:
            mask = (np.abs(rr - cy) <= h) & (np.abs(cc - cx) <= h)
        elif kinds[s] == 1:
            mask = (rr - cy) ** 2 + (cc - cx) ** 2 <= h * h
        else:
            t = rr - (cy - h)
            mask = (t >= 0.0) & (t <= 2.0 * h) & (np.abs(cc - cx) <= 0.5 * t)
        canvas[mask] = colors[s]
