"""Hand-derived values and loop-reference properties for the hot kernels.

The numbered cases were evaluated by hand from the half-pixel-center
bilinear formula and the floor/ceil pooling bins. The property tests hold
the vectorized kernels bit for bit to plain per-pixel loops that sum and
interpolate in the obvious order.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlc import augment, kernels

SEEDS = st.integers(0, 2**32 - 1)


def _random_src(rng, h, w):
    return rng.random((h, w, 3))


def _pool(src, gh, gw):
    """Pool one (H, W, 3) image through the batch kernel."""
    return kernels.adaptive_pool(src[None], gh, gw)[0]


def resize_reference(src, out_h, out_w):
    in_h, in_w, nc = src.shape
    out = np.empty((out_h, out_w, nc))
    sy = in_h / out_h
    sx = in_w / out_w
    for i in range(out_h):
        fy = max((i + 0.5) * sy - 0.5, 0.0)
        y0 = int(np.floor(fy))
        y1 = min(y0 + 1, in_h - 1)
        dy = 0.0 if y1 == y0 else fy - y0
        for j in range(out_w):
            fx = max((j + 0.5) * sx - 0.5, 0.0)
            x0 = int(np.floor(fx))
            x1 = min(x0 + 1, in_w - 1)
            dx = 0.0 if x1 == x0 else fx - x0
            for ch in range(nc):
                a, b = src[y0, x0, ch], src[y0, x1, ch]
                c, d = src[y1, x0, ch], src[y1, x1, ch]
                top = a + dx * (b - a)
                bot = c + dx * (d - c)
                out[i, j, ch] = top + dy * (bot - top)
    return out


def pool_reference(batch, gh, gw):
    n, in_h, in_w, nc = batch.shape
    out = np.empty((n, gh, gw, nc))
    for k in range(n):
        for i in range(gh):
            r0 = (i * in_h) // gh
            r1 = ((i + 1) * in_h + gh - 1) // gh
            for j in range(gw):
                c0 = (j * in_w) // gw
                c1 = ((j + 1) * in_w + gw - 1) // gw
                for ch in range(nc):
                    acc = 0.0
                    for r in range(r0, r1):
                        for c in range(c0, c1):
                            acc += batch[k, r, c, ch]
                    out[k, i, j, ch] = acc / ((r1 - r0) * (c1 - c0))
    return out


def resize_as_before(src, out_h, out_w):
    """The clamped resize as it was before the in-place kernel, kept as the oracle."""
    y0, y1, dy = kernels._taps(src.shape[0], out_h)
    x0, x1, dx = kernels._taps(src.shape[1], out_w)
    left = src[:, x0]
    rows = left + dx[:, None] * (src[:, x1] - left)
    top = rows[y0]
    return np.clip(top + dy[:, None, None] * (rows[y1] - top), 0.0, 1.0)


def even_pool_as_before(batch, gh, gw):
    """Evenly tiled pooling as it was before the accumulator loop, kept as the oracle."""
    n, in_h, in_w, nc = batch.shape
    return batch.reshape(n, gh, in_h // gh, gw, in_w // gw, nc).mean(axis=(2, 4))


def uneven_pool_as_before(batch, gh, gw):
    """Pooling of bins that do not tile the image as it was before the one
    accumulation over gathered bins: a `.mean` per bin, kept as the oracle."""
    n, in_h, in_w, nc = batch.shape
    out = np.empty((n, gh, gw, nc), dtype=np.float64)
    for i in range(gh):
        r0 = (i * in_h) // gh
        r1 = ((i + 1) * in_h + gh - 1) // gh
        for j in range(gw):
            c0 = (j * in_w) // gw
            c1 = ((j + 1) * in_w + gw - 1) // gw
            out[:, i, j, :] = batch[:, r0:r1, c0:c1, :].mean(axis=(1, 2))
    return out


def paint_as_before(canvas, kinds, cys, cxs, halves, colors):
    """Shape painting as it was before the bounding-box masks: each mask over
    the full grid, each color set through an (H, W) mask of all channels,
    kept as the oracle."""
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


class TestResizeBilinear:
    def test_hand_derived_1x2_to_1x4(self):
        src = np.zeros((1, 2, 3))
        src[0, 1] = 1.0
        out = kernels.resize_bilinear(src, 1, 4)
        np.testing.assert_array_equal(out[0, :, 0], [0.0, 0.25, 0.75, 1.0])

    def test_identity_when_same_size(self, rng):
        src = _random_src(rng, 5, 7)
        np.testing.assert_array_equal(kernels.resize_bilinear(src, 5, 7), src)

    def test_constant_stays_constant(self):
        src = np.full((3, 4, 3), 0.3)
        out = kernels.resize_bilinear(src, 7, 2)
        np.testing.assert_array_equal(out, np.full((7, 2, 3), 0.3))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        in_h=st.integers(1, 20), in_w=st.integers(1, 20),
        out_h=st.integers(1, 20), out_w=st.integers(1, 20),
    )
    def test_equals_per_pixel_loop(self, seed, in_h, in_w, out_h, out_w):
        src = np.random.default_rng(seed).random((in_h, in_w, 3))
        np.testing.assert_array_equal(
            kernels.resize_bilinear(src, out_h, out_w), resize_reference(src, out_h, out_w)
        )

    def test_strided_view_matches_copy(self, rng):
        src = _random_src(rng, 12, 10)
        view = src[2:9, 1:8]
        np.testing.assert_array_equal(
            kernels.resize_bilinear(view, 11, 5),
            kernels.resize_bilinear(np.ascontiguousarray(view), 11, 5),
        )

    def test_clamped_resize_equals_the_frozen_one(self):
        # 400 shapes, a quarter each of upscales, downscales, identities and
        # 1-pixel sides; half the inputs are byte / 255 values as decoded images give
        rng = np.random.default_rng(20)
        for case in range(400):
            in_h, in_w = (int(v) for v in rng.integers(1, 80, 2))
            kind = case % 4
            if kind == 0:
                out_h, out_w = in_h + int(rng.integers(1, 40)), in_w + int(rng.integers(1, 40))
            elif kind == 1:
                out_h, out_w = max(1, in_h // 2), max(1, in_w // 3)
            elif kind == 2:
                out_h, out_w = in_h, in_w
            else:
                in_h, in_w = (1, in_w) if case % 8 == 3 else (in_h, 1)
                out_h, out_w = (int(v) for v in rng.integers(1, 80, 2))
                out_h, out_w = (1, out_w) if case % 16 < 8 else (out_h, 1)
            if case % 2:
                src = rng.integers(0, 256, (in_h, in_w, 3)).astype(np.float64) / 255.0
            else:
                src = rng.random((in_h, in_w, 3))
            expected = resize_as_before(src, out_h, out_w)
            assert augment.resize(src, out_h, out_w).tobytes() == expected.tobytes(), case
            clamped = np.clip(kernels.resize_bilinear(src, out_h, out_w), 0.0, 1.0)
            assert clamped.tobytes() == expected.tobytes(), case

    def test_cached_taps_are_read_only(self):
        taps = kernels._taps(7, 5)
        assert kernels._taps(7, 5) is taps
        for a in taps:
            assert not a.flags.writeable


class TestAdaptivePool:
    def test_hand_derived_quadrants(self):
        # single value pattern 1..16 / 16 replicated over channels
        vals = np.arange(1, 17, dtype=np.float64).reshape(4, 4) / 16.0
        src = np.ascontiguousarray(np.repeat(vals[:, :, None], 3, axis=2))
        out = _pool(src, 2, 2)
        np.testing.assert_array_equal(out[:, :, 0] * 16.0, [[3.5, 5.5], [11.5, 13.5]])

    def test_identity_at_full_grid(self, rng):
        src = _random_src(rng, 4, 5)
        np.testing.assert_array_equal(_pool(src, 4, 5), src)

    def test_global_mean(self, rng):
        src = _random_src(rng, 6, 7)
        out = _pool(src, 1, 1)
        np.testing.assert_allclose(out[0, 0], src.mean(axis=(0, 1)), atol=1e-12)

    def test_uneven_bins_cover_all_pixels(self):
        # 5 rows into 2 bins: [0,3) and [2,5) -- overlapping middle row
        src = np.zeros((5, 1, 3))
        src[2] = 1.0
        out = _pool(src, 2, 1)
        np.testing.assert_allclose(out[:, 0, 0], [1 / 3, 1 / 3])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS, n=st.integers(1, 17),
        gh=st.integers(1, 6), gw=st.integers(1, 6), bh=st.integers(1, 4), bw=st.integers(1, 4),
    )
    def test_even_bins_equal_per_pixel_loop(self, seed, n, gh, gw, bh, bw):
        batch = np.random.default_rng(seed).random((n, gh * bh, gw * bw, 3))
        np.testing.assert_array_equal(
            kernels.adaptive_pool(batch, gh, gw), pool_reference(batch, gh, gw)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS, n=st.integers(1, 17),
        in_h=st.integers(1, 14), in_w=st.integers(1, 14), data=st.data(),
    )
    def test_uneven_bins_equal_per_pixel_loop(self, seed, n, in_h, in_w, data):
        gh = data.draw(st.integers(1, in_h))
        gw = data.draw(st.integers(1, in_w))
        assume(in_h % gh or in_w % gw)
        batch = np.random.default_rng(seed).random((n, in_h, in_w, 3))
        np.testing.assert_array_equal(
            kernels.adaptive_pool(batch, gh, gw), pool_reference(batch, gh, gw)
        )

    def test_even_bins_equal_the_frozen_mean(self):
        # grids 1x1 to 64x64 with random bin shapes, and 128 -> 2 (4096 values a bin)
        rng = np.random.default_rng(21)
        cases = [(16, 2, 2, 64, 64)]
        for g in range(1, 65):
            gw = int(rng.integers(1, 65))
            bh, bw = (int(v) for v in rng.integers(1, max(2, 128 // max(g, gw)) + 1, 2))
            cases.append((int(rng.integers(1, 5)), g, gw, bh, bw))
        for n, gh, gw, bh, bw in cases:
            batch = rng.random((n, gh * bh, gw * bw, 3))
            pooled = kernels.adaptive_pool(batch, gh, gw)
            expected = even_pool_as_before(batch, gh, gw)
            assert pooled.tobytes() == expected.tobytes(), (gh, gw, bh, bw)

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_uneven_bins_equal_the_frozen_per_bin_mean(self, n):
        # 72 -> 16 makes 4.5-pixel bins (5 rows each, overlapping), 37 -> 16 bins
        # of 3 and 4 rows, a side pooled to itself 1-pixel bins; then 60 random
        # shapes, half of them byte / 255 values as decoded images give
        rng = np.random.default_rng(22 + n)
        cases = [
            (72, 72, 16, 16), (37, 37, 16, 16), (72, 37, 16, 16), (64, 72, 16, 16),
            (37, 37, 37, 37), (23, 23, 23, 2), (37, 72, 37, 16), (23, 23, 2, 2),
            (5, 1, 2, 1), (100, 99, 16, 16),
        ]
        while len(cases) < 70:
            in_h, in_w = (int(v) for v in rng.integers(1, 101, 2))
            gh = int(rng.integers(1, min(in_h, 16) + 1))
            gw = int(rng.integers(1, min(in_w, 16) + 1))
            if in_h % gh or in_w % gw:
                cases.append((in_h, in_w, gh, gw))
        for case, (in_h, in_w, gh, gw) in enumerate(cases):
            if case % 2:
                batch = rng.integers(0, 256, (n, in_h, in_w, 3)).astype(np.float64) / 255.0
            else:
                batch = rng.random((n, in_h, in_w, 3))
            pooled = kernels.adaptive_pool(batch, gh, gw)
            expected = uneven_pool_as_before(batch, gh, gw)
            assert pooled.tobytes() == expected.tobytes(), (in_h, in_w, gh, gw)

    @pytest.mark.parametrize("side", [64, 72], ids=["even-bins", "uneven-bins"])
    def test_one_batch_equals_four_quarter_batches(self, rng, side):
        # predict pools each 64-row block as four batches of 16 images
        batch = rng.random((64, side, side, 3))
        quarters = [kernels.adaptive_pool(batch[lo : lo + 16], 16, 16) for lo in range(0, 64, 16)]
        assert kernels.adaptive_pool(batch, 16, 16).tobytes() == np.concatenate(quarters).tobytes()

    def test_short_bins_read_no_neighbour(self):
        # 5 pixels into 3 bins of 2, 3 and 2: the first bin's third offset is
        # pixel 2, which only the middle bin holds, so a NaN there stays out of it
        line = np.zeros((1, 5, 1, 3))
        line[0, 2] = np.nan
        for batch, grid in ((line, (3, 1)), (line.reshape(1, 1, 5, 3), (1, 3))):
            pooled = kernels.adaptive_pool(batch, *grid).reshape(3, 3)
            assert np.isnan(pooled[1]).all()
            np.testing.assert_array_equal(pooled[[0, 2]], 0.0)

    def test_batch_rows_are_independent(self, rng):
        batch = rng.random((5, 9, 7, 3))
        pooled = kernels.adaptive_pool(batch, 4, 3)
        for k in range(5):
            np.testing.assert_array_equal(pooled[k], _pool(batch[k], 4, 3))


class TestPaintShapes:
    def test_square_extent(self):
        canvas = np.zeros((10, 10, 3))
        kernels.paint_shapes(
            canvas,
            np.array([0], dtype=np.int64),
            np.array([4.0]),
            np.array([4.0]),
            np.array([2.0]),
            np.array([[1.0, 1.0, 1.0]]),
        )
        filled = canvas[:, :, 0] == 1.0
        assert filled[2:7, 2:7].all()
        assert filled.sum() == 25

    def test_later_shape_occludes(self):
        canvas = np.zeros((8, 8, 3))
        kinds = np.array([0, 0], dtype=np.int64)
        args = (np.array([4.0, 4.0]), np.array([4.0, 4.0]), np.array([2.0, 2.0]))
        colors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        kernels.paint_shapes(canvas, kinds, *args, colors)
        assert (canvas[4, 4] == [0.0, 1.0, 0.0]).all()

    def test_triangle_narrows_toward_apex(self):
        canvas = np.zeros((16, 16, 3))
        kernels.paint_shapes(
            canvas,
            np.array([2], dtype=np.int64),
            np.array([8.0]),
            np.array([8.0]),
            np.array([5.0]),
            np.array([[1.0, 1.0, 1.0]]),
        )
        widths = (canvas[:, :, 0] == 1.0).sum(axis=1)
        rows = np.flatnonzero(widths)
        assert widths[rows[0]] <= widths[rows[-1]]

    @staticmethod
    def _random_coordinate(rng, side):
        """A centre or extent on, near or far off a canvas side of `side`
        pixels: integral, half-integral, huge, zero, negative or non-finite."""
        pick = rng.integers(12)
        if pick == 0:
            return float(rng.integers(-2, side + 3))
        if pick == 1:
            return rng.integers(-2, side + 3) + 0.5
        if pick == 2:
            return 0.0
        if pick == 3:
            return float(rng.choice([np.nan, np.inf, -np.inf]))
        if pick == 4:
            return float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(9, 20)
        if pick == 5:
            return rng.uniform(-3 * side, 4 * side)
        return rng.uniform(-2.0, side + 2.0)

    def test_random_shapes_equal_the_frozen_full_grid_painter(self):
        # 2500 canvases of 1-40 px a side with 4 shapes each; extents are
        # drawn like centres, so they include zero, negative, non-finite
        # and larger-than-canvas values, and centre +- extent is often whole
        rng = np.random.default_rng(26)
        shapes = 0
        for _ in range(2500):
            hgt, wid = (int(v) for v in rng.integers(1, 41, size=2))
            count = 4
            kinds = rng.integers(0, 3, size=count)
            cys = np.array([self._random_coordinate(rng, hgt) for _ in range(count)])
            cxs = np.array([self._random_coordinate(rng, wid) for _ in range(count)])
            halves = np.array([
                self._random_coordinate(rng, rng.integers(1, 2 * max(hgt, wid)))
                for _ in range(count)
            ])
            colors = rng.random((count, 3))
            canvas = rng.random((hgt, wid, 3))
            expected = canvas.copy()
            with np.errstate(invalid="ignore"):  # inf - inf, met by both painters
                kernels.paint_shapes(canvas, kinds, cys, cxs, halves, colors)
                paint_as_before(expected, kinds, cys, cxs, halves, colors)
            assert canvas.tobytes() == expected.tobytes(), (hgt, wid, kinds, cys, cxs, halves)
            shapes += count
        assert shapes >= 10_000

    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_huge_coordinates_equal_the_frozen_painter(self, kind):
        # at 1e17 a float64 step is 16, so r - cy rounds across many rows and a
        # box of one pixel's padding around cy - h would miss painted rows
        args = (np.array([kind]), np.array([1e17]), np.array([20.0]), np.array([1e17 - 16]))
        colors = np.array([[1.0, 0.5, 0.25]])
        canvas, expected = np.zeros((40, 40, 3)), np.zeros((40, 40, 3))
        kernels.paint_shapes(canvas, *args, colors)
        paint_as_before(expected, *args, colors)
        assert canvas.tobytes() == expected.tobytes()

    def test_render_shapes_equal_the_frozen_painter(self):
        # the centres and extents `synthgen.render` draws, on 64x64 canvases
        rng = np.random.default_rng(64)
        for _ in range(300):
            count = int(rng.integers(1, 4))
            halves = rng.uniform(0.20, 0.38, size=count) * 64
            cys = np.array([rng.uniform(h, 63 - h) for h in halves])
            cxs = np.array([rng.uniform(h, 63 - h) for h in halves])
            kinds, colors = rng.integers(0, 3, size=count), rng.random((count, 3))
            canvas = 0.5 + rng.uniform(-0.04, 0.04, size=(64, 64, 3))
            expected = canvas.copy()
            kernels.paint_shapes(canvas, kinds, cys, cxs, halves, colors)
            paint_as_before(expected, kinds, cys, cxs, halves, colors)
            assert canvas.tobytes() == expected.tobytes()
