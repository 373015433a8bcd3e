import io
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlc import model, trainer
from mlc.errors import MlcError, NonFinite, ParseError, ShapeMismatch
from mlc.io import write_atomic
from mlc.model import (
    ModelParams,
    bce_loss,
    forward_features,
    init_params,
    load_params,
    pooled_batch,
    save_params,
    sgd_step,
    sigmoid,
)

from conftest import (
    CHECKPOINT, InjectedFault, copy_params, random_image, scripted_claims, step_gradients,
    traced_peak,
)


def tiny_params(rng, pool_grid=(2, 2), hidden=4, classes=3, scale=0.5):
    d = pool_grid[0] * pool_grid[1] * 3
    return ModelParams(
        pool_grid=pool_grid,
        W1=rng.uniform(-scale, scale, (d, hidden)),
        b1=rng.uniform(-scale, scale, hidden),
        W2=rng.uniform(-scale, scale, (hidden, classes)),
        b2=rng.uniform(-scale, scale, classes),
    )


def features_of(img, grid):
    """Pooled features (1, gh*gw*3) of one image."""
    return pooled_batch(img[None], grid)


def pool(img, gh, gw):
    return features_of(img, (gh, gw)).reshape(gh, gw, 3)


def logits(params, img):
    return forward_features(params, features_of(img, params.pool_grid))[0]


def gradients_one(params, img, labels):
    return step_gradients(params, features_of(img, params.pool_grid), labels[None])


class TestAdaptivePool:
    def test_global_average(self, rng):
        img = random_image(rng, 6, 7)
        out = pool(img, 1, 1)
        np.testing.assert_allclose(out[0, 0], img.mean(axis=(0, 1)), atol=1e-12)

    def test_identity_grid(self, rng):
        img = random_image(rng, 4, 5)
        np.testing.assert_array_equal(pool(img, 4, 5), img)

    def test_hand_derived_quadrants(self):
        vals = np.arange(1, 17, dtype=np.float64).reshape(4, 4) / 16.0
        img = np.repeat(vals[:, :, None], 3, axis=2)
        out = pool(img, 2, 2)
        np.testing.assert_array_equal(out[:, :, 1] * 16.0, [[3.5, 5.5], [11.5, 13.5]])

    def test_constant_image_constant_bins(self):
        img = np.full((5, 5, 3), 0.25)
        out = pool(img, 3, 2)
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_grid_too_large(self, rng):
        with pytest.raises(ShapeMismatch, match="^pool grid 5x2 invalid for 4x4 image$"):
            pool(random_image(rng, 4, 4), 5, 2)


class TestForward:
    def test_zero_params_zero_logits(self, rng):
        params = ModelParams((2, 2), np.zeros((12, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))
        np.testing.assert_array_equal(logits(params, random_image(rng, 4, 4)), np.zeros(3))

    def test_final_layer_linearity(self, rng):
        params = tiny_params(rng)
        img = random_image(rng, 6, 6)
        doubled = ModelParams(
            params.pool_grid, params.W1, params.b1, 2.0 * params.W2, 2.0 * params.b2
        )
        np.testing.assert_allclose(
            logits(doubled, img), 2.0 * logits(params, img), atol=1e-12
        )

    def test_zero_image_zero_b1_gives_b2(self, rng):
        params = tiny_params(rng)
        params = ModelParams(
            params.pool_grid, params.W1, np.zeros_like(params.b1), params.W2, params.b2
        )
        img = np.zeros((4, 4, 3))
        np.testing.assert_array_equal(logits(params, img), params.b2)

    def test_deterministic_bitwise(self, rng):
        params = tiny_params(rng)
        img = random_image(rng, 5, 5)
        np.testing.assert_array_equal(logits(params, img), logits(params, img))

    def test_feature_dim_mismatch(self, rng):
        params = tiny_params(rng, pool_grid=(2, 2))
        with pytest.raises(ShapeMismatch):
            forward_features(params, np.zeros((1, 5)))


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self, rng):
        x = rng.uniform(-50, 50, 100)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_negative_no_nan(self):
        value = sigmoid(-1000.0)
        assert 0.0 <= value <= 1e-300
        assert math.isfinite(value)

    def test_extreme_positive(self):
        assert sigmoid(1000.0) == 1.0


class TestBceLoss:
    def test_two_ln2_at_zero_scores(self):
        loss = bce_loss(np.zeros(2), np.array([1, 0]))
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_hand_derived_three_terms(self):
        loss = bce_loss(np.array([2.0, -1.0, 0.5]), np.array([1, 0, 1]))
        assert loss == pytest.approx(0.126928 + 0.313262 + 0.474077, abs=1e-5)

    def test_monotone_limit(self):
        losses = [bce_loss(np.array([s]), np.array([1])) for s in (0.0, 5.0, 20.0, 40.0)]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-15

    def test_nonnegative_and_ln2_at_zero(self, rng):
        for _ in range(20):
            c = int(rng.integers(1, 8))
            y = (rng.random(c) < 0.5).astype(int)
            assert bce_loss(rng.standard_normal(c) * 10, y) >= 0.0
            assert bce_loss(np.zeros(c), y) == pytest.approx(c * math.log(2), abs=1e-12)

    def test_accepts_label_vector(self):
        assert bce_loss(np.zeros(2), np.array([1, 0], dtype=np.int8)) > 0

    def test_no_overflow_at_huge_scores(self):
        loss = bce_loss(np.array([700.0, -700.0]), np.array([0, 1]))
        assert math.isfinite(loss) and loss == pytest.approx(1400.0, rel=1e-12)


class TestBackward:
    def test_output_gradient_at_zero(self, rng):
        # with zero weights scores = b2 = 0, so dL/db2 = sigmoid(0) - y
        params = ModelParams((1, 1), np.zeros((3, 2)), np.zeros(2), np.zeros((2, 3)), np.zeros(3))
        img = random_image(rng, 3, 3)
        _, grads = gradients_one(params, img, np.array([1, 0, 1]))
        np.testing.assert_allclose(grads["b2"], [-0.5, 0.5, -0.5], atol=1e-12)

    def test_dead_units_get_zero_gradient(self, rng):
        params = tiny_params(rng)
        # force one hidden unit permanently off via a large negative bias
        b1 = params.b1.copy()
        b1[1] = -100.0
        params = ModelParams(params.pool_grid, params.W1, b1, params.W2, params.b2)
        img = random_image(rng, 4, 4)
        _, grads = gradients_one(params, img, np.array([1, 0, 0]))
        np.testing.assert_array_equal(grads["W1"][:, 1], 0.0)
        assert grads["b1"][1] == 0.0

    def test_matches_finite_differences_small_case(self, rng):
        params = tiny_params(rng)
        img = random_image(rng, 5, 5)
        labels = np.array([1, 0, 1])
        loss, grads = gradients_one(params, img, labels)
        eps = 1e-6
        w2 = params.W2.copy()
        for idx in [(0, 0), (2, 1), (3, 2)]:
            w2[idx] += eps
            up = bce_loss(logits(ModelParams(params.pool_grid, params.W1, params.b1, w2, params.b2), img), labels)
            w2[idx] -= 2 * eps
            down = bce_loss(logits(ModelParams(params.pool_grid, params.W1, params.b1, w2, params.b2), img), labels)
            w2[idx] += eps
            fd = (up - down) / (2 * eps)
            assert grads["W2"][idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_loss_matches_bce_of_forward(self, rng):
        params = tiny_params(rng)
        img = random_image(rng, 4, 6)
        labels = np.array([0, 1, 1])
        loss, _ = gradients_one(params, img, labels)
        assert loss == pytest.approx(bce_loss(logits(params, img), labels), abs=1e-12)


class TestSgdStep:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 17),
        grid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        hidden=st.sampled_from([1, 7, 300, 4096]),
        classes=st.integers(1, 5),
    )
    # W1 row blocks of 8 x 16 + 1 at hidden 4096, and 4 x 218 + 46 at hidden 300
    @example(seed=1, rows=3, grid=(1, 43), hidden=4096, classes=4)
    @example(seed=2, rows=17, grid=(17, 18), hidden=300, classes=5)
    def test_covers_every_w1_block_and_returns_the_loss(self, seed, rows, grid, hidden, classes):
        rng = np.random.default_rng(seed)
        params = init_params(classes, grid, hidden, seed=seed % 1000)
        features = rng.random((rows, params.feature_dim))
        labels = (rng.random((rows, classes)) < 0.4).astype(np.float64)

        loss = bce_loss(forward_features(params, features), labels)
        assert sgd_step(copy_params(params), features, labels, 0.1, 0.01) == loss
        # one row's W1 gradient is outer(features, dL/db1), so a skipped or
        # repeated row block shows; before - after rounds once at each
        # weight, all below 1 at init, hence the absolute 1e-15
        _, grads = step_gradients(params, features[:1], labels[:1])
        np.testing.assert_allclose(
            grads["W1"], np.outer(features[0], grads["b1"]), rtol=1e-9, atol=1e-15
        )
        # `rows` copies of that row step by its mean gradient, times the
        # learning rate of each weight's group
        same = copy_params(params)
        copies = [np.repeat(a[:1], rows, axis=0) for a in (features, labels)]
        sgd_step(same, *copies, 0.1, 0.01)
        for name, lr in (("W1", 0.01), ("b1", 0.01), ("W2", 0.1), ("b2", 0.1)):
            want = getattr(params, name) - lr * grads[name]
            np.testing.assert_allclose(getattr(same, name), want, rtol=1e-9, atol=1e-15)

    def test_never_builds_w1_gradient_whole(self, rng):
        params = init_params(20, (16, 16), 4096, seed=0)
        features = rng.random((16, params.feature_dim))
        labels = (rng.random((16, 20)) < 0.2).astype(np.float64)
        _, peak = traced_peak(lambda: sgd_step(params, features, labels, 0.1, 0.01))
        assert peak < params.W1.nbytes / 4

    def test_label_shape_mismatch(self, rng):
        params = tiny_params(rng)
        with pytest.raises(ShapeMismatch):
            sgd_step(params, rng.random((2, 12)), np.zeros((2, 4)), 0.1, 0.01)


def _step_case(grid, hidden, rows, seed=4):
    rng = np.random.default_rng(seed)
    params = init_params(5, grid, hidden, seed=seed)
    features = rng.random((rows, params.feature_dim))
    labels = (rng.random((rows, 5)) < 0.4).astype(np.float64)
    blocks = -(-params.feature_dim // (model._W1_BLOCK_BYTES // (8 * hidden)))
    return params, features, labels, blocks


OWNERS = {
    "none": lambda step, k: "caller",
    "all": lambda step, k: "helper",
    "alternate": lambda step, k: ("caller", "helper")[k % 2],
}


class TestStepHelper:
    """A helper thread takes some of W1's row blocks; no byte may depend on which."""

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    @pytest.mark.parametrize("rows", [1, 16])
    # d = 12, 768 and 45: 45 is no multiple of 16 rows (hidden 4096), 768 none of 218 (300)
    @pytest.mark.parametrize("grid", [(2, 2), (16, 16), (3, 5)])
    @pytest.mark.parametrize("hidden", [4096, 300, 7])
    def test_helper_cannot_change_bytes(self, monkeypatch, hidden, grid, rows, owner):
        # both steps under train's one-thread BLAS hold: OpenBLAS's thread
        # count itself changes some matmuls' bits (at hidden 300, for one)
        params, features, labels, blocks = _step_case(grid, hidden, rows)
        serial, shared = copy_params(params), copy_params(params)
        with trainer._built_ahead(iter(())) as (_, pool):
            serial_loss = sgd_step(serial, features, labels, 0.1, 0.01)
            claims_type, claims = scripted_claims(blocks, OWNERS[owner])
            monkeypatch.setattr(model, "count", claims_type)
            loss = sgd_step(shared, features, labels, 0.1, 0.01, pool)
        assert [(k, who) for _, k, who in claims if k is not None] == [
            (k, OWNERS[owner](0, k)) for k in range(blocks)
        ]
        assert np.float64(loss).tobytes() == np.float64(serial_loss).tobytes()
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(shared, name).tobytes() == getattr(serial, name).tobytes(), name

    def test_free_claims_under_contention_match_the_serial_steps(self):
        # the real count, 30 chained steps, a 1 us switch interval and a busy
        # third thread: a block lost or applied twice changes W1's bytes
        params, features, labels, _ = _step_case((16, 16), 4096, 16)
        serial, shared = copy_params(params), copy_params(params)
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                np.sort(np.arange(2000.0)[::-1])

        other = threading.Thread(target=busy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other.start()
            with trainer._built_ahead(iter(())) as (_, pool):
                for _ in range(30):
                    want = sgd_step(serial, features, labels, 0.1, 0.01)
                    assert sgd_step(shared, features, labels, 0.1, 0.01, pool) == want
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(shared, name).tobytes() == getattr(serial, name).tobytes(), name

    def test_error_in_the_callers_blocks_joins_the_helper(self, monkeypatch):
        # the helper takes block 0, the caller fails at block 1, and the helper
        # is left the other 46 blocks, which it applies before sgd_step raises
        params, features, labels, blocks = _step_case((16, 16), 4096, 16)
        owner = lambda step, k: "caller fails" if k == 1 else "helper"  # noqa: E731
        claims_type, claims = scripted_claims(blocks, owner)
        monkeypatch.setattr(model, "count", claims_type)
        with trainer._built_ahead(iter(())) as (_, pool):
            with pytest.raises(InjectedFault):
                sgd_step(params, features, labels, 0.1, 0.01, pool)
            done = list(claims)
            w1 = params.W1.copy()
            time.sleep(0.05)
            assert params.W1.tobytes() == w1.tobytes()
        assert (0, None, "helper") in done
        assert [k for _, k, who in done if who == "helper" and k is not None] == [
            0, *range(2, blocks)
        ]


def _saved(params: ModelParams) -> bytes:
    """The checkpoint bytes `save_params` gives, joined."""
    return b"".join(save_params(params))


def _load(blob: bytes) -> ModelParams:
    return load_params(io.BytesIO(blob))


class _ShortReads(io.BytesIO):
    """A stream whose every `readinto` fills one byte less than asked."""

    def readinto(self, buffer):
        view = memoryview(buffer)
        return super().readinto(view[: max(len(view) - 1, 0)])


class TestCheckpoint:
    def test_round_trip_exact(self, rng):
        params = init_params(5, pool_grid=(2, 3), hidden=7, seed=11)
        loaded = _load(_saved(params))
        assert loaded.pool_grid == params.pool_grid
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_v2_layout(self, rng):
        params = tiny_params(rng, pool_grid=(1, 2), hidden=3, classes=2)
        raw = b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (params.b1, params.b2, params.W1, params.W2)
        )
        assert _saved(params) == b"mlc-params v2\n1 2 3 2\n" + raw

    def test_saved_buffers_are_views_of_the_weights(self, rng):
        params = tiny_params(rng)
        header, *views = save_params(params)
        assert header == b"mlc-params v2\n2 2 4 3\n"
        for view, arr in zip(views, (params.b1, params.b2, params.W1, params.W2)):
            assert view.format == "B" and view.nbytes == arr.nbytes
            assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), arr)

    def test_loaded_arrays_are_native_and_writable(self, rng):
        loaded = _load(_saved(tiny_params(rng)))
        for arr in (loaded.W1, loaded.b1, loaded.W2, loaded.b2):
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.writeable and arr.flags.c_contiguous

    def test_fixture_is_the_saved_init(self):
        assert CHECKPOINT.read_bytes() == _saved(init_params(3, pool_grid=(2, 2), hidden=5, seed=0))

    def test_missing_header(self):
        for head in (b"not-a-checkpoint\n", b"mlc-params v1\n", b"", b"mlc-params v2"):
            with pytest.raises(ParseError, match="missing checkpoint header 'mlc-params v2'"):
                _load(head + b"2 2 5 3\n")

    def test_non_ascii_is_parse_error(self):
        with pytest.raises(ParseError):
            _load("mlc-params v2\n1 1 1 \u00e9\n".encode("utf-8"))

    def test_truncated_body(self, rng):
        blob = _saved(init_params(3, pool_grid=(1, 1), hidden=2, seed=0))
        with pytest.raises(ParseError):
            _load(blob[:-1])
        with pytest.raises(ParseError):
            _load(blob + b"\0")

    def test_short_read_is_parse_error(self):
        # the stream's length promises the whole payload, but its reads fall short
        blob = _saved(init_params(3, pool_grid=(1, 1), hidden=2, seed=0))
        with pytest.raises(ParseError, match="payload ends"):
            load_params(_ShortReads(blob))

    @pytest.mark.parametrize(
        "blob",
        [
            # each body has the length its dimensions imply
            b"mlc-params v2\n0 1 1 1\n" + bytes(8 * 3),
            b"mlc-params v2\n1 1 1 0\n" + bytes(8 * 4),
            b"mlc-params v2\n-1 -1 1 1\n" + bytes(8 * 6),
            b"mlc-params v2\n1 1 1\n",
            # `int()` reads these as (2, 2, 5, 3) and (1, 1, 1, 1); only
            # ASCII digits one space apart, as save_params writes, are read
            b"mlc-params v2\n+2 0_2 5\t3\n" + bytes(8 * (5 + 3 + 12 * 5 + 5 * 3)),
            b"mlc-params v2\n01 1  1 1\n" + bytes(8 * 6),
        ],
        ids=["v2-zero-gh", "v2-zero-classes", "v2-negative-grid", "v2-three-dims",
             "v2-sign-underscore-tab", "v2-leading-zero-two-spaces"],
    )
    def test_nonpositive_dimensions_rejected(self, blob):
        with pytest.raises(ParseError):
            _load(blob)

    def test_dimension_line_read_is_bounded(self):
        # a header then 20 MiB with no newline: the reader gives up after a few dozen bytes
        stream = io.BytesIO(b"mlc-params v2\n" + b"1" * (20 << 20))

        def load():
            with pytest.raises(ParseError, match="no dimension line"):
                load_params(stream)

        _, peak = traced_peak(load)
        assert peak < 1 << 20

    def test_nonfinite_weight_rejected_on_load(self):
        params = ModelParams((1, 1), np.zeros((3, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        blob = bytearray(_saved(params))
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        with pytest.raises(NonFinite):
            _load(bytes(blob))

    def test_save_writes_the_weights_without_copying_them(self, tmp_path):
        params = init_params(20, (16, 16), 4096, seed=0)
        path = tmp_path / "model.params"
        _, peak = traced_peak(lambda: write_atomic(path, save_params(params)))
        assert peak < params.W1.nbytes / 4
        assert path.read_bytes() == _saved(params)

    def test_load_holds_little_beyond_the_weights(self, tmp_path):
        params = init_params(20, (16, 16), 4096, seed=0)
        path = tmp_path / "model.params"
        write_atomic(path, save_params(params))
        payload = sum(a.nbytes for a in (params.W1, params.b1, params.W2, params.b2))

        def load():
            with open(path, "rb") as stream:
                return load_params(stream)

        loaded, peak = traced_peak(load)
        assert peak < 1.25 * payload
        np.testing.assert_array_equal(loaded.W1, params.W1)

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.sampled_from([b"", b"mlc-params v1\n", b"mlc-params v2\n"]),
        dims=st.sampled_from([b"", b"1 1 1 1\n", b"1 1 2 1\n"]),
        body=st.binary(max_size=200)
        | st.text(alphabet="0123456789.,-+einfa \r\n", max_size=200).map(str.encode),
    )
    def test_fuzz_raises_only_mlc_errors(self, prefix, dims, body):
        try:
            _load(prefix + dims + body)
        except MlcError:
            pass

    def test_init_is_seed_deterministic(self):
        a = init_params(4, pool_grid=(2, 2), hidden=5, seed=3)
        b = init_params(4, pool_grid=(2, 2), hidden=5, seed=3)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.b2, b.b2)

    def test_init_bounds(self):
        params = init_params(4, pool_grid=(2, 2), hidden=5, seed=3)
        assert np.abs(params.W1).max() <= 1.0 / math.sqrt(12)
        assert np.abs(params.W2).max() <= 1.0 / math.sqrt(5)


def test_params_shape_validation():
    with pytest.raises(ShapeMismatch):
        ModelParams((2, 2), np.zeros((11, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))


@pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_nonfinite_validation(name, bad):
    arrays = {"W1": np.zeros((12, 4)), "b1": np.zeros(4), "W2": np.zeros((4, 3)), "b2": np.zeros(3)}
    arrays[name].flat[-1] = bad
    with pytest.raises(NonFinite):
        ModelParams((2, 2), **arrays)
