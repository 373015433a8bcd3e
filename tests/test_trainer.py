import ast
import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mlc import model, trainer
from mlc.augment import MODES, resize
from mlc.errors import (
    DataLoadError,
    DivergedLoss,
    EmptyInput,
    GridTooLarge,
    PixelOutOfRange,
    ShapeMismatch,
)
from mlc.io import DatasetManifest, quantize, read_image, write_dataset
from mlc.model import ModelParams, forward_features, init_params, pooled_batch, save_params
from mlc.synthgen import SynthConfig, generate
from mlc.trainer import (
    PREDICT_CHUNK,
    TrainConfig,
    _augmented_batch,
    _training_batches,
    augmented_samples,
    effective_lrs,
    mixup_active,
    predict,
    train,
)

from conftest import InjectedFault, scripted_claims, traced_peak


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(num_images=24, image_size=(24, 24), seed=11)
    manifest = generate(cfg, root)
    return manifest, root


def small_cfg(**overrides):
    base = dict(
        epochs=3, batch_size=8, lr_decay_epoch=2, mode="M1", seed=5,
        input_size=(24, 24), pool_grid=(4, 4), hidden=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(epochs=0)

    def test_decay_epoch_must_precede_end(self):
        with pytest.raises(ValueError):
            small_cfg(epochs=3, lr_decay_epoch=3)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            small_cfg(mode="M4")

    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf")])
    def test_nonpositive_rates(self, value):
        for field in ("lr_head", "lr_body", "lr_decay_factor"):
            with pytest.raises(ValueError):
                small_cfg(**{field: value})


class TestSchedule:
    def test_effective_lrs_formula(self):
        cfg = small_cfg(epochs=5, lr_decay_epoch=3)
        for epoch in range(5):
            head, body = effective_lrs(cfg, epoch)
            factor = 0.1 if epoch >= 3 else 1.0
            assert head == pytest.approx(cfg.lr_head * factor)
            assert body == pytest.approx(cfg.lr_body * factor)

    def test_report_sees_decay(self, small_dataset, monkeypatch):
        manifest, root = small_dataset
        cfg = small_cfg(epochs=3, lr_decay_epoch=1)
        lrs = []
        sgd_step = trainer.sgd_step

        def step(params, features, targets, lr_head, lr_body, helper=None):
            lrs.append((lr_head, lr_body))
            return sgd_step(params, features, targets, lr_head, lr_body, helper)

        monkeypatch.setattr(trainer, "sgd_step", step)
        train(manifest, cfg, root=root)
        # 24 images in batches of 8: 3 steps per epoch
        assert len(lrs) == 3 * 3
        assert all(head == pytest.approx(0.1) for head, _ in lrs[0:3])
        assert all(head == pytest.approx(0.01) for head, _ in lrs[3:6])
        assert all(body == pytest.approx(0.001) for _, body in lrs[6:9])

    def test_mixup_phase(self):
        cfg = small_cfg(mode="M3")
        assert [mixup_active(cfg, e) for e in range(4)] == [True, False, True, False]
        cfg = small_cfg(mode="M2")
        assert not any(mixup_active(cfg, e) for e in range(4))


class TestTrain:
    def test_replay_is_bitwise_identical(self, small_dataset):
        manifest, root = small_dataset
        a = train(manifest, small_cfg(mode="M3"), root=root)
        b = train(manifest, small_cfg(mode="M3"), root=root)
        assert b"".join(save_params(a.params)) == b"".join(save_params(b.params))
        assert a.epoch_losses == b.epoch_losses

    def test_m3_without_active_mixup_equals_m2(self, small_dataset):
        # epoch 1 is unmixed, so M3 draws exactly M2's batches there
        manifest, root = small_dataset
        images = [read_image(root, path) for path, _ in manifest.entries]
        labels = manifest.label_matrix()
        m2, m3 = (
            list(_training_batches(images, labels, small_cfg(epochs=2, lr_decay_epoch=0, mode=mode)))
            for mode in ("M2", "M3")
        )
        per_epoch = len(m2) // 2
        for (f2, t2), (f3, t3) in zip(m2[per_epoch:], m3[per_epoch:], strict=True):
            np.testing.assert_array_equal(f3, f2)
            np.testing.assert_array_equal(t3, t2)
        assert not np.array_equal(m3[0][0], m2[0][0])  # epoch 0 mixes

    def test_m3_with_active_mixup_differs_from_m2(self, small_dataset):
        manifest, root = small_dataset
        m2 = train(manifest, small_cfg(mode="M2"), root=root)
        m3 = train(manifest, small_cfg(mode="M3"), root=root)
        assert b"".join(save_params(m2.params)) != b"".join(save_params(m3.params))

    def test_loss_decreases_on_learnable_data(self, small_dataset):
        manifest, root = small_dataset
        report = train(manifest, small_cfg(epochs=8, lr_decay_epoch=6), root=root)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_report_shape(self, small_dataset):
        manifest, root = small_dataset
        report = train(manifest, small_cfg(), root=root)
        assert len(report.epoch_losses) == 3
        assert all(np.isfinite(v) for v in report.epoch_losses)
        assert report.wall_time_s > 0

    def test_log_file_lines(self, small_dataset, tmp_path):
        manifest, root = small_dataset
        log = tmp_path / "train.log"
        train(manifest, small_cfg(), root=root, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        epoch, lr, loss = lines[0].split()
        assert epoch == "0" and float(lr) == 0.1 and float(loss) > 0

    @pytest.mark.parametrize(
        "input_size, digest",
        [
            # even 6 px pool bins
            ((24, 24), "adbd0aa47df0687127dd49e6ea598a1abf69b7a5bb9c4d53ea3c099f4571742e"),
            # uneven 5.5 px pool bins
            ((22, 22), "2916b6781eaeb24689852c68b13470c0728fa687b08f2c66dddb417bc5dfb005"),
        ],
        ids=["even-bins", "uneven-bins"],
    )
    def test_m3_checkpoint_golden(self, small_dataset, input_size, digest):
        # sha256 of b1, b2, W1, W2 as little-endian float64: training must
        # reproduce the per-image pooling's weights bit for bit; digests
        # recorded with numpy 2.4 and OpenBLAS on x86-64, and another BLAS
        # build may round the matmuls differently
        manifest, root = small_dataset
        cfg = small_cfg(epochs=2, lr_decay_epoch=1, mode="M3", input_size=input_size)
        params = train(manifest, cfg, root=root).params
        arrays = (params.b1, params.b2, params.W1, params.W2)
        raw = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
        assert hashlib.sha256(raw).hexdigest() == digest
        assert b"".join(save_params(params)).endswith(raw)

    def test_empty_manifest_raises_empty_input(self, tmp_path):
        with pytest.raises(EmptyInput):
            train(DatasetManifest((), 3), small_cfg(), root=tmp_path)

    def test_grid_larger_than_input_raises_before_any_kernel(self):
        # the config itself rejects the grid, so no train call can get as far as a kernel
        for pool_grid in ((25, 4), (4, 25)):
            with pytest.raises(ValueError, match="pool_grid"):
                small_cfg(pool_grid=pool_grid)
        small_cfg(pool_grid=(24, 24))

    def test_huge_learning_rates_diverge(self, small_dataset, tmp_path):
        # finite but exploding batch losses: the ratio to the first batch stops them
        manifest, root = small_dataset
        log = tmp_path / "train.log"
        cfg = small_cfg(lr_head=1e6, lr_body=1e6)
        with pytest.raises(DivergedLoss, match=r"epoch \d+ batch \d+") as err:
            train(manifest, cfg, root=root, log_path=log)
        assert "nan" not in str(err.value) and "inf" not in str(err.value)
        assert not log.exists()

    @pytest.mark.parametrize(
        "later, diverges",
        [
            (999.0, False),
            (1001.0, True),
            (float("nan"), True),
            (float("inf"), True),
        ],
    )
    def test_divergence_guard_per_batch(self, small_dataset, monkeypatch, later, diverges):
        # the first batch's mean loss is 1.0; the third batch returns `later` times it
        calls = []

        def fake_step(params, features, labels, lr_head, lr_body, helper=None):
            calls.append(len(labels))
            return len(labels) * (later if len(calls) == 3 else 1.0)

        monkeypatch.setattr(trainer, "sgd_step", fake_step)
        manifest, root = small_dataset
        cfg = small_cfg(epochs=2, lr_decay_epoch=1)
        if diverges:
            with pytest.raises(DivergedLoss, match="epoch 0 batch 2"):
                train(manifest, cfg, root=root)
            assert len(calls) == 3
        else:
            train(manifest, cfg, root=root)
            assert len(calls) == 6

    def test_missing_image_raises_data_load_error(self, tmp_path):
        with pytest.raises(DataLoadError):
            read_image(tmp_path, "missing.ppm")

    def test_nul_byte_in_entry_is_data_load_error(self, tmp_path):
        with pytest.raises(DataLoadError, match="cannot read"):
            read_image(tmp_path, "a\x00b.ppm")

    @pytest.mark.parametrize("entry", ["../outside.ppm", "sub/../../outside.ppm", "ABSOLUTE"])
    def test_entries_outside_the_root_rejected_before_reading(
        self, small_dataset, tmp_path, monkeypatch, entry
    ):
        manifest, root = small_dataset
        outside = tmp_path / "outside.ppm"
        outside.write_bytes((root / manifest.entries[0][0]).read_bytes())
        entry = str(outside) if entry == "ABSOLUTE" else entry

        def no_read(blob):
            raise AssertionError("an image was read before the path check")

        monkeypatch.setattr("mlc.io.read_ppm", no_read)
        with pytest.raises(DataLoadError, match="leaves the dataset root"):
            DatasetManifest((manifest.entries[0], (entry, (0,))), manifest.num_classes)


def _blas_threads():
    calls = trainer._openblas_thread_calls()
    return None if calls is None else calls[0]()


def _fail_at_epoch_1_batch_3(monkeypatch):
    # batch_size 4 on 24 images: 6 batches of 4 images per epoch
    calls = []
    apply_mode = trainer.apply_mode

    def failing(*args):
        calls.append(threading.current_thread())
        if len(calls) == 6 * 4 + 3 * 4 + 1:
            raise PixelOutOfRange("injected at epoch 1 batch 3")
        return apply_mode(*args)

    monkeypatch.setattr(trainer, "apply_mode", failing)
    return calls


class TestPipeline:
    """train and predict build their inputs on one worker thread and hold
    OpenBLAS to one thread; neither outlives them on any exit path."""

    @pytest.mark.parametrize("old", [None, 3], ids=["no-openblas", "openblas"])
    def test_blas_hold_sets_one_thread_and_restores(self, monkeypatch, old):
        # None: no OpenBLAS is loaded, and the block runs with nothing set
        seen = []
        calls = None if old is None else (lambda: old, seen.append)
        monkeypatch.setattr(trainer, "_openblas_thread_calls", lambda: calls)
        with trainer._one_blas_thread():
            seen.append("block")
        assert seen == (["block"] if old is None else [1, "block", old])

    def test_overlapping_blas_holds_share_one(self):
        # thread A enters, the caller enters, A leaves: the caller still runs
        # on one thread, and leaving restores the count from before A
        calls = trainer._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS is loaded")
        get, set_ = calls
        before = get()
        a_in, a_leave = threading.Event(), threading.Event()

        def hold_a():
            with trainer._one_blas_thread():
                a_in.set()
                a_leave.wait()

        set_(2)
        try:
            a = threading.Thread(target=hold_a)
            a.start()
            assert a_in.wait(10)
            with trainer._one_blas_thread():
                a_leave.set()
                a.join(10)
                inside = get()
            assert not a.is_alive()
            assert (inside, get()) == (1, 2)
        finally:
            a_leave.set()
            set_(before)

    def test_many_overlapping_blas_holds(self, monkeypatch):
        # more holders than cores, switching often: a lost count update
        # would restore the count inside a hold, or leave it at 1 after all
        count = [3]
        monkeypatch.setattr(
            trainer, "_openblas_thread_calls",
            lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)),
        )
        seen, start = [], threading.Barrier(4)

        def hold_often():
            start.wait(10)
            for _ in range(2000):
                with trainer._one_blas_thread():
                    time.sleep(0)  # lets another holder run inside this hold
                    seen.append(count[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold_often) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (len(seen), set(seen), count[0]) == (8000, {1}, 3)

    def test_one_owner_of_the_worker_and_the_blas_hold(self):
        # (file, top-level definition, callee) of every call of these names in mlc
        names = ("ThreadPoolExecutor", "_one_blas_thread", "_built_ahead")
        calls = []
        for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                        if name in names:
                            calls.append((path.name, getattr(top, "name", None), name))
        owned = [call for call in calls if call[2] != "_built_ahead"]
        assert sorted(owned) == [
            ("trainer.py", "_built_ahead", "ThreadPoolExecutor"),
            ("trainer.py", "_built_ahead", "_one_blas_thread"),
        ]
        users = {top for _, top, name in calls if name == "_built_ahead"}
        assert {"train", "predict"} <= users

    @pytest.mark.parametrize(
        "exit_path", ["return", "diverged", "worker-error", "step-error", "interrupt"]
    )
    def test_nothing_outlives_train(self, small_dataset, monkeypatch, exit_path):
        manifest, root = small_dataset
        cfg = small_cfg(mode="M3", batch_size=4)
        threads, blas = threading.active_count(), _blas_threads()
        steps = []
        sgd_step = trainer.sgd_step

        def step(*args):
            steps.append(_blas_threads())
            if exit_path == "interrupt" and len(steps) == 3:
                raise KeyboardInterrupt
            return sgd_step(*args)

        monkeypatch.setattr(trainer, "sgd_step", step)
        if exit_path == "return":
            train(manifest, cfg, root=root)
            assert len(steps) == 3 * 6
        elif exit_path == "diverged":
            with pytest.raises(DivergedLoss):
                train(manifest, small_cfg(mode="M3", batch_size=4, lr_head=1e6, lr_body=1e6),
                      root=root)
        elif exit_path == "worker-error":
            built = _fail_at_epoch_1_batch_3(monkeypatch)
            with pytest.raises(PixelOutOfRange, match="injected"):
                train(manifest, cfg, root=root)
            assert threading.main_thread() not in built
            assert len(steps) == 6 + 3
        elif exit_path == "step-error":
            # W1 is 3 blocks of 16 rows at hidden 4096; in step 2 the helper
            # takes block 0, the caller fails at block 1, and block 2 is left
            made, init_params = [], trainer.init_params
            monkeypatch.setattr(
                trainer, "init_params", lambda *args: made.append(init_params(*args)) or made[0]
            )
            owner = {(2, 0): "helper", (2, 1): "caller fails"}
            claims_type, claims = scripted_claims(3, lambda step, k: owner.get((step, k)))
            monkeypatch.setattr(model, "count", claims_type)
            with pytest.raises(InjectedFault):
                train(manifest, small_cfg(mode="M3", batch_size=4, hidden=4096), root=root)
            w1 = made[0].W1.copy()
            time.sleep(0.05)
            assert made[0].W1.tobytes() == w1.tobytes()
            assert [claim for claim in claims if claim[0] == 2] == [
                (2, 0, "helper"), (2, 1, "caller fails"), (2, 2, "helper"), (2, None, "helper"),
            ]
            assert len(steps) == 3
        else:
            with pytest.raises(KeyboardInterrupt):
                train(manifest, cfg, root=root)
        assert threading.active_count() == threads
        assert _blas_threads() == blas
        if blas is not None:
            assert set(steps) == {1}

    @pytest.mark.parametrize("exit_path", ["return", "worker-error", "interrupt"])
    def test_nothing_outlives_predict(self, tmp_path, rng, monkeypatch, exit_path):
        samples = [(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8), (0,)) for _ in range(130)]
        manifest = write_dataset(tmp_path, "img", samples, 3)
        params = init_params(3, (4, 4), 16, seed=0)
        threads, blas = threading.active_count(), _blas_threads()
        forwards, resized = [], []
        forward_features_, resize_ = trainer.forward_features, trainer.resize

        def forward(*args):
            forwards.append(_blas_threads())
            if exit_path == "interrupt" and len(forwards) == 2:
                raise KeyboardInterrupt
            return forward_features_(*args)

        def resize_on_record(*args):
            resized.append(threading.current_thread())
            if exit_path == "worker-error" and len(resized) == PREDICT_CHUNK + 3:
                raise PixelOutOfRange("injected in block 1")
            return resize_(*args)

        monkeypatch.setattr(trainer, "forward_features", forward)
        monkeypatch.setattr(trainer, "resize", resize_on_record)
        if exit_path == "return":
            assert predict(params, manifest, (16, 16), root=tmp_path).data.shape == (130, 3)
            assert len(forwards) == 3
        elif exit_path == "worker-error":
            with pytest.raises(PixelOutOfRange, match="injected"):
                predict(params, manifest, (16, 16), root=tmp_path)
            assert threading.main_thread() not in resized
            assert len(forwards) == 1
        else:
            with pytest.raises(KeyboardInterrupt):
                predict(params, manifest, (16, 16), root=tmp_path)
        assert threading.active_count() == threads
        assert _blas_threads() == blas
        if blas is not None:
            assert set(forwards) == {1}

    def test_builds_at_most_one_batch_ahead(self, small_dataset, monkeypatch):
        manifest, root = small_dataset
        events = []
        augmented_batch = trainer._augmented_batch
        sgd_step = trainer.sgd_step

        def build(*args):
            events.append("build")
            return augmented_batch(*args)

        def step(*args):
            # while step k runs, batches 0..k+1 at most have been started
            assert events.count("build") <= events.count("step") + 2
            events.append("step")
            return sgd_step(*args)

        monkeypatch.setattr(trainer, "_augmented_batch", build)
        monkeypatch.setattr(trainer, "sgd_step", step)
        train(manifest, small_cfg(mode="M3", batch_size=4), root=root)
        assert events.count("step") == 3 * 6 and events.count("build") == 3 * 6

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, small_dataset, tmp_path):
        manifest, root = small_dataset
        src = Path(trainer.__file__).parents[1]
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.params"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            subprocess.run(
                [sys.executable, "-m", "mlc.cli", "train", "--manifest", str(root / "manifest.tsv"),
                 "--mode", "M3", "--size", "24", "24", "--epochs", "1", "--decay-epoch", "0",
                 "--hidden", "4096", "--seed", "5", "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_scores_do_not_depend_on_blas_threads(self, tmp_path, rng):
        samples = [(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8), (0,)) for _ in range(20)]
        write_dataset(tmp_path, "img", samples, 3)
        params = tmp_path / "model.params"
        params.write_bytes(b"".join(save_params(init_params(3, (8, 8), 300, seed=1))))
        src = Path(trainer.__file__).parents[1]
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            subprocess.run(
                [sys.executable, "-m", "mlc.cli", "predict", "--params", str(params),
                 "--manifest", str(tmp_path / "manifest.tsv"), "--size", "32", "32",
                 "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestPredict:
    def test_shape_and_determinism(self, small_dataset):
        manifest, root = small_dataset
        report = train(manifest, small_cfg(), root=root)
        a = predict(report.params, manifest, (24, 24), root=root)
        b = predict(report.params, manifest, (24, 24), root=root)
        assert a.data.shape == (len(manifest), manifest.num_classes)
        np.testing.assert_array_equal(a.data, b.data)

    def test_duplicate_rows_for_duplicate_images(self, small_dataset, tmp_path):
        manifest, root = small_dataset
        name = manifest.entries[0][0]
        (tmp_path / name).write_bytes((root / name).read_bytes())
        dup = DatasetManifest(((name, (0,)), (name, (1,))), manifest.num_classes)
        report = train(manifest, small_cfg(), root=root)
        scores = predict(report.params, dup, (24, 24), root=tmp_path)
        np.testing.assert_array_equal(scores.data[0], scores.data[1])

    def test_grid_larger_than_input_raises(self, small_dataset):
        manifest, root = small_dataset
        params = ModelParams(
            (8, 8), np.zeros((192, 4)), np.zeros(4), np.zeros((4, 6)), np.zeros(6)
        )
        with pytest.raises(GridTooLarge):
            predict(params, manifest, (6, 24), root=root)

    def test_zero_weights_give_bias_rows(self, small_dataset):
        manifest, root = small_dataset
        params = ModelParams(
            (2, 2), np.zeros((12, 4)), np.zeros(4), np.zeros((4, 6)), np.arange(6.0)
        )
        scores = predict(params, manifest, (24, 24), root=root)
        np.testing.assert_array_equal(scores.data, np.tile(np.arange(6.0), (len(manifest), 1)))

    @pytest.mark.parametrize("size", [(24, 24), (22, 22)], ids=["even-bins", "uneven-bins"])
    def test_chunked_scores_equal_one_whole_batch(self, tmp_path, rng, size):
        # 24x24 images; at 22x22 the 4x4 grid has 5.5 px bins
        samples = [(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8), (0,)) for _ in range(130)]
        full = write_dataset(tmp_path, "img", samples, 3)
        params = init_params(3, (4, 4), 16, seed=2)
        assert PREDICT_CHUNK == 64
        for n in (1, 63, 64, 65, 130):
            stack = np.stack([resize(pixels / 255.0, *size) for pixels, _ in samples[:n]])
            # every forward is of one pooled block, zero-padded to PREDICT_CHUNK rows
            padded = np.zeros((-(-n // PREDICT_CHUNK) * PREDICT_CHUNK, params.feature_dim))
            padded[:n] = pooled_batch(stack, params.pool_grid)
            expected = np.concatenate([
                forward_features(params, padded[lo : lo + PREDICT_CHUNK])
                for lo in range(0, n, PREDICT_CHUNK)
            ])[:n]
            manifest = DatasetManifest(full.entries[:n], 3)
            scores = predict(params, manifest, size, root=tmp_path)
            assert scores.data.tobytes() == expected.tobytes(), n

    def test_never_holds_the_whole_float_batch(self, tmp_path, rng):
        n, side = 200, 32
        samples = [(rng.integers(0, 256, (side, side, 3), dtype=np.uint8), (0,)) for _ in range(n)]
        manifest = write_dataset(tmp_path, "img", samples, 3)
        params = init_params(3, (4, 4), 8, seed=0)
        scores, peak = traced_peak(lambda: predict(params, manifest, (side, side), root=tmp_path))
        assert scores.data.shape == (n, 3)
        assert peak < n * side * side * 3 * 8

    def test_rows_do_not_depend_on_the_other_rows(self, tmp_path, rng):
        # The prefixes keep each row at its place in a same-shaped block, so only its own
        # pixels reach it: that part holds on any BLAS. The reversed copy moves rows within
        # and across blocks; at the default model shape the OpenBLAS dgemm kernels measured
        # so far give every row the same bytes there too, but at some smaller shapes they do
        # not, and another kernel may not at this one.
        cfg = TrainConfig()
        samples = [(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8), (0,)) for _ in range(70)]
        full = write_dataset(tmp_path, "img", samples, 6)
        params = init_params(6, cfg.pool_grid, cfg.hidden, seed=0)

        def scores(entries):
            return predict(params, DatasetManifest(entries, 6), (20, 20), root=tmp_path).data

        whole = scores(full.entries)
        assert scores(full.entries[::-1]).tobytes() == whole[::-1].tobytes()
        for n in (1, 10, 17):
            assert scores(full.entries[:n]).tobytes() == whole[:n].tobytes(), n

    def test_memory_does_not_grow_with_the_forward(self, tmp_path, rng):
        # at hidden 4096 one forward over all n rows held 2 x n x 4096 floats
        params = init_params(3, (16, 16), 4096, seed=0)
        peaks = []
        for n in (64, 256):
            samples = [(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8), (0,)) for _ in range(n)]
            manifest = write_dataset(tmp_path / str(n), "img", samples, 3)
            _, peak = traced_peak(lambda: predict(params, manifest, (16, 16), tmp_path / str(n)))
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2 * 2**20, peaks

    def test_memory_does_not_grow_with_the_images(self, tmp_path, rng):
        # a block's images are read as it is built; 576 more decoded 64x64 images are 6.75 MiB
        params = init_params(3, (4, 4), 8, seed=0)
        peaks = []
        for n in (64, 640):
            samples = ((rng.integers(0, 256, (64, 64, 3), dtype=np.uint8), (0,)) for _ in range(n))
            manifest = write_dataset(tmp_path / str(n), "img", samples, 3)
            _, peak = traced_peak(lambda: predict(params, manifest, (64, 64), tmp_path / str(n)))
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**20, peaks

    def test_predict_and_augment_hold_16_float_images(self, tmp_path, rng, monkeypatch):
        # 70 images: predict forwards blocks of 64 and 6 rows, augment draws 5 batches
        samples = [(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8), (k % 3,)) for k in range(70)]
        manifest = write_dataset(tmp_path, "img", samples, 3)
        asked = []
        pixel_batch = trainer._pixel_batch

        def recorded(n, size):
            asked.append(n)
            return pixel_batch(n, size)

        monkeypatch.setattr(trainer, "_pixel_batch", recorded)
        predict(init_params(3, (4, 4), 8, seed=0), manifest, (20, 20), root=tmp_path)
        assert asked == [16]
        for mode in MODES:
            asked.clear()
            assert len(list(augmented_samples(manifest, mode, (20, 18), 1, root=tmp_path))) == (
                35 if mode == "M3" else 70
            )
            assert asked == [16, 16, 16, 16, 6], mode

    def test_empty_manifest_raises(self):
        # as in train: no reader accepts the scores of no rows
        params = init_params(3, (4, 4), 8, seed=0)
        with pytest.raises(EmptyInput):
            predict(params, DatasetManifest((), 3), (8, 8))

    @pytest.mark.parametrize("manifest_classes", [3, 7])
    def test_class_count_mismatch_raises_before_reading_an_image(
        self, tmp_path, monkeypatch, manifest_classes
    ):
        def no_read(*args):
            raise AssertionError("an image was read before the class counts were compared")

        monkeypatch.setattr(trainer, "read_image", no_read)
        params = init_params(6, (4, 4), 8, seed=0)
        manifest = DatasetManifest((("img.ppm", (0,)),), manifest_classes)
        message = f"^manifest has {manifest_classes} classes, checkpoint 6$"
        with pytest.raises(ShapeMismatch, match=message):
            predict(params, manifest, (8, 8), root=tmp_path)


class TestAugmentedSamples:
    @pytest.mark.parametrize("mode", MODES)
    def test_chunked_samples_equal_one_whole_batch(self, tmp_path, rng, mode):
        # 130 images: eight build batches of 16 and one of 2, and for M3 65 pairs
        samples = [
            (rng.integers(0, 256, (24, 24, 3), dtype=np.uint8), (int(k % 3), 3))
            for k in range(130)
        ]
        manifest = write_dataset(tmp_path, "img", samples, 4)
        everything = np.arange(130)
        pixels, targets = _augmented_batch(
            [p for p, _ in samples], manifest.label_matrix(), everything, mode, (20, 18), 1, 0,
            everything if mode == "M3" else None,
        )
        drawn = list(augmented_samples(manifest, mode, (20, 18), 1, root=tmp_path))
        assert len(drawn) == len(pixels) == (65 if mode == "M3" else 130)
        for (got, indices), want, row in zip(drawn, quantize(pixels), targets):
            assert got.tobytes() == want.tobytes()
            assert indices == tuple(int(i) for i in np.flatnonzero(row))

    def test_reads_nothing_before_the_first_draw(self, tmp_path):
        manifest = DatasetManifest((("missing.ppm", (0,)),), 3)
        samples = augmented_samples(manifest, "M1", (8, 8), 0, root=tmp_path)
        with pytest.raises(DataLoadError):
            next(samples)
