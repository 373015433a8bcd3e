"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line. Criteria 6 and 7 share one end-to-end pipeline fixture
(synthetic data, three training modes, prediction, evaluation, fusion);
run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import numpy as np
import pytest

from mlc.augment import MODES, mixup
from mlc.fusion import fuse
from mlc.metrics import average_precision, evaluate, harmonic_f1, machine_line, top_k_binarize
from mlc.model import ModelParams, bce_loss, pooled_batch, save_params
from mlc.synthgen import SynthConfig, generate
from mlc.trainer import TrainConfig, predict, train
from mlc.types import LabelMatrix, ScoreMatrix

from conftest import step_gradients
from test_metrics import oracle_ap, oracle_panel

TRAIN_SEED = 7
DATA_SEED = 7
TEST_DATA_SEED = 1007  # stated data seed covers the train split; test split derived


def _passed(criterion: str, detail: str = "") -> None:
    print(f"PASS {criterion}" + (f" ({detail})" if detail else ""))


# -- criterion 1: published operating-point consistency ------------------------

# (O-P, O-R, O-F1) rows in percent from published top-3 multi-label benchmark
# results; the stored F1 must be the harmonic mean of P and R to +/-0.1
PUBLISHED_TRIPLES = [
    (54.0, 66.5, 59.6),
    (45.5, 96.3, 61.8),
    (55.9, 68.9, 61.7),
    (56.3, 69.3, 62.1),
    (62.6, 64.7, 63.6),
    (67.7, 69.9, 68.8),
    (44.1, 93.5, 59.9),
    (56.2, 69.2, 62.0),
]


def test_criterion_1_published_f1_consistency():
    assert len(PUBLISHED_TRIPLES) >= 5
    for p, r, f1 in PUBLISHED_TRIPLES:
        got = harmonic_f1(p, r)
        assert got == pytest.approx(f1, abs=0.1), (p, r, f1, got)
    _passed("criterion 1: harmonic O-F1 matches published triples within 0.1")


# -- criterion 2: metric oracle equivalence -------------------------------------

def test_criterion_2_ap_exhaustive_and_evaluate_oracle():
    rng = np.random.default_rng(202)
    for n in range(1, 7):
        for mask in range(1, 2**n):
            truth = np.array([(mask >> i) & 1 for i in range(n)])
            scores = rng.standard_normal((200, n))
            for draw in scores:
                assert average_precision(draw, truth) == oracle_ap(list(draw), list(truth))

    for _ in range(100):
        scores = rng.standard_normal((20, 6))
        truth = (rng.random((20, 6)) < 0.4).astype(int)
        truth[rng.integers(0, 20)] = 1  # keep every class evaluable
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        want = oracle_panel(scores.tolist(), truth.tolist(), 3)
        for field, value in want.items():
            assert abs(getattr(report, field) - value) <= 1e-12, field
    _passed("criterion 2: AP exact vs brute force; evaluate matches oracle to 1e-12")


# -- criterion 3: gradient correctness ------------------------------------------

def _random_instance(rng):
    """Small random (params, pooled image features, labels) away from relu kinks."""
    while True:
        gh, gw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 9))
        classes = int(rng.integers(2, 5))
        d = gh * gw * 3
        params = ModelParams(
            pool_grid=(gh, gw),
            W1=rng.uniform(-0.6, 0.6, (d, hidden)),
            b1=rng.uniform(-0.6, 0.6, hidden),
            W2=rng.uniform(-0.6, 0.6, (hidden, classes)),
            b2=rng.uniform(-0.6, 0.6, classes),
        )
        image = rng.random((int(rng.integers(gh, gh + 6)), int(rng.integers(gw, gw + 6)), 3))
        features = pooled_batch(image[None], (gh, gw))
        labels = (rng.random((1, classes)) < 0.5).astype(np.int8)
        z1 = features @ params.W1 + params.b1
        # central differences are invalid across the relu kink; eps=1e-4
        # perturbs z1 by at most ~3e-3, so demand a wider margin
        if np.abs(z1).min() > 1e-2:
            return params, features, labels


def test_criterion_3_gradients_match_central_differences():
    rng = np.random.default_rng(303)
    eps = 1e-4
    worst = 0.0
    for _ in range(50):
        params, features, labels = _random_instance(rng)
        _, grads = step_gradients(params, features, labels)
        arrays = {"W1": params.W1, "b1": params.b1, "W2": params.W2, "b2": params.b2}

        def loss_at() -> float:
            z1 = features @ arrays["W1"] + arrays["b1"]
            scores = np.maximum(z1, 0.0) @ arrays["W2"] + arrays["b2"]
            return bce_loss(scores[0], labels[0])

        for name, arr in arrays.items():
            arr = np.array(arr)
            arrays[name] = arr
            analytic = grads[name]
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_at()
                flat[idx] = orig - eps
                down = loss_at()
                flat[idx] = orig
                fd = (up - down) / (2.0 * eps)
                a = analytic.reshape(-1)[idx]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst <= 1e-4, worst
    _passed("criterion 3: gradient check", f"max relative error {worst:.2e}")


# -- criterion 4: mixup law ------------------------------------------------------

def test_criterion_4_mixup_law():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        classes = int(rng.integers(1, 9))
        a, labels_a = rng.random((h, w, 3)), (rng.random(classes) < 0.4).astype(np.int8)
        b, labels_b = rng.random((h, w, 3)), (rng.random(classes) < 0.4).astype(np.int8)
        pixels, labels = np.stack([a, b]), np.stack([labels_a, labels_b])
        mixed, mixed_labels = mixup(pixels, labels, np.array([0, 1]))
        assert np.array_equal(mixed_labels[0], labels_a | labels_b)
        assert np.array_equal(mixed[0], (a + b) / 2.0)
        swapped, swapped_labels = mixup(pixels, labels, np.array([1, 0]))
        assert np.array_equal(mixed, swapped)
        assert np.array_equal(mixed_labels, swapped_labels)
        self_mixed, self_labels = mixup(pixels, labels, np.array([0, 0]))
        assert np.array_equal(self_mixed[0], a)
        assert np.array_equal(self_labels[0], labels_a)
    _passed("criterion 4: mixup union/average/commutativity/self-identity on 1000 pairs")


# -- criterion 5: fusion laws ----------------------------------------------------

def test_criterion_5_fusion_laws():
    rng = np.random.default_rng(505)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n, c = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        members = [ScoreMatrix(rng.standard_normal((n, c)) * 10) for _ in range(m)]
        fused = fuse(members)
        same = ScoreMatrix(members[0].data.copy())
        assert np.array_equal(fuse([same] * m).data, same.data)
        perm = [members[i] for i in rng.permutation(m)]
        assert np.array_equal(fused.data, fuse(perm).data)
        stack = np.stack([mm.data for mm in members])
        assert (fused.data >= stack.min(axis=0)).all()
        assert (fused.data <= stack.max(axis=0) + 1e-12).all()
    _passed("criterion 5: fusion identity/permutation/bounds on 200 random shapes")


# -- criteria 6+7: end-to-end synthetic experiment -------------------------------

def _run_pipeline(base):
    train_manifest = generate(SynthConfig(num_images=500, seed=DATA_SEED), base / "train")
    test_manifest = generate(SynthConfig(num_images=200, seed=TEST_DATA_SEED), base / "test")
    truth = test_manifest.label_matrix()
    out = {}
    for mode in MODES:
        cfg = TrainConfig(mode=mode, seed=TRAIN_SEED)
        report = train(train_manifest, cfg, root=base / "train")
        scores = predict(report.params, test_manifest, cfg.input_size, root=base / "test")
        out[mode] = {
            "checkpoint": b"".join(save_params(report.params)),
            "scores": scores,
            "panel": machine_line(evaluate(scores, truth, k=3)),
            "map": evaluate(scores, truth, k=3).map,
        }
    fused = fuse([out["M2"]["scores"], out["M3"]["scores"]])
    out["DistrEn"] = {
        "scores": fused,
        "panel": machine_line(evaluate(fused, truth, k=3)),
        "map": evaluate(fused, truth, k=3).map,
    }
    out["truth"] = truth
    return out


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("e2e_first"))


def test_criterion_6_end_to_end(first_run):
    member_maps = {mode: first_run[mode]["map"] for mode in MODES}
    for mode, value in member_maps.items():
        assert value >= 0.90, f"{mode} test mAP {value:.4f} below 0.90"
    fused_map = first_run["DistrEn"]["map"]
    best = max(member_maps["M2"], member_maps["M3"])
    worst = min(member_maps["M2"], member_maps["M3"])
    assert fused_map >= worst, (fused_map, worst)
    assert fused_map >= best - 0.02, (fused_map, best)
    exceeds = "yes" if fused_map > best else "no"
    _passed(
        "criterion 6: end-to-end",
        "mAP M1 %.4f M2 %.4f M3 %.4f; DistrEn %.4f exceeds best member: %s"
        % (member_maps["M1"], member_maps["M2"], member_maps["M3"], fused_map, exceeds),
    )


def test_criterion_7_repeat_is_bitwise_identical(first_run, tmp_path_factory):
    second_run = _run_pipeline(tmp_path_factory.mktemp("e2e_second"))
    for mode in MODES:
        assert second_run[mode]["checkpoint"] == first_run[mode]["checkpoint"], mode
        assert second_run[mode]["panel"] == first_run[mode]["panel"], mode
    assert second_run["DistrEn"]["panel"] == first_run["DistrEn"]["panel"]
    _passed("criterion 7: repeated run gives bitwise-identical checkpoints and panels")


# -- criterion 8: top-k protocol --------------------------------------------------

def test_criterion_8_topk_protocol(first_run):
    rng = np.random.default_rng(808)
    scores = first_run["M1"]["scores"]
    truth = first_run["truth"]

    pred = top_k_binarize(scores.data, 3)
    assert (pred.sum(axis=1) == 3).all()

    perm = rng.permutation(scores.num_rows)
    base = evaluate(scores, truth, k=3)
    shuffled = evaluate(ScoreMatrix(scores.data[perm]), LabelMatrix(truth.data[perm]), k=3)
    assert base.panel() == pytest.approx(shuffled.panel(), abs=1e-12)

    # strictly increasing per-class transforms leave every AP unchanged
    transformed = scores.data.copy()
    for j in range(scores.num_classes):
        scale = float(rng.uniform(0.5, 3.0))
        offset = float(rng.uniform(-2.0, 2.0))
        transformed[:, j] = scale * transformed[:, j] + offset
    for j in range(scores.num_classes):
        assert average_precision(transformed[:, j], truth.data[:, j]) == average_precision(
            scores.data[:, j], truth.data[:, j]
        )
    _passed("criterion 8: top-k cardinality, permutation and monotone invariance")
