import numpy as np
import pytest

from mlc import metrics
from mlc.errors import AllClassesEmpty, KTooLarge, NonFinite, NoPositives, ShapeMismatch
from mlc.metrics import (
    MetricsReport,
    average_precision,
    evaluate,
    format_report,
    harmonic_f1,
    machine_line,
    mean_ap,
    top_k_binarize,
)
from mlc.types import LabelMatrix, ScoreMatrix

# -- the stable-argsort rankings `metrics` used before its fast sorts; the
#    panel must keep their bits -------------------------------------------------


def reference_top_k(scores, k):
    order = np.argsort(-scores, axis=1, kind="stable")
    pred = np.zeros(scores.shape, dtype=np.int8)
    np.put_along_axis(pred, order[:, :k], 1, axis=1)
    return pred


def reference_ap(scores, truth):
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(truth)
    order = np.argsort(-s, kind="stable")
    hits = y[order].astype(np.float64)
    ranks = np.arange(1, len(hits) + 1, dtype=np.float64)
    precision_at_rank = np.cumsum(hits) / ranks
    return float(precision_at_rank[hits == 1].sum() / int(y.sum()))


# -- independent definition-level oracle (plain python, no shared code) --------


def oracle_ap(scores, truth):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    positives = sum(truth)
    hits = 0
    acc = 0.0
    for rank, i in enumerate(ranked, start=1):
        if truth[i]:
            hits += 1
            acc += hits / rank
    return acc / positives


def oracle_panel(scores, truth, k):
    n, c = len(scores), len(scores[0])
    pred = []
    for i in range(n):
        order = sorted(range(c), key=lambda j: (-scores[i][j], j))
        row = [0] * c
        for j in order[:k]:
            row[j] = 1
        pred.append(row)
    tp = [sum(pred[i][j] * truth[i][j] for i in range(n)) for j in range(c)]
    fp = [sum(pred[i][j] * (1 - truth[i][j]) for i in range(n)) for j in range(c)]
    fn = [sum((1 - pred[i][j]) * truth[i][j] for i in range(n)) for j in range(c)]
    lp = sum(tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0 for j in range(c)) / c
    lr = sum(tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0 for j in range(c)) / c
    lf1 = sum(
        2 * tp[j] / (2 * tp[j] + fp[j] + fn[j]) if 2 * tp[j] + fp[j] + fn[j] else 0.0
        for j in range(c)
    ) / c
    op = sum(tp) / (n * k)
    total_pos = sum(tp) + sum(fn)
    or_ = sum(tp) / total_pos if total_pos else 0.0
    of1 = 2 * op * or_ / (op + or_) if op + or_ > 0 else 0.0
    aps = [
        oracle_ap([scores[i][j] for i in range(n)], [truth[i][j] for i in range(n)])
        for j in range(c)
        if any(truth[i][j] for i in range(n))
    ]
    return {"map": sum(aps) / len(aps), "lp": lp, "lr": lr, "lf1": lf1,
            "op": op, "or_": or_, "of1": of1}


class TestTopK:
    def test_largest_three(self):
        pred = top_k_binarize(np.array([[0.9, 0.1, 0.8, 0.7, 0.2]]), 3)
        np.testing.assert_array_equal(pred[0], [1, 0, 1, 1, 0])

    def test_k_equals_c_all_ones(self, rng):
        pred = top_k_binarize(rng.random((4, 5)), 5)
        np.testing.assert_array_equal(pred, np.ones((4, 5), dtype=np.int8))

    def test_tie_breaks_toward_lower_index(self):
        pred = top_k_binarize(np.array([[0.5, 0.5, 0.1]]), 1)
        np.testing.assert_array_equal(pred[0], [1, 0, 0])

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            top_k_binarize(np.zeros((1, 2)), 3)

    def test_every_row_sums_to_k(self, rng):
        for k in (1, 2, 4):
            pred = top_k_binarize(rng.standard_normal((10, 6)), k)
            np.testing.assert_array_equal(pred.sum(axis=1), k)

    def test_row_wise_monotone_transform_invariance(self, rng):
        # a different strictly increasing map per row never changes the top-k
        scores = rng.standard_normal((8, 5))
        transformed = scores.copy()
        for i in range(8):
            transformed[i] = float(rng.uniform(0.1, 4.0)) * transformed[i] + float(
                rng.uniform(-3.0, 3.0)
            )
            if i % 2:
                transformed[i] = np.exp(transformed[i])
        np.testing.assert_array_equal(
            top_k_binarize(scores, 2), top_k_binarize(transformed, 2)
        )


# top-1 of these scores predicts PRED: per class TP (1, 1, 0), FP (0, 0, 0), FN (0, 0, 1)
PRED = np.array([[1, 0, 0], [0, 1, 0]])
TRUTH = np.array([[1, 0, 1], [0, 1, 0]])


def _evaluate_predictions(pred, truth, k=1):
    """`evaluate` of 0/1 predictions as scores: with k ones in every row of
    `pred`, its top-k is `pred` itself."""
    return evaluate(ScoreMatrix(np.asarray(pred, dtype=np.float64)), LabelMatrix(truth), k=k)


def _k_hot(rng, n, c, k):
    """(n, c) 0/1 rows with exactly k ones each."""
    return top_k_binarize(rng.random((n, c)), k).astype(int)


class TestConfusionCounts:
    """`evaluate`'s per-class TP, FP and FN, read back from the panel."""

    def test_hand_derived(self):
        report = _evaluate_predictions(PRED, TRUTH)
        tp = report.op * 2 * 1  # O-P = TP / (n * k)
        fn = tp / report.or_ - tp  # O-R = TP / (TP + FN)
        assert (tp, 2 * 1 - tp, fn) == pytest.approx((2, 0, 1), abs=1e-12)

    def test_perfect_prediction(self, rng):
        truth = _k_hot(rng, 5, 4, 2)
        report = _evaluate_predictions(truth, truth, k=2)
        assert (report.map, report.op, report.or_, report.of1) == (1.0, 1.0, 1.0, 1.0)  # FP = FN = 0

    def test_complement_prediction_no_tp(self, rng):
        truth = _k_hot(rng, 5, 4, 2)
        report = _evaluate_predictions(1 - truth, truth, k=2)
        assert report.panel()[1:] == (0.0,) * 6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            evaluate(ScoreMatrix(np.zeros((2, 3))), LabelMatrix(np.ones((2, 4), dtype=int)), k=1)


class TestLabelCentric:
    def test_hand_derived_two_thirds(self):
        report = _evaluate_predictions(PRED, TRUTH)
        assert (report.lp, report.lr, report.lf1) == pytest.approx((2 / 3, 2 / 3, 2 / 3), abs=1e-12)

    def test_perfect(self):
        truth = np.eye(4, dtype=int)
        report = _evaluate_predictions(truth, truth)
        assert (report.lp, report.lr, report.lf1) == (1.0, 1.0, 1.0)

    def test_no_true_positives(self):
        truth = np.array([[1, 0], [0, 1]])
        report = _evaluate_predictions(1 - truth, truth)
        assert (report.lp, report.lr, report.lf1) == (0.0, 0.0, 0.0)


class TestOverall:
    def test_hand_derived_k1(self):
        report = _evaluate_predictions(PRED, TRUTH)
        assert (report.op, report.or_, report.of1) == pytest.approx((1.0, 2 / 3, 0.8), abs=1e-12)

    def test_published_triples_consistency(self):
        # published (O-P, O-R, O-F1) operating points in percent; the stored
        # F1 must match the harmonic mean of P and R to 0.1
        triples = [(54.0, 66.5, 59.6), (45.5, 96.3, 61.8), (55.9, 68.9, 61.7)]
        for p, r, f1 in triples:
            assert harmonic_f1(p, r) == pytest.approx(f1, abs=0.1)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3)], ids=["all-zero", "no-rows"])
    def test_no_positive_label_is_all_classes_empty(self, shape):
        # with no positive, O-R has no denominator and mAP no class: the panel is undefined
        with pytest.raises(AllClassesEmpty):
            evaluate(ScoreMatrix(np.zeros(shape)), LabelMatrix(np.zeros(shape, dtype=int)), k=1)


@pytest.mark.parametrize(
    "function, scores, other",
    [
        (top_k_binarize, np.zeros(3), 1),
        (average_precision, np.zeros(3), np.array([1, 0])),
        (average_precision, np.zeros((2, 1)), np.ones((2, 1))),
        (mean_ap, np.zeros((2, 3)), np.ones((2, 2))),
    ],
    ids=["top-k-rank1", "ap-lengths-differ", "ap-rank2", "map-shapes-differ"],
)
def test_shape_mismatch(function, scores, other):
    with pytest.raises(ShapeMismatch):
        function(scores, other)


class TestAveragePrecision:
    def test_positive_ranked_first(self):
        assert average_precision(np.array([0.9, 0.3]), np.array([1, 0])) == 1.0

    def test_positive_ranked_second(self):
        assert average_precision(np.array([0.1, 0.5]), np.array([1, 0])) == 0.5

    def test_hand_derived_three(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
        assert ap == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_tie_breaks_by_image_index(self):
        # equal scores: image 0 ranks first, so a positive at index 0 wins
        assert average_precision(np.array([0.5, 0.5]), np.array([1, 0])) == 1.0
        assert average_precision(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    def test_matches_oracle_exhaustive_small(self, rng):
        for n in range(1, 6):
            for mask in range(1, 2**n):
                truth = np.array([(mask >> i) & 1 for i in range(n)])
                for _ in range(5):
                    scores = rng.standard_normal(n)
                    assert average_precision(scores, truth) == oracle_ap(
                        list(scores), list(truth)
                    )

    def test_monotone_transform_invariance(self, rng):
        scores = rng.standard_normal(12)
        truth = (rng.random(12) < 0.4).astype(int)
        truth[0] = 1
        base = average_precision(scores, truth)
        assert average_precision(3.0 * scores + 2.0, truth) == base
        assert average_precision(np.exp(scores), truth) == base


class TestMeanAp:
    def test_hand_derived_construction(self):
        scores = np.array([[0.9, 0.1, 0.2], [0.3, 0.8, 0.5]])
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        map_, per_class = mean_ap(scores, truth)
        np.testing.assert_allclose(per_class, [1.0, 1.0, 0.5])
        assert map_ == pytest.approx(2.5 / 3, abs=1e-12)

    def test_all_ones_truth(self, rng):
        truth = np.ones((4, 3), dtype=int)
        map_, _ = mean_ap(rng.standard_normal((4, 3)), truth)
        assert map_ == 1.0

    def test_single_positive_ranked_last(self):
        n = 5
        scores = np.arange(n, dtype=float)[::-1].reshape(n, 1)
        truth = np.zeros((n, 1), dtype=int)
        truth[-1, 0] = 1
        map_, _ = mean_ap(scores, truth)
        assert map_ == pytest.approx(1.0 / n, abs=1e-15)

    def test_empty_class_excluded(self):
        scores = np.array([[0.9, 0.4], [0.2, 0.6]])
        truth = np.array([[1, 0], [0, 0]])
        map_, per_class = mean_ap(scores, truth)
        assert map_ == 1.0
        assert np.isnan(per_class[1])

    def test_all_classes_empty(self):
        with pytest.raises(AllClassesEmpty):
            mean_ap(np.zeros((2, 2)), np.zeros((2, 2), dtype=int))


class TestEvaluate:
    def test_matches_oracle_random_instances(self, rng):
        for _ in range(20):
            scores = rng.standard_normal((10, 5))
            truth = (rng.random((10, 5)) < 0.4).astype(int)
            truth[0] = 1  # ensure no empty class edge for the oracle's mAP
            report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
            want = oracle_panel(scores.tolist(), truth.tolist(), 3)
            for field, value in want.items():
                assert getattr(report, field) == pytest.approx(value, abs=1e-12), field

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            evaluate(ScoreMatrix(np.zeros((2, 2))), LabelMatrix(np.ones((2, 2), dtype=int)), k=3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            evaluate(ScoreMatrix(np.zeros((2, 3))), LabelMatrix(np.zeros((3, 3), dtype=int)), k=1)

    def test_permutation_invariance(self, rng):
        scores = rng.standard_normal((12, 4))
        truth = (rng.random((12, 4)) < 0.5).astype(int)
        truth[0] = 1
        perm = rng.permutation(12)
        a = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=2)
        b = evaluate(ScoreMatrix(scores[perm]), LabelMatrix(truth[perm]), k=2)
        assert a.panel() == pytest.approx(b.panel(), abs=1e-12)

    def test_of1_identity(self, rng):
        scores = rng.standard_normal((9, 5))
        truth = (rng.random((9, 5)) < 0.5).astype(int)
        truth[0] = 1
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        assert report.of1 == pytest.approx(harmonic_f1(report.op, report.or_), abs=1e-12)

    def test_all_fields_in_unit_interval(self, rng):
        scores = rng.standard_normal((8, 6))
        truth = (rng.random((8, 6)) < 0.5).astype(int)
        truth[0] = 1
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        for value in report.panel():
            assert 0.0 <= value <= 1.0

    def test_perfect_scores_give_full_recall_and_map(self, rng):
        # large positive at every positive, large negative elsewhere; rows
        # with fewer than k positives force extra (false) predictions, which
        # costs precision but neither recall nor AP
        truth = np.zeros((8, 5), dtype=int)
        for i in range(8):
            truth[i, rng.choice(5, size=int(rng.integers(1, 4)), replace=False)] = 1
        scores = np.where(truth == 1, 100.0, -100.0) + rng.standard_normal((8, 5))
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        assert report.or_ == 1.0
        assert report.map == 1.0


class TestFormatting:
    def _report(self):
        return MetricsReport(
            map=0.83333, lp=0.5, lr=0.25, lf1=1 / 3, op=0.54, or_=0.665,
            of1=harmonic_f1(0.54, 0.665), k=3,
        )

    def test_machine_line_four_decimals(self):
        line = machine_line(self._report())
        assert line.startswith("0.8333,0.5000,0.2500,")
        assert len(line.split(",")) == 7

    def test_human_panel_mentions_every_metric(self):
        text = format_report(self._report())
        for name in ("mAP", "L-P", "L-R", "L-F1", "O-P", "O-R", "O-F1"):
            assert name in text


def _hex(values):
    return [float(v).hex() for v in values]


def _reference_results(monkeypatch, scores, truth, k):
    """`mean_ap` and `evaluate` with the stable-argsort rankings swapped in."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "top_k_binarize", reference_top_k)
        patch.setattr(metrics, "average_precision", reference_ap)
        return mean_ap(scores, truth), evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=k)


def _tie_heavy(rng, kind, n, c):
    if kind == "integers":
        return rng.integers(-2, 3, size=(n, c)).astype(np.float64)
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, c))
    if kind == "equal-columns":
        scores = rng.standard_normal((n, c))
        scores[:, rng.random(c) < 0.5] = 0.25
        return scores
    return rng.standard_normal((n, c))


class TestStableSortBits:
    """The fast rankings against the stable-argsort reference, bit for bit."""

    @pytest.mark.parametrize("kind", ["integers", "signed-zeros", "equal-columns", "normal"])
    def test_matches_reference(self, rng, monkeypatch, kind):
        shapes = [(1, 1), (1, 6), (9, 1)] + [
            (int(rng.integers(1, 30)), int(rng.integers(1, 9))) for _ in range(30)
        ]
        for n, c in shapes:
            scores = _tie_heavy(rng, kind, n, c)
            truth = (rng.random((n, c)) < rng.uniform(0.1, 0.9)).astype(np.int8)
            truth[0, 0] = 1
            for k in range(1, c + 1):
                np.testing.assert_array_equal(
                    top_k_binarize(scores, k), reference_top_k(scores, k), strict=True
                )
                (ref_map, ref_per_class), ref = _reference_results(monkeypatch, scores, truth, k)
                map_, per_class = mean_ap(scores, truth)
                assert _hex([map_, *per_class]) == _hex([ref_map, *ref_per_class])
                report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=k)
                assert _hex(report.panel()) == _hex(ref.panel())
            for j in np.flatnonzero(truth.any(axis=0)):
                got = average_precision(scores[:, j], truth[:, j])
                assert float(got).hex() == float(reference_ap(scores[:, j], truth[:, j])).hex()

    def test_non_finite_scores_rank_like_the_stable_sort(self, rng):
        # infinities rank at the ends, as in the stable sort on -scores; a NaN is NonFinite
        truth = np.array([1, 0, 1, 0, 0, 1])
        for _ in range(40):
            scores = rng.integers(-1, 2, size=(6, 5)).astype(np.float64)
            scores[rng.random(scores.shape) < 0.1] = np.inf
            scores[rng.random(scores.shape) < 0.1] = -np.inf
            for k in range(1, 6):
                np.testing.assert_array_equal(top_k_binarize(scores, k), reference_top_k(scores, k))
            got = average_precision(scores[:, 0], truth)
            assert float(got).hex() == float(reference_ap(scores[:, 0], truth)).hex()
            row, column = rng.integers(6), rng.integers(5)
            scores[row, column] = np.nan
            with pytest.raises(NonFinite, match="^scores contain NaN$"):
                top_k_binarize(scores, int(rng.integers(1, 6)))
            with pytest.raises(NonFinite, match="^scores contain NaN$"):
                average_precision(scores[:, column], truth)
            with pytest.raises(NonFinite, match="^scores contain NaN$"):
                mean_ap(scores, np.tile(truth[:, None], (1, 5)))
        # a NaN in a row whose ties fill its top 2, and one in a class without positives
        with pytest.raises(NonFinite, match="^scores contain NaN$"):
            top_k_binarize(np.array([[1.0, 1.0, 1.0, np.nan]]), 2)
        with pytest.raises(NonFinite, match="^scores contain NaN$"):
            mean_ap(np.array([[0.5, np.nan], [0.2, 0.1]]), np.array([[1, 0], [0, 0]]))

    def test_golden_panel(self):
        # recorded with the stable-argsort rankings
        rng = np.random.default_rng(20)
        truth = (rng.random((4096, 80)) < 0.05).astype(np.int8)
        scores = 1.5 * truth + rng.standard_normal((4096, 80))
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        assert _hex(report.panel()) == [
            "0x1.55d4d76daa4fap-2", "0x1.8a997d28df163p-2", "0x1.2b9a59f2ee5a6p-2",
            "0x1.541778e403170p-2", "0x1.8ac0000000000p-2", "0x1.2ba5ab5ccc315p-2",
            "0x1.54afa110b8b0fp-2",
        ]


class TestFastPath:
    """`evaluate` sorts stably only a class in which a positive's score is tied."""

    @pytest.fixture
    def stable_sorts(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            if kwargs.get("kind") == "stable":
                calls.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        return calls

    @staticmethod
    def _inputs(rng):
        truth = (rng.random((500, 12)) < 0.2).astype(np.int8)
        truth[0] = 1
        return rng.standard_normal((500, 12)), truth

    def test_tie_free_scores_sort_nothing_stably(self, rng, stable_sorts):
        scores, truth = self._inputs(rng)
        evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        assert stable_sorts == []

    def test_one_tied_positive_column_sorts_once(self, rng, monkeypatch, stable_sorts):
        scores, truth = self._inputs(rng)
        positives = np.flatnonzero(truth[:, 4])
        scores[positives[:2], 4] = 0.5  # two positives share a score
        report = evaluate(ScoreMatrix(scores), LabelMatrix(truth), k=3)
        assert len(stable_sorts) == 1
        _, ref = _reference_results(monkeypatch, scores, truth, 3)
        assert _hex(report.panel()) == _hex(ref.panel())
