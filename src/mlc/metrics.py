"""Top-k evaluation panel: mAP plus label-centric and overall P/R/F1.

Predictions are the k highest-scoring classes per image, no threshold.
Tie rules are fixed for cross-platform determinism: equal scores break
toward the lower class index in top-k and toward the lower image index in
AP ranking. Per-class 0/0 precision, recall or F1 terms count as 0; classes
without a single positive are excluded from mAP (their AP is reported as
NaN) since AP is undefined there.

Neither ranking sorts stably unless equal scores force it. Top-k takes each
row's k-th largest score with one `np.partition`: every larger score is in,
and the scores equal to it fill the row's remaining places in class order
(a running count, taken only on rows with more such scores than places).
AP sorts a class's column once and finds each positive's rank by binary
search, as 1 + the count of strictly greater scores; a class in which a
positive's score equals another score takes the stable argsort instead.
Both give the bits the stable sorts give. Infinities rank at the ends; a NaN
score has no rank, and is NonFinite here as in `ScoreMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllClassesEmpty, KTooLarge, NonFinite, NoPositives, ShapeMismatch
from .types import LabelMatrix, ScoreMatrix

# the top-k cutoff when none is given, here and in `mlc evaluate`
TOP_K = 3


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation row; every value is a fraction in [0, 1]."""

    map: float
    lp: float
    lr: float
    lf1: float
    op: float
    or_: float
    of1: float
    k: int

    def panel(self) -> tuple[float, ...]:
        return (self.map, self.lp, self.lr, self.lf1, self.op, self.or_, self.of1)


def top_k_binarize(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row of (n, C) scores, set exactly the k largest to 1 (ties: lower index wins)."""
    if scores.ndim != 2:
        raise ShapeMismatch(f"expected (n, C) scores, got shape {scores.shape}")
    if not 1 <= k <= scores.shape[1]:
        raise KTooLarge(f"k={k} outside [1, {scores.shape[1]}]")
    if np.isnan(scores).any():
        raise NonFinite("scores contain NaN")
    # the list index copies the k-th largest out, so the partitioned copy is freed
    kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, [scores.shape[1] - k]]
    pred, tied = scores > kth, scores == kth
    # places left for the scores equal to the k-th; where they outnumber
    # the places, the lowest class indices take them
    room = k - np.count_nonzero(pred, axis=1)
    crowded = np.count_nonzero(tied, axis=1) > room
    if crowded.any():
        tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= room[crowded, None]
    pred |= tied
    return pred.view(np.int8)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # 0/0 counts as 0: never-predicted / never-present classes score zero
    out = np.zeros(num.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def harmonic_f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def average_precision(scores: np.ndarray, truth: np.ndarray) -> float:
    """AP of one class from its 0/1 truth: mean precision at each rank that
    retrieves a positive.

    Images sort by descending score, equal scores by ascending image index.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(truth)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeMismatch(f"scores {s.shape} vs truth {y.shape}")
    positives = int(y.sum())
    if positives == 0:
        raise NoPositives("average precision needs at least one positive")
    ascending = np.sort(s)
    if np.isnan(ascending[-1]):  # np.sort puts any NaN last
        raise NonFinite("scores contain NaN")
    hit_scores = s[y == 1]
    at_most = np.searchsorted(ascending, hit_scores, side="right")
    below = np.searchsorted(ascending, hit_scores, side="left")
    if (at_most - below > 1).any():
        return _stable_average_precision(s, y, positives)
    # untied, a positive's rank is 1 + the count of strictly greater scores
    ranks = np.sort(len(s) + 1 - at_most).astype(np.float64)
    hits = np.arange(1, positives + 1, dtype=np.float64)
    return float((hits / ranks).sum() / positives)


def _stable_average_precision(s: np.ndarray, y: np.ndarray, positives: int) -> float:
    order = np.argsort(-s, kind="stable")
    hits = y[order].astype(np.float64)
    ranks = np.arange(1, len(hits) + 1, dtype=np.float64)
    precision_at_rank = np.cumsum(hits) / ranks
    return float(precision_at_rank[hits == 1].sum() / positives)


def mean_ap(scores: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    """mAP of (n, C) arrays over classes with at least one positive; absent classes get NaN."""
    if scores.shape != truth.shape:
        raise ShapeMismatch(f"scores {scores.shape} vs truth {truth.shape}")
    if np.isnan(scores).any():  # a class without positives is not ranked, NaN or not
        raise NonFinite("scores contain NaN")
    per_class = np.full(scores.shape[1], np.nan)
    for j in range(scores.shape[1]):
        if truth[:, j].sum() > 0:
            per_class[j] = average_precision(scores[:, j], truth[:, j])
    present = ~np.isnan(per_class)
    if not present.any():
        raise AllClassesEmpty("every class is empty; mAP undefined")
    return float(per_class[present].mean()), per_class


def evaluate(scores: ScoreMatrix, truth: LabelMatrix, k: int = TOP_K) -> MetricsReport:
    """Full panel: binarize at top-k, count each class's TP, FP and FN, average APs.

    L-P, L-R and L-F1 average per-class values uniformly over classes (L-F1
    is not the harmonic mean of L-P and L-R); O-P, O-R and O-F1 pool the
    counts, and O-P divides by the n*k predicted positives. The wrappers
    guarantee finite scores and 0/1 labels; only shapes are compared here.
    """
    s, y = scores.data, truth.data
    if s.shape != y.shape:
        raise ShapeMismatch(f"scores {s.shape} vs labels {y.shape}")
    pred = top_k_binarize(s, k).view(bool)
    # AllClassesEmpty unless some label is 1, so below n*k and the positives are > 0
    map_, _ = mean_ap(s, y)
    # one-byte boolean masks, counted per column: no (n, C) integer temporaries
    y = y.astype(bool)
    tp = np.count_nonzero(pred & y, axis=0).astype(np.float64)
    fp = np.count_nonzero(pred & ~y, axis=0).astype(np.float64)
    fn = np.count_nonzero(~pred & y, axis=0).astype(np.float64)
    hits = float(tp.sum())
    op, or_ = hits / (scores.num_rows * k), hits / float((tp + fn).sum())
    return MetricsReport(
        map=map_,
        lp=float(_safe_div(tp, tp + fp).mean()),
        lr=float(_safe_div(tp, tp + fn).mean()),
        lf1=float(_safe_div(2.0 * tp, 2.0 * tp + fp + fn).mean()),
        op=op, or_=or_, of1=harmonic_f1(op, or_), k=k,
    )


def format_report(report: MetricsReport) -> str:
    """Human panel (values x100, two decimals, like published tables)."""
    names = ("mAP", "L-P", "L-R", "L-F1", "O-P", "O-R", "O-F1")
    lines = [f"top-k: {report.k}"]
    for name, value in zip(names, report.panel()):
        lines.append(f"{name:>5}: {100.0 * value:6.2f}")
    return "\n".join(lines)


def machine_line(report: MetricsReport) -> str:
    """Machine-readable "map,lp,lr,lf1,op,or,of1" with 4 decimal places."""
    return ",".join(f"{value:.4f}" for value in report.panel())
