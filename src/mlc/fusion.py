"""Score-level ensembling: the fused matrix is the elementwise mean of the
member score matrices. Members are averaged as-is; an optional flag maps
scores through sigmoid first (averaging probabilities instead of logits),
which matters only through the nonlinearity since ranking metrics are
argsort-based.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyInput, ShapeMismatch
from .model import sigmoid
from .types import ScoreMatrix


def fuse(matrices: Sequence[ScoreMatrix], sigmoid_first: bool = False) -> ScoreMatrix:
    """Elementwise arithmetic mean of m score matrices (m >= 1).

    Computed as min + mean(sorted deviations from min): identical members
    fuse to themselves bit-exactly and member order cannot change a single
    bit, which a naive (x1+...+xm)/m does not guarantee in float64.
    """
    if len(matrices) == 0:
        raise EmptyInput("fuse needs at least one score matrix")
    shapes = {m.data.shape for m in matrices}
    if len(shapes) != 1:
        raise ShapeMismatch(f"score matrices disagree on shape: {sorted(shapes)}")
    stack = np.stack([sigmoid(m.data) if sigmoid_first else m.data for m in matrices])
    low = stack.min(axis=0)
    deviations = np.sort(stack - low, axis=0)
    return ScoreMatrix(low + deviations.sum(axis=0) / stack.shape[0])
