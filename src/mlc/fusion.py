"""Score-level ensembling: the fused matrix is the elementwise mean of the
member score matrices. Members are averaged as-is; an optional flag maps
scores through sigmoid first (averaging probabilities instead of logits),
which matters only through the nonlinearity since ranking metrics are
argsort-based.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import EmptyInput, ShapeMismatch
from .model import sigmoid
from .types import ScoreMatrix


def fuse(
    matrices: Iterable[ScoreMatrix], sigmoid_first: bool = False, count: int | None = None
) -> ScoreMatrix:
    """Elementwise arithmetic mean of m score matrices (m >= 1).

    Computed as min + mean(sorted deviations from min): identical members
    fuse to themselves bit-exactly and member order cannot change a single
    bit, which a naive (x1+...+xm)/m does not guarantee in float64.

    Each member is copied into one (m, n, C) stack as it is drawn, and the
    deviations are formed and sorted in that stack, so `matrices` may be a
    one-pass iterator that makes each member only when asked; it then needs
    `count`, the number it yields, since the stack is allocated at the first.
    A member of another shape is drawn past, not stored, so every member is
    still made before the ShapeMismatch names all the shapes.
    """
    count = len(matrices) if count is None else count
    if count == 0:
        raise EmptyInput("fuse needs at least one score matrix")
    stack = None
    shapes = set()
    drawn = 0
    for member in matrices:
        shapes.add(member.data.shape)
        if len(shapes) == 1 and drawn < count:
            if stack is None:
                stack = np.empty((count, *member.data.shape))
            stack[drawn] = sigmoid(member.data) if sigmoid_first else member.data
        drawn += 1
        del member  # let it go before the next one is made
    if drawn != count:
        raise ValueError(f"fuse was promised {count} score matrices, got {drawn}")
    if len(shapes) != 1:
        raise ShapeMismatch(f"score matrices disagree on shape: {sorted(shapes)}")
    low = stack.min(axis=0)
    stack -= low
    stack.sort(axis=0)
    fused = stack.sum(axis=0)
    fused /= count
    fused += low
    return ScoreMatrix(fused)
