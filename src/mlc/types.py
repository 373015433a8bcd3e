"""Shared matrix containers: ground-truth labels and model scores.

Both validate on construction and hold read-only int8/float64 arrays, so a
value that exists is a value that satisfies its invariants. They are
immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryLabel, NonFinite, ShapeMismatch


def _frozen(data: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(data, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabelMatrix:
    """n x C binary ground-truth matrix; rows share one C."""

    data: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.data)
        if raw.ndim != 2 or raw.shape[1] < 1:
            raise ShapeMismatch(f"expected (n, C) label matrix, got shape {raw.shape}")
        if not ((raw == 0) | (raw == 1)).all():
            raise NonBinaryLabel("label entries must be 0 or 1")
        object.__setattr__(self, "data", _frozen(raw, np.int8))


@dataclass(frozen=True)
class ScoreMatrix:
    """n x C real confidence matrix; entries unbounded but finite."""

    data: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.data, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] < 1:
            raise ShapeMismatch(f"expected (n, C) score matrix, got shape {raw.shape}")
        if not np.all(np.isfinite(raw)):
            raise NonFinite("score matrix contains NaN or infinite entries")
        object.__setattr__(self, "data", _frozen(raw, np.float64))

    @property
    def num_rows(self) -> int:
        return self.data.shape[0]

    @property
    def num_classes(self) -> int:
        return self.data.shape[1]

