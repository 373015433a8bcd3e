import numpy as np
import pytest

from mlc.errors import NonBinaryLabel, NonFinite, ShapeMismatch
from mlc.types import LabelMatrix, ScoreMatrix


class TestLabels:
    def test_matrix_rejects_non_binary(self):
        with pytest.raises(NonBinaryLabel):
            LabelMatrix(np.array([[1, 0], [0, 2]]))

    @pytest.mark.parametrize(
        "entry, accepted",
        [
            (np.int8(0), True), (np.int8(1), True), (np.int8(2), False), (np.int8(-1), False),
            (np.int64(1), True), (np.int64(256), False), (np.int64(-255), False),
            (True, True), (False, True),
            (0.0, True), (-0.0, True), (1.0, True), (0.5, False), (2.0, False), (-1.0, False),
            (np.nan, False), (1e300, False),
        ],
        ids=repr,
    )
    def test_accepts_exactly_zero_and_one(self, entry, accepted):
        # int64 256 and -255 would wrap to 0 and 1 in int8, so they are checked before the cast
        raw = np.array([[entry, 1]], dtype=np.asarray(entry).dtype)
        if accepted:
            np.testing.assert_array_equal(LabelMatrix(raw).data, [[int(entry), 1]])
        else:
            with pytest.raises(NonBinaryLabel):
                LabelMatrix(raw)


class TestScoreMatrix:
    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            ScoreMatrix(np.array([[0.1, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(NonFinite):
            ScoreMatrix(np.array([[np.inf, 0.0]]))

    def test_accepts_unbounded_reals(self):
        mat = ScoreMatrix(np.array([[-1e300, 1e300]]))
        assert mat.num_rows == 1 and mat.num_classes == 2


@pytest.mark.parametrize("matrix", [LabelMatrix, ScoreMatrix])
@pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 1)], ids=["rank1", "no-classes", "rank3"])
def test_matrix_rejects_other_than_n_by_c(matrix, shape):
    with pytest.raises(ShapeMismatch, match=r"expected \(n, C\)"):
        matrix(np.zeros(shape, dtype=np.int8))
