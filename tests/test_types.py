import numpy as np
import pytest

from mlc.errors import NonBinaryLabel, NonFinite, PixelOutOfRange, ShapeMismatch
from mlc.types import Image, LabelMatrix, ScoreMatrix


class TestImage:
    def test_valid_construction(self):
        img = Image(np.full((2, 3, 3), 0.5))
        assert img.height == 2 and img.width == 3
        assert img.data.dtype == np.float64

    def test_wrong_channel_count(self):
        with pytest.raises(ShapeMismatch):
            Image(np.zeros((2, 2, 4)))

    def test_wrong_rank(self):
        with pytest.raises(ShapeMismatch):
            Image(np.zeros((2, 2)))

    def test_nan_rejected(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            Image(data)

    def test_out_of_range_rejected(self):
        with pytest.raises(PixelOutOfRange):
            Image(np.full((2, 2, 3), 1.5))
        with pytest.raises(PixelOutOfRange):
            Image(np.full((2, 2, 3), -0.1))

    @pytest.mark.parametrize(
        "values, error",
        [
            ([np.nan], NonFinite),
            ([np.inf], NonFinite),
            ([-np.inf], NonFinite),
            ([-0.1], PixelOutOfRange),
            ([1.5], PixelOutOfRange),
            ([np.nan, -0.1], NonFinite),
            ([1.5, np.inf], NonFinite),
        ],
    )
    def test_error_class_per_bad_pixel(self, values, error):
        data = np.full((2, 3, 3), 0.5)
        data.flat[: len(values)] = values
        with pytest.raises(error):
            Image(data)

    def test_immutable(self):
        img = Image(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 1.0


class TestLabels:
    def test_matrix_rejects_non_binary(self):
        with pytest.raises(NonBinaryLabel):
            LabelMatrix(np.array([[1, 0], [0, 2]]))



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

