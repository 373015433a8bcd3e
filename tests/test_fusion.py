import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlc.errors import EmptyInput, ShapeMismatch
from mlc.fusion import fuse
from mlc.model import sigmoid
from mlc.types import ScoreMatrix


def matrices(draw, count, n, c):
    rng = np.random.default_rng(draw)
    return [ScoreMatrix(rng.standard_normal((n, c)) * 10) for _ in range(count)]


class TestFuse:
    def test_identical_members_identity(self, rng):
        s = ScoreMatrix(rng.standard_normal((3, 4)))
        fused = fuse([s, s, s])
        np.testing.assert_array_equal(fused.data, s.data)

    def test_hand_derived_mean(self):
        a = ScoreMatrix(np.array([[0.2, 0.4]]))
        b = ScoreMatrix(np.array([[0.6, 0.0]]))
        np.testing.assert_allclose(fuse([a, b]).data, [[0.4, 0.2]], atol=1e-15)

    def test_single_member_identity(self, rng):
        s = ScoreMatrix(rng.standard_normal((2, 5)))
        np.testing.assert_array_equal(fuse([s]).data, s.data)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fuse([])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            fuse([ScoreMatrix(rng.random((2, 3))), ScoreMatrix(rng.random((3, 2)))])

    def test_sigmoid_first(self, rng):
        a = ScoreMatrix(rng.standard_normal((3, 3)))
        b = ScoreMatrix(rng.standard_normal((3, 3)))
        fused = fuse([a, b], sigmoid_first=True)
        np.testing.assert_allclose(
            fused.data, (sigmoid(a.data) + sigmoid(b.data)) / 2.0, atol=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        count=st.integers(1, 5),
        n=st.integers(1, 8),
        c=st.integers(1, 6),
    )
    def test_laws_hold_on_random_shapes(self, seed, count, n, c):
        members = matrices(seed, count, n, c)
        fused = fuse(members)
        stack = np.stack([m.data for m in members])
        # permutation invariance
        reversed_fused = fuse(list(reversed(members)))
        np.testing.assert_allclose(fused.data, reversed_fused.data, atol=1e-12)
        # elementwise bounded by member min/max
        assert (fused.data >= stack.min(axis=0) - 1e-12).all()
        assert (fused.data <= stack.max(axis=0) + 1e-12).all()

    def test_constant_members_average(self):
        members = [ScoreMatrix(np.full((2, 2), v)) for v in (1.0, 2.0, 6.0)]
        np.testing.assert_allclose(fuse(members).data, 3.0, atol=1e-15)



class TestFuseOnePass:
    """Members drawn one at a time from an iterator, as `mlc fuse` reads them."""

    def test_iterator_fuses_like_a_list(self, rng):
        members = [ScoreMatrix(rng.standard_normal((5, 3)) * 10) for _ in range(4)]
        for sigmoid_first in (False, True):
            want = fuse(members, sigmoid_first=sigmoid_first)
            got = fuse(iter(members), sigmoid_first=sigmoid_first, count=4)
            assert got.data.tobytes() == want.data.tobytes()

    def test_no_member_outlives_its_draw(self, rng):
        drawn = []

        def member():
            # the one before has been copied into the stack and let go
            assert all(ref() is None for ref in drawn)
            made = ScoreMatrix(rng.standard_normal((2, 2)))
            drawn.append(weakref.ref(made))
            return made

        fuse((member() for _ in range(3)), count=3)
        assert len(drawn) == 3

    def test_shape_mismatch_draws_every_member_and_names_every_shape(self, rng):
        shapes = [(2, 3), (3, 2), (2, 3), (4, 1)]
        seen = []

        def members():
            for shape in shapes:
                seen.append(shape)
                yield ScoreMatrix(rng.random(shape))

        with pytest.raises(ShapeMismatch, match=re.escape("[(2, 3), (3, 2), (4, 1)]")):
            fuse(members(), count=len(shapes))
        assert seen == shapes

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_count_must_match_the_members_drawn(self, rng, count):
        members = (ScoreMatrix(rng.random((2, 2))) for _ in range(3))
        with pytest.raises(EmptyInput if count == 0 else ValueError):
            fuse(members, count=count)
