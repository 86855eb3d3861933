import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr.tensor import group_norm, l2_norm


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_zeros(self):
        assert l2_norm(np.zeros((4, 4))) == 0.0

    def test_empty(self):
        assert l2_norm(np.empty(0)) == 0.0

    def test_matches_extended_precision_oracle(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        v = gen.standard_normal(100)
        # math.fsum gives a correctly rounded sum of squares.
        expected = math.sqrt(math.fsum(float(x) * float(x) for x in v))
        assert abs(l2_norm(v) - expected) <= 1e-12 * expected

    # |c| below ~1e-154 underflows the squares, so restrict to scales where
    # the identity is meaningful in float64.
    @given(st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100)))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c):
        gen = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
        v = gen.standard_normal(17)
        lhs = l2_norm(c * v)
        rhs = abs(c) * l2_norm(v)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_concat_flat_and_group_norm_agree():
    parts = [np.array([[3.0]]), np.array([4.0, 0.0])]
    flat = np.concatenate([p.ravel() for p in parts])
    assert l2_norm(flat) == pytest.approx(group_norm(parts), rel=1e-15)
    assert group_norm(parts) == 5.0
