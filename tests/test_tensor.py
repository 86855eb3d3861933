import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr.errors import DimensionError
from layerlr.tensor import axpy, group_norm, l2_norm, matmul


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(np.eye(2), b), b)

    def test_inner_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_naive_triple_loop(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        a = gen.standard_normal((3, 4))
        b = gen.standard_normal((4, 2))
        expected = naive_matmul(a, b)
        assert np.max(np.abs(matmul(a, b) - expected)) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 1)))


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


class TestAxpy:
    def test_zero_alpha_leaves_y(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        assert np.array_equal(axpy(0.0, x, y), y)

    def test_doubling(self):
        y = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(axpy(1.0, y, y), 2.0 * y)

    def test_scaled_step(self):
        out = axpy(-0.1, np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [0.8, 0.8], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            axpy(1.0, np.zeros(2), np.zeros(3))

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_composition(self, a, b):
        gen = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        x = gen.standard_normal(9)
        y = gen.standard_normal(9)
        lhs = axpy(a, x, axpy(b, x, y))
        rhs = axpy(a + b, x, y)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12


def test_concat_flat_and_group_norm_agree():
    parts = [np.array([[3.0]]), np.array([4.0, 0.0])]
    flat = np.concatenate([p.ravel() for p in parts])
    assert l2_norm(flat) == pytest.approx(group_norm(parts), rel=1e-15)
    assert group_norm(parts) == 5.0
