"""Dense float64 array primitives.

Tensors are numpy float64 arrays in C (row-major) order. The helpers here
add the shape validation and error reporting the rest of the library relies
on; heavy lifting (BLAS matmul, reductions) stays in numpy, which is
deterministic run-to-run on a single machine. Arrays passed into these
functions are treated as read-only values.
"""

import math

import numpy as np

from .errors import DimensionError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a 2-D (m,k) by a 2-D (k,n) array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} x {b.shape}"
        )
    return a @ b


def l2_norm(t: np.ndarray) -> float:
    """Euclidean norm over all elements; 0.0 for an empty array."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.square(t.ravel()))))


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise y + alpha * x for same-shape arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    return y + alpha * x


def group_norm(tensors) -> float:
    """l2 norm of the flattened concatenation of `tensors`.

    Equals l2_norm of the tensors' concatenation up to summation order:
    each tensor's sum of squares is one np.vdot(t, t), with no squared
    temporary and no copy. Any NaN or inf entry makes the result
    non-finite, and so does a sum of squares that overflows (say, entries
    of 1e155).
    """
    total = 0.0
    for t in tensors:
        t = np.asarray(t, dtype=np.float64)
        total += float(np.vdot(t, t))
    return math.sqrt(total)
