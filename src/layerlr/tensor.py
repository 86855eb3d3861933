"""Norms of float64 tensors.

Tensors are numpy float64 arrays in C (row-major) order. The reductions
stay in numpy, which is deterministic run-to-run on a single machine.
Arrays passed into these functions are treated as read-only values.
"""

import math

import numpy as np


def l2_norm(t: np.ndarray) -> float:
    """Euclidean norm over all elements; 0.0 for an empty array."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.square(t.ravel()))))


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
