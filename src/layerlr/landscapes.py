"""Analytic non-convex test functions with per-layer gradients.

Each landscape treats its variables as separate "layers" (one scalar
tensor each) so the layer-wise learning-rate machinery applies unchanged.
The quadratic saddle isolates escape along a low-curvature descent
direction; the deep linear chain produces the multiplicative per-layer
gradient shrinkage typical of vanishing gradients.
"""

import numpy as np

from .errors import DimensionError, NumericError
from .optim import Optimizer
from .tensor import l2_norm

DEFAULT_ESCAPE_RADIUS = 1.0
DEFAULT_MAX_ITER = 10 ** 6


class Landscape:
    """Analytic objective over a list of per-layer scalar parameters."""

    kind = "base"
    n_layers = 0

    def value_grad(self, point):
        """Return (value, [per-layer gradient arrays]) at `point`."""
        raise NotImplementedError

    def check_point(self, point):
        if len(point) != self.n_layers:
            raise DimensionError(
                f"{self.kind} expects {self.n_layers} layers, got {len(point)}"
            )

    def escape_distance(self, point) -> float:
        """Distance from the stationary point along the descent coordinate."""
        raise NotImplementedError(f"{self.kind} does not define an escape trial")

    def make_params(self, point):
        """Copy a point into the nested params structure optimizers expect."""
        self.check_point(point)
        return [[np.array([float(v)], dtype=np.float64)] for v in point]


class QuadraticSaddle(Landscape):
    """f(x, y) = x^2/2 - y^2/2: a saddle at the origin, descent along y."""

    kind = "quadratic-saddle"
    n_layers = 2

    def value_grad(self, point):
        self.check_point(point)
        x, y = float(point[0]), float(point[1])
        value = 0.5 * x * x - 0.5 * y * y
        return value, [np.array([x]), np.array([-y])]

    def escape_distance(self, point) -> float:
        return abs(float(point[1]))


class MonkeySaddle(Landscape):
    """f(x, y) = x^3 - 3*x*y^2: degenerate (zero-curvature) saddle at 0."""

    kind = "monkey-saddle"
    n_layers = 2

    def value_grad(self, point):
        self.check_point(point)
        x, y = float(point[0]), float(point[1])
        value = x ** 3 - 3.0 * x * y * y
        return value, [np.array([3.0 * x * x - 3.0 * y * y]),
                       np.array([-6.0 * x * y])]

    def escape_distance(self, point) -> float:
        return float(np.hypot(float(point[0]), float(point[1])))


class DeepLinearChain(Landscape):
    """f(w_1..w_d) = (w_1*...*w_d - 1)^2 / 2, each w_i its own layer.

    With |w_i| < 1 the per-layer gradients shrink multiplicatively with
    depth, modeling vanishing gradients.
    """

    kind = "deep-linear-chain"

    def __init__(self, depth: int):
        if depth < 2:
            raise DimensionError(f"chain depth must be >= 2, got {depth}")
        self.depth = depth
        self.n_layers = depth

    def value_grad(self, point):
        self.check_point(point)
        w = np.array([float(v) for v in point])
        prod = float(np.prod(w))
        residual = prod - 1.0
        value = 0.5 * residual * residual
        grads = []
        for i in range(self.depth):
            others = float(np.prod(np.delete(w, i)))
            grads.append(np.array([residual * others]))
        return value, grads


LANDSCAPE_KINDS = {
    "quadratic-saddle": QuadraticSaddle,
    "monkey-saddle": MonkeySaddle,
    "deep-linear-chain": DeepLinearChain,
}


def run_escape_trial(opt: Optimizer, landscape: Landscape, start,
                     escape_radius: float = DEFAULT_ESCAPE_RADIUS,
                     max_iter: int = DEFAULT_MAX_ITER) -> int:
    """Iterations until the iterate leaves `escape_radius` along the
    landscape's descent coordinate; returns max_iter if it never does.

    The optimizer owns its own state; NAG gradients are evaluated at the
    lookahead point. A non-finite iterate or gradient raises NumericError
    with the last 10 iterates in its message; a gradient abort keeps the
    optimizer's norm row as `layer_norms`.
    """
    params = landscape.make_params(start)
    if landscape.escape_distance([float(g[0][0]) for g in params]) > escape_radius:
        raise ValueError("start must lie within escape_radius of the saddle")
    trail = []
    for k in range(1, max_iter + 1):
        with opt.at_lookahead(params):
            _, grads = landscape.value_grad([float(group[0][0]) for group in params])
        try:
            opt.step(params, [[g] for g in grads])
        except NumericError as exc:
            raise NumericError(
                f"{landscape.kind} trial diverged at iteration {k}: {exc}; "
                f"trailing iterates: {trail}",
                iteration=k,
                layer_norms=exc.layer_norms,
            ) from exc
        point = [float(group[0][0]) for group in params]
        trail.append(point)
        if len(trail) > 10:
            trail.pop(0)
        if not all(np.isfinite(point)):
            raise NumericError(
                f"{landscape.kind} trial diverged at iteration {k}; "
                f"trailing iterates: {trail}",
                iteration=k,
            )
        if landscape.escape_distance(point) > escape_radius:
            return k
    return max_iter


def chain_gradient_profile(depth: int, point):
    """Per-layer gradient norms of the deep linear chain at `point`."""
    chain = DeepLinearChain(depth)
    _, grads = chain.value_grad(point)
    return [l2_norm(g) for g in grads]
