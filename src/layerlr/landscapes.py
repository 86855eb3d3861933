"""Analytic non-convex test functions with per-layer gradients.

Each landscape treats its variables as separate "layers" (one scalar
tensor each) so the layer-wise learning-rate machinery applies unchanged.
The quadratic saddle isolates escape along a low-curvature descent
direction; the monkey saddle has zero curvature at its stationary point.
Each defines an escape distance, which run_escape_trial holds to ESCAPE_RADIUS.
"""

import math
from collections import deque

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .optim import Optimizer

ESCAPE_RADIUS = 1.0
DEFAULT_MAX_ITER = 10 ** 6


class Landscape:
    """Analytic objective over a list of per-layer scalar parameters.
    Subclasses define value_grad and escape_distance(point), the distance
    from the stationary point along the descent direction."""

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
        value = x * x * x - 3.0 * x * y * y  # x ** 3 would raise OverflowError
        return value, [np.array([3.0 * x * x - 3.0 * y * y]),
                       np.array([-6.0 * x * y])]

    def escape_distance(self, point) -> float:
        return float(np.hypot(float(point[0]), float(point[1])))


LANDSCAPE_KINDS = {
    "quadratic-saddle": QuadraticSaddle,
    "monkey-saddle": MonkeySaddle,
}


def check_escape_trial(landscape: Landscape, start, max_iter: int):
    """Raise ConfigError unless an escape trial can run: max_iter >= 1 and
    `start` within ESCAPE_RADIUS of the saddle, which a NaN distance is not."""
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not landscape.escape_distance(start) <= ESCAPE_RADIUS:
        raise ConfigError(f"start {list(start)} does not lie within escape radius "
                          f"{ESCAPE_RADIUS} of the saddle")


def run_escape_trial(opt: Optimizer, landscape: Landscape, start,
                     max_iter: int = DEFAULT_MAX_ITER) -> int:
    """Iterations until the iterate's escape distance exceeds ESCAPE_RADIUS;
    returns max_iter if it never does.

    Each iteration is one opt.descend, so the optimizer owns its state and
    the point the gradient is taken at. A non-finite iterate or gradient
    raises NumericError naming the step as Optimizer.step numbers it, with
    the last 10 iterates; a step's abort keeps its (li, norm) row as `layer_norms`.
    """
    params = landscape.make_params(start)
    check_escape_trial(landscape, start, max_iter)

    def value_grad():
        value, grads = landscape.value_grad([group[0].item() for group in params])
        return value, [[g] for g in grads]
    trail = deque(maxlen=10)
    for k in range(1, max_iter + 1):
        try:
            opt.descend(params, value_grad)
        except NumericError as exc:
            raise NumericError(f"{landscape.kind} trial diverged: {exc}; "
                               f"trailing iterates: {list(trail)}", iteration=exc.iteration,
                               layer_norms=exc.layer_norms) from exc
        point = [group[0].item() for group in params]
        trail.append(point)
        if not all(map(math.isfinite, point)):
            raise NumericError(f"{landscape.kind} trial diverged at iteration {opt.k - 1}; "
                               f"trailing iterates: {list(trail)}", iteration=opt.k - 1)
        if landscape.escape_distance(point) > ESCAPE_RADIUS:
            return k
    return max_iter
