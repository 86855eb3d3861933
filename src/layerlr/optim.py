"""First-order update rules and the layer-wise adaptive learning-rate wrapper.

The wrapper rescales the global rate t(k) per layer to
t_l(k) = t(k) * (1 + ln(1 + 1/||g_l||)), computed fresh each iteration from
the current minibatch gradient of that layer only. Layers with small
gradient norms (shallow layers, low-curvature regions) get a larger step;
for large norms the multiplier tends to 1 and the base optimizer is
recovered. It composes with any rule that consumes a global learning rate:
SGD, classical momentum, Nesterov momentum, and AdaGrad are provided.

Each layer is one norm group. Optimizer.step returns a (key, norm,
multiplier, t_eff) tuple per layer: the gradient norm, multiplier and
effective rate it applied.
Optimizer.descend(params, value_grad) is one training step: it calls
value_grad() once for (value, grads) and steps on those grads. Only NAG
knows where that gradient is taken: its descend calls value_grad with the
lookahead point x + mu*v in the parameter lists.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import group_norm

EPSILON_NORM = 1e-12
EPSILON_DIV = 1e-12

OPTIMIZER_KINDS = ("sgd", "momentum", "nag", "adagrad")
SCHEDULE_KINDS = ("constant", "inverse-time", "step-decay")


def layer_multiplier(norm: float, epsilon_norm: float = EPSILON_NORM) -> float:
    """Per-layer learning-rate multiplier 1 + ln(1 + 1/max(norm, eps)).

    Always > 1 for finite norm and strictly decreasing in norm; the epsilon
    floor keeps norm=0 finite.
    """
    if norm < 0:
        raise ValueError(f"gradient norm must be nonnegative, got {norm}")
    return 1.0 + math.log1p(1.0 / max(norm, epsilon_norm))


# ---------------------------------------------------------------------------
# Learning-rate schedules


@dataclass(frozen=True)
class LrSchedule:
    """Global learning rate as a pure function of the iteration index.

    kind "constant":     t0
    kind "inverse-time": t0 / (1 + gamma*k)^p
    kind "step-decay":   t0 * factor^(number of milestones <= k)
    """

    kind: str = "constant"
    t0: float = 0.01
    gamma: float = 0.0
    p: float = 1.0
    milestones: tuple = ()
    factor: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        # Written so that NaN and infinity fail each check.
        if not 0 < self.t0 < math.inf:
            raise ConfigError(f"initial learning rate must be positive and finite, got {self.t0}")
        if not (0 <= self.gamma < math.inf and 0 <= self.p < math.inf):
            raise ConfigError("inverse-time parameters gamma and p must be nonnegative and finite")
        if not 0 < self.factor < math.inf:
            raise ConfigError(f"step-decay factor must be positive and finite, got {self.factor}")
        object.__setattr__(self, "milestones", tuple(sorted(int(m) for m in self.milestones)))

    def rate(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"iteration index must be nonnegative, got {k}")
        if self.kind == "constant":
            return self.t0
        if self.kind == "inverse-time":
            return self.t0 / (1.0 + self.gamma * k) ** self.p
        drops = sum(1 for m in self.milestones if m <= k)
        return self.t0 * self.factor ** drops


def constant(t0: float) -> LrSchedule:
    return LrSchedule(kind="constant", t0=t0)


# ---------------------------------------------------------------------------
# Optimizers


class Optimizer:
    """Base state-transition rule over per-layer parameter groups.

    `params` and `grads` passed to step() are parallel nested lists: one
    entry per layer, each a list of parameter tensors / their gradients.
    Parameters are updated in place; step() advances the iteration counter
    by exactly one.
    """

    kind = "base"

    def __init__(self, schedule, layerwise: bool = False, weight_decay: float = 0.0,
                 epsilon_norm: float = EPSILON_NORM,
                 epsilon_div: float = EPSILON_DIV):
        if isinstance(schedule, (int, float)):
            schedule = constant(float(schedule))
        # Written so that NaN and infinity fail each check.
        if not 0 <= weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be nonnegative and finite, got {weight_decay}")
        if not (0 < epsilon_norm < math.inf and 0 < epsilon_div < math.inf):
            raise ConfigError("epsilon floors must be positive and finite")
        self.schedule = schedule
        self.layerwise = layerwise
        self.weight_decay = weight_decay
        self.epsilon_norm = epsilon_norm
        self.epsilon_div = epsilon_div
        # Test hook: forcing the multiplier to 1 must reproduce the
        # layerwise=False trajectory exactly.
        self.multiplier_fn = layer_multiplier
        self.k = 0
        # One scratch array per parameter tensor, keyed like the state, so
        # updates and the NAG lookahead allocate nothing after the first step.
        self._scratch = {}

    def descend(self, params, value_grad):
        """One training step: call value_grad() once for (value, grads),
        taken at the parameters themselves, then step() on those grads.
        Returns (value, the step's stats tuples)."""
        value, grads = value_grad()
        return value, self.step(params, grads)

    def step(self, params, grads):
        """Apply one update from per-layer gradients; returns one
        (key, norm, multiplier, t_eff) tuple per layer with parameters, in
        update order: the key (li,), the l2 norm of the layer's gradient
        (weight decay included), the multiplier (1.0 when layerwise is off)
        and t(k) * multiplier. Tensor ti of layer li has state key (li, ti).

        Every layer is checked, and its norm computed, before any tensor is
        updated: a NumericError leaves parameters, state and k untouched.
        """
        if len(params) != len(grads):
            raise ConfigError(
                f"params have {len(params)} layers but grads have {len(grads)}"
            )
        t_k = self.schedule.rate(self.k)
        stats = []
        groups = []
        for li, (pgroup, ggroup) in enumerate(zip(params, grads)):
            if len(pgroup) != len(ggroup):
                raise ConfigError(f"layer {li}: parameter/gradient count mismatch")
            if not pgroup:
                continue
            for p, g in zip(pgroup, ggroup):
                if p.shape != g.shape:
                    raise ConfigError(
                        f"layer {li}: gradient shape {g.shape} != parameter shape {p.shape}"
                    )
            if self.weight_decay:
                ggroup = [g + self.weight_decay * p for p, g in zip(pgroup, ggroup)]
            # A finite norm proves every entry finite; an infinite one may be
            # an overflowed sum of squares of finite entries, which gives
            # multiplier 1 rather than an abort.
            norm = group_norm(ggroup)
            if not math.isfinite(norm):
                self._check_finite(li, ggroup, [s[:2] for s in stats] + [((li,), norm)])
            m = self.multiplier_fn(norm, self.epsilon_norm) if self.layerwise else 1.0
            stats.append(((li,), norm, m, t_k * m))
            groups.append((li, pgroup, ggroup))
        for (_, _, _, t_eff), (li, pgroup, ggroup) in zip(stats, groups):
            for ti, (p, g) in enumerate(zip(pgroup, ggroup)):
                self._update((li, ti), p, g, t_eff)
        self.k += 1
        return stats

    def _check_finite(self, li, tensors, norms):
        """Raise if an entry is not finite, carrying `norms`, the (key, norm)
        pairs this step has computed, as the error's one row."""
        for g in tensors:
            if not np.isfinite(g).all():
                raise NumericError(
                    f"non-finite gradient in layer {li} at iteration {self.k}",
                    iteration=self.k,
                    layer_norms=[norms],
                )

    def _buffer(self, key, like):
        """Persistent scratch array for the tensor with state key `key`."""
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = np.empty_like(like)
        return buf

    def _update(self, key, p, g, t_eff):
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient step x <- x - t_eff * g."""

    kind = "sgd"

    def _update(self, key, p, g, t_eff):
        p -= np.multiply(g, t_eff, out=self._buffer(key, p))


class Momentum(Optimizer):
    """Classical momentum: v <- mu*v - t_eff*g; x <- x + v."""

    kind = "momentum"

    def __init__(self, schedule, mu: float = 0.9, **kwargs):
        super().__init__(schedule, **kwargs)
        if not 0.0 <= mu <= 1.0:
            raise ConfigError(f"momentum coefficient must lie in [0, 1], got {mu}")
        self.mu = mu
        self.velocity = {}

    def _update(self, key, p, g, t_eff):
        v = self.velocity.get(key)
        if v is None:
            v = self.velocity[key] = np.zeros_like(p)
        v *= self.mu
        v -= np.multiply(g, t_eff, out=self._buffer(key, p))
        p += v


class NAG(Momentum):
    """Nesterov momentum. The same recurrence as classical momentum, but the
    gradients it consumes are evaluated at the lookahead point
    x + mu * v_prev: descend() puts that point in the parameter lists while
    value_grad runs. With layerwise=True the multiplier comes from the
    lookahead gradient norms and scales only the gradient term.
    """

    kind = "nag"

    def descend(self, params, value_grad):
        with self.at_lookahead(params):
            value, grads = value_grad()
        return value, self.step(params, grads)

    @contextmanager
    def at_lookahead(self, params):
        """Evaluate at the lookahead point x + mu*v_prev without touching x.

        Each tensor with a velocity gets mu*v + x written into its scratch
        array, which stands in for it in its group list for the body; on
        exit, also by an exception, the original objects go back in place.
        The parameters are never shifted, copied or restored.
        """
        swapped = []
        try:
            for li, group in enumerate(params):
                for ti, p in enumerate(group):
                    v = self.velocity.get((li, ti))
                    if v is not None:
                        ahead = np.multiply(v, self.mu, out=self._buffer((li, ti), p))
                        ahead += p
                        group[ti] = ahead
                        swapped.append((group, ti, p))
            yield
        finally:
            for group, ti, p in swapped:
                group[ti] = p


class AdaGrad(Optimizer):
    """AdaGrad: per-parameter rates from accumulated squared gradients,
    x <- x - t_eff * g / (sqrt(sum g^2) + epsilon_div)."""

    kind = "adagrad"

    def __init__(self, schedule, **kwargs):
        super().__init__(schedule, **kwargs)
        self.accumulator = {}
        self._denominator = {}  # second scratch array per tensor

    def _update(self, key, p, g, t_eff):
        acc = self.accumulator.get(key)
        if acc is None:
            acc = self.accumulator[key] = np.zeros_like(p)
            self._denominator[key] = np.empty_like(p)
        buf = self._buffer(key, p)
        acc += np.multiply(g, g, out=buf)
        den = np.sqrt(acc, out=self._denominator[key])
        den += self.epsilon_div
        step = np.multiply(g, t_eff, out=buf)
        step /= den
        p -= step


_KIND_MAP = {"sgd": SGD, "momentum": Momentum, "nag": NAG, "adagrad": AdaGrad}


def make_optimizer(kind: str, schedule, layerwise: bool = False, mu: float = 0.9,
                   **kwargs) -> Optimizer:
    """Construct a fresh optimizer (k=0, zeroed buffers) by kind name."""
    if kind not in _KIND_MAP:
        raise ConfigError(f"unknown optimizer kind {kind!r}; expected one of {OPTIMIZER_KINDS}")
    cls = _KIND_MAP[kind]
    if kind in ("momentum", "nag"):
        return cls(schedule, mu=mu, layerwise=layerwise, **kwargs)
    return cls(schedule, layerwise=layerwise, **kwargs)
