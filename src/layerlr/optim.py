"""First-order update rules and the layer-wise adaptive learning-rate wrapper.

The wrapper rescales the global rate t(k) per layer to
t_l(k) = t(k) * (1 + ln(1 + 1/||g_l||)), computed fresh each iteration from
the current minibatch gradient of that layer only. Layers with small
gradient norms (shallow layers, low-curvature regions) get a larger step;
for large norms the multiplier tends to 1 and the base optimizer is
recovered. It composes with any rule that consumes a global learning rate:
SGD, classical momentum, Nesterov momentum, and AdaGrad are provided.

Optimizer.step returns one GroupStats per norm group: the gradient norm it
computed, the multiplier and the effective rate it applied. Every optimizer
has at_lookahead(params), the context in which a caller takes the gradient
the next step consumes; only NAG moves the point there.
"""

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import group_norm

EPSILON_NORM = 1e-12
EPSILON_DIV = 1e-12

OPTIMIZER_KINDS = ("sgd", "momentum", "nag", "adagrad")
SCHEDULE_KINDS = ("constant", "inverse-time", "step-decay")

# nullcontext is reusable, and one shared instance is half the cost of a new
# one on every step of a scalar landscape.
_NO_LOOKAHEAD = nullcontext()


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


class GroupStats(NamedTuple):
    """What one step did to one norm group: its state-key prefix ((li,), or
    (li, ti) under bias_separate), the l2 norm of its gradient (weight decay
    included), the multiplier (1.0 when layerwise is off) and the effective
    rate t(k) * multiplier."""

    key: tuple
    norm: float
    multiplier: float
    t_eff: float


class Optimizer:
    """Base state-transition rule over per-layer parameter groups.

    `params` and `grads` passed to step() are parallel nested lists: one
    entry per layer, each a list of parameter tensors / their gradients.
    Parameters are updated in place; step() advances the iteration counter
    by exactly one.
    """

    kind = "base"

    def __init__(self, schedule, layerwise: bool = False,
                 bias_separate: bool = False, weight_decay: float = 0.0,
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
        self.bias_separate = bias_separate
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

    def at_lookahead(self, params):
        """Context in which `params` hold the point the next gradient is
        taken at; here the parameters themselves, so it does nothing."""
        return _NO_LOOKAHEAD

    def step(self, params, grads):
        """Apply one update from per-layer gradients; returns the GroupStats
        of every norm group, in update order.

        Every group is checked, and its norm computed, before any tensor is
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
            if self.bias_separate:
                subgroups = [((li, ti), [p], [g])
                             for ti, (p, g) in enumerate(zip(pgroup, ggroup))]
            else:
                subgroups = [((li,), pgroup, ggroup)]
            # Per-tensor state keys become group_key + (position,): (li, ti)
            # normally, (li, ti, 0) under bias_separate.
            for key, ps, gs in subgroups:
                # A finite norm proves every entry finite; an infinite one
                # may be an overflowed sum of squares of finite entries,
                # which gives multiplier 1 rather than an abort.
                norm = group_norm(gs)
                if not math.isfinite(norm):
                    self._check_finite(li, gs, [(s.key, s.norm) for s in stats] + [(key, norm)])
                m = self.multiplier_fn(norm, self.epsilon_norm) if self.layerwise else 1.0
                stats.append(GroupStats(key, norm, m, t_k * m))
                groups.append((ps, gs))
        for (key, _, _, t_eff), (ps, gs) in zip(stats, groups):
            for ti, (p, g) in enumerate(zip(ps, gs)):
                self._update(key + (ti,), p, g, t_eff)
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

    def state_arrays(self):
        """Copies of the state tensors (velocities, accumulators), for
        inspection and bitwise snapshots."""
        return {}


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

    def state_arrays(self):
        return {key: v.copy() for key, v in self.velocity.items()}


class NAG(Momentum):
    """Nesterov momentum. The same recurrence as classical momentum, but the
    caller must supply gradients evaluated at the lookahead point
    x + mu * v_prev; use at_lookahead() to put that point in the parameter
    lists for the evaluation. With layerwise=True the multiplier comes from
    the lookahead gradient norms and scales only the gradient term.
    """

    kind = "nag"

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
                    key = self._key_for(li, ti)
                    v = self.velocity.get(key)
                    if v is not None:
                        ahead = np.multiply(v, self.mu, out=self._buffer(key, p))
                        ahead += p
                        group[ti] = ahead
                        swapped.append((group, ti, p))
            yield
        finally:
            for group, ti, p in swapped:
                group[ti] = p

    def _key_for(self, li, ti):
        # Mirrors the state keys produced by step(): (li, ti) normally,
        # (li, ti, 0) when each tensor forms its own group.
        return (li, ti, 0) if self.bias_separate else (li, ti)


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

    def state_arrays(self):
        return {key: acc.copy() for key, acc in self.accumulator.items()}


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
