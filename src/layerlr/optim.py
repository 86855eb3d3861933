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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import group_norm

EPSILON_NORM = 1e-12
EPSILON_DIV = 1e-12
# Elements per row block of an update: a tensor larger than this is updated
# one leading-axis slice at a time, so that each of a rule's passes over the
# block finds it still in cache (256 KiB per float64 array).
UPDATE_BLOCK = 1 << 15

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
        try:
            if self.kind == "inverse-time":
                return self.t0 / (1.0 + self.gamma * k) ** self.p
            drops = sum(1 for m in self.milestones if m <= k)
            return self.t0 * self.factor ** drops
        except OverflowError:
            raise NumericError(f"learning rate overflows at iteration {k}", iteration=k) from None


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

    def __init__(self, schedule, layerwise: bool = False, weight_decay: float = 0.0):
        if isinstance(schedule, (int, float)):
            schedule = constant(float(schedule))
        # Written so that NaN and infinity fail the check.
        if not 0 <= weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be nonnegative and finite, got {weight_decay}")
        self.schedule = schedule
        self.layerwise = layerwise
        self.weight_decay = weight_decay
        # Test hook: forcing the multiplier to 1 must reproduce the
        # layerwise=False trajectory exactly.
        self.multiplier_fn = layer_multiplier
        self.k = 0
        # Per-tensor state under its key (li, ti): a tuple of the rule's
        # arrays, made by _new_slot on the tensor's first update. Its last
        # entry is a scratch array, so updates and the NAG lookahead allocate
        # nothing after the first step.
        self._slots = {}

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
            raise ConfigError(f"params have {len(params)} layers but grads have {len(grads)}")
        t_k = self.schedule.rate(self.k)
        stats = []
        updates = []  # (key, p, g, t_eff) per tensor, applied once all pass
        for li, (pgroup, ggroup) in enumerate(zip(params, grads)):
            if len(pgroup) != len(ggroup):
                raise ConfigError(f"layer {li}: parameter/gradient count mismatch")
            if not pgroup:
                continue
            for p, g in zip(pgroup, ggroup):
                if p.shape != g.shape:
                    raise ConfigError(f"layer {li}: gradient shape {g.shape} "
                                      f"!= parameter shape {p.shape}")
            if self.weight_decay:
                ggroup = [g + self.weight_decay * p for p, g in zip(pgroup, ggroup)]
            # A finite norm proves every entry finite; an infinite one may be
            # an overflowed sum of squares of finite entries, which gives
            # multiplier 1 rather than an abort. A finite rate t(k) times the
            # multiplier may still overflow. An abort's one row holds the
            # (key, norm) pairs this step has computed.
            norm = group_norm(ggroup)
            bad_grad = not math.isfinite(norm) and not all(np.isfinite(g).all() for g in ggroup)
            m = self.multiplier_fn(norm, EPSILON_NORM) if self.layerwise else 1.0
            t_eff = t_k * m
            if bad_grad or not math.isfinite(t_eff):
                raise NumericError(
                    f"non-finite {'gradient' if bad_grad else 'effective rate'} in layer {li} "
                    f"at iteration {self.k}", iteration=self.k,
                    layer_norms=[[s[:2] for s in stats] + [((li,), norm)]])
            stats.append(((li,), norm, m, t_eff))
            for ti, p in enumerate(pgroup):
                updates.append(((li, ti), p, ggroup[ti], t_eff))
        slots = self._slots
        for key, p, g, t_eff in updates:
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = self._new_slot(p)
            if p.size <= UPDATE_BLOCK:
                self._update(slot, p, g, t_eff)
                continue
            # Leading-axis slices are views whatever the strides.
            rows = max(1, UPDATE_BLOCK * len(p) // p.size)
            for i in range(0, len(p), rows):
                block = slice(i, i + rows)
                self._update(tuple(a[block] for a in slot), p[block], g[block], t_eff)
        self.k += 1
        return stats

    def _new_slot(self, p):
        return (np.empty_like(p),)

    def _update(self, slot, p, g, t_eff):
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient step x <- x - t_eff * g."""

    kind = "sgd"

    def _update(self, slot, p, g, t_eff):
        p -= np.multiply(g, t_eff, out=slot[0])


class Momentum(Optimizer):
    """Classical momentum: v <- mu*v - t_eff*g; x <- x + v."""

    kind = "momentum"

    def __init__(self, schedule, mu: float = 0.9, **kwargs):
        super().__init__(schedule, **kwargs)
        if not 0.0 <= mu <= 1.0:
            raise ConfigError(f"momentum coefficient must lie in [0, 1], got {mu}")
        self.mu = mu
        # A 0-d array operand skips the conversion a Python float costs on
        # every ufunc call; the product is the same.
        self._mu0 = np.array(mu, dtype=np.float64)

    def _new_slot(self, p):
        return (np.zeros_like(p), np.empty_like(p))

    def _update(self, slot, p, g, t_eff):
        v, buf = slot
        np.multiply(v, self._mu0, out=v)
        v -= np.multiply(g, t_eff, out=buf)
        p += v


class _Lookahead:
    """What NAG.at_lookahead returns. On entry the scratch array of each
    tensor with a velocity, which holds the mu*v + x that the last step
    formed, stands in for its tensor in the group list. On exit, also by an
    exception, the original objects go back in place."""

    def __init__(self, nag, params):
        self.nag, self.params, self.swapped = nag, params, []

    def __enter__(self):
        slots = self.nag._slots
        for li, group in enumerate(self.params):
            for ti, p in enumerate(group):
                slot = slots.get((li, ti))
                if slot is not None:
                    self.swapped.append((group, ti, p))
                    group[ti] = slot[1]

    def __exit__(self, *exc):
        for group, ti, p in self.swapped:
            group[ti] = p


class NAG(Momentum):
    """Nesterov momentum. The same recurrence as classical momentum, but the
    gradients it consumes are evaluated at the lookahead point
    x + mu * v_prev: descend() puts that point in the parameter lists while
    value_grad runs. With layerwise=True the multiplier comes from the
    lookahead gradient norms and scales only the gradient term.

    Each update also forms the next lookahead mu*v + x in the tensor's
    scratch array, in the same block while v and x are in cache. So the
    lookahead is the one the last step formed: nothing may write the
    parameters between steps.
    """

    kind = "nag"

    def _update(self, slot, p, g, t_eff):
        super()._update(slot, p, g, t_eff)
        v, ahead = slot
        np.multiply(v, self._mu0, out=ahead)
        ahead += p

    def descend(self, params, value_grad):
        with self.at_lookahead(params):
            value, grads = value_grad()
        return value, self.step(params, grads)

    def at_lookahead(self, params):
        """Evaluate at the lookahead point x + mu*v_prev without touching x:
        the parameters are never shifted, copied or restored. The point is
        the one the last step formed, so it is stale if anything wrote the
        parameters since."""
        return _Lookahead(self, params)


class AdaGrad(Optimizer):
    """AdaGrad: per-parameter rates from accumulated squared gradients,
    x <- x - t_eff * g / (sqrt(sum g^2) + EPSILON_DIV)."""

    kind = "adagrad"

    def _new_slot(self, p):
        # The accumulator, the denominator and the scratch array.
        return (np.zeros_like(p), np.empty_like(p), np.empty_like(p))

    def _update(self, slot, p, g, t_eff):
        acc, den, buf = slot
        acc += np.multiply(g, g, out=buf)
        np.sqrt(acc, out=den)
        den += EPSILON_DIV
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
