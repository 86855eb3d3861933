import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr import data, nn, rng
from layerlr.errors import ConfigError, NumericError
from layerlr.harness import train_steps
from layerlr.optim import (
    EPSILON_DIV,
    SGD,
    UPDATE_BLOCK,
    AdaGrad,
    LrSchedule,
    Momentum,
    NAG,
    group_norm,
    layer_multiplier,
    make_optimizer,
)

# High-precision multiplier values (50-digit evaluation of 1 + ln(1 + 1/n)).
MULT_AT_1 = 1.6931471805599453094
MULT_AT_1E_MINUS_6 = 14.815511557963774104


def single_layer(*values):
    return [[np.array(v, dtype=np.float64)] for v in values]


def state(opt):
    """The optimizer's state tensors by key: the velocities of momentum and
    NAG, the accumulators of AdaGrad, none for SGD (its slot is scratch)."""
    if isinstance(opt, SGD):
        return {}
    return {key: slot[0] for key, slot in opt._slots.items()}


def state_copy(opt):
    return {key: a.copy() for key, a in state(opt).items()}


class TestSchedule:
    def test_constant(self):
        # A float rate is the constant schedule at that rate.
        s = SGD(0.3).schedule
        assert s == LrSchedule(t0=0.3)
        assert s.rate(0) == 0.3
        assert s.rate(10 ** 6) == 0.3

    def test_inverse_time_at_zero_is_t0(self):
        s = LrSchedule(kind="inverse-time", t0=0.25, gamma=0.5, p=2.0)
        assert s.rate(0) == 0.25

    def test_inverse_time_halving(self):
        s = LrSchedule(kind="inverse-time", t0=0.1, gamma=0.01, p=1.0)
        assert s.rate(100) == pytest.approx(0.05, abs=1e-15)

    def test_step_decay_between_milestones(self):
        s = LrSchedule(kind="step-decay", t0=0.001, milestones=(60000, 65000), factor=0.1)
        assert s.rate(62000) == pytest.approx(0.0001, rel=1e-12)
        assert s.rate(59999) == pytest.approx(0.001, rel=1e-12)
        assert s.rate(65000) == pytest.approx(0.00001, rel=1e-12)

    def test_inverse_time_non_increasing(self):
        s = LrSchedule(kind="inverse-time", t0=1.0, gamma=0.3, p=0.7)
        rates = [s.rate(k) for k in range(0, 2000, 37)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(r > 0 for r in rates)

    @pytest.mark.parametrize("schedule", [
        LrSchedule(kind="inverse-time", t0=1.0, gamma=1.0, p=1000.0),
        LrSchedule(kind="step-decay", t0=1.0, milestones=(1, 2), factor=1e300),
    ], ids=["inverse-time", "step-decay"])
    def test_overflowing_rate_names_its_iteration(self, schedule):
        assert schedule.rate(1) > 0  # 2.0 ** 1000 and 1e300 ** 1 are still finite
        with pytest.raises(NumericError, match="learning rate overflows at iteration 2") as err:
            schedule.rate(2)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("bad", [
        dict(kind="warmup"),
        dict(t0=0.0),
        dict(t0=-0.1),
        dict(kind="inverse-time", gamma=-1.0),
        dict(kind="step-decay", factor=0.0),
    ])
    def test_invalid_schedule_rejected(self, bad):
        with pytest.raises(ConfigError):
            LrSchedule(**bad)

    def test_negative_milestone_rejected_and_zero_kept(self):
        with pytest.raises(ConfigError, match="milestones must be >= 0, got -5"):
            LrSchedule(kind="step-decay", milestones=(10, -5))
        s = LrSchedule(kind="step-decay", t0=1.0, milestones=(0,), factor=0.5)
        assert s.rate(0) == 0.5  # steps count from 0


class TestLayerMultiplier:
    def test_high_precision_values(self):
        assert abs(layer_multiplier(1.0) - MULT_AT_1) < 1e-9
        assert abs(layer_multiplier(1e-6) - MULT_AT_1E_MINUS_6) < 1e-9

    def test_huge_norm_recovers_plain_rate(self):
        assert abs(layer_multiplier(1e12) - 1.0) < 1e-11
        assert layer_multiplier(1e12) > 1.0

    def test_strictly_decreasing_over_powers_of_ten(self):
        values = [layer_multiplier(10.0 ** i) for i in range(-8, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)
        assert abs(layer_multiplier(1e8) - 1.0) < 1e-7

    def test_zero_norm_is_finite_via_floor(self):
        m = layer_multiplier(0.0)
        assert math.isfinite(m)
        assert m == layer_multiplier(0.0, 1e-12)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            layer_multiplier(-1.0)

    @given(st.floats(1e-12, 1e12), st.floats(1e-12, 1e12))
    @settings(max_examples=60, deadline=None)
    def test_monotone_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if lo < hi:
            assert layer_multiplier(lo) >= layer_multiplier(hi)


class TestGroupNorm:
    """group_norm of one tensor is its l2 norm; of several, the l2 norm of
    their flattened concatenation."""

    def test_matches_extended_precision_oracle(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        v = gen.standard_normal(100)
        # math.fsum gives a correctly rounded sum of squares.
        expected = math.sqrt(math.fsum(float(x) * float(x) for x in v))
        assert abs(group_norm([v]) - expected) <= 1e-12 * expected

    # |c| below ~1e-154 underflows the squares, so restrict to scales where
    # the identity is meaningful in float64.
    @given(st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100)))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c):
        gen = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
        v = gen.standard_normal(17)
        lhs = group_norm([c * v])
        rhs = abs(c) * group_norm([v])
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)

    def test_concat_flat_and_group_norm_agree(self):
        parts = [np.array([[3.0]]), np.array([4.0, 0.0])]
        flat = np.concatenate([p.ravel() for p in parts])
        assert np.linalg.norm(flat) == pytest.approx(group_norm(parts), rel=1e-15)
        assert group_norm(parts) == 5.0


class TestSGDStep:
    def test_plain_scalar_step(self):
        params = single_layer([1.0])
        SGD(0.1).step(params, single_layer([2.0]))
        assert params[0][0][0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_leaves_params(self):
        for layerwise in (False, True):
            params = single_layer([1.0, -2.0])
            before = params[0][0].copy()
            SGD(0.1, layerwise=layerwise).step(params, single_layer([0.0, 0.0]))
            assert np.array_equal(params[0][0], before)

    def test_layerwise_scalar_example(self):
        # ||g|| = 5, multiplier = 1 + ln(1.2); frozen from 50-digit evaluation.
        params = single_layer([1.0, 1.0])
        opt = SGD(0.1, layerwise=True)
        opt.step(params, single_layer([3.0, 4.0]))
        assert params[0][0][0] == pytest.approx(0.64530353296181361214, abs=1e-12)
        assert params[0][0][1] == pytest.approx(0.52707137728241814952, abs=1e-12)

    def test_direction_preserved_and_scaled(self):
        gen = rng.generator(3, 1)
        g = gen.standard_normal(6)
        plain = single_layer(np.zeros(6))
        wrapped = single_layer(np.zeros(6))
        SGD(0.05).step(plain, [[g.copy()]])
        SGD(0.05, layerwise=True).step(wrapped, [[g.copy()]])
        u = -plain[0][0]
        v = -wrapped[0][0]
        cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert abs(cos - 1.0) < 1e-12
        ratio = np.linalg.norm(v) / np.linalg.norm(u)
        assert ratio == pytest.approx(layer_multiplier(float(np.linalg.norm(g))), rel=1e-12)

    def test_scale_response_across_layers(self):
        # Two layers, same direction, norms n and 100n: the small-norm layer
        # moves further by exactly m(n)/m(100n) > 1.
        n = 1e-3
        direction = np.array([0.6, 0.8])
        params = [[np.zeros(2)], [np.zeros(2)]]
        grads = [[n * direction], [100 * n * direction]]
        SGD(1.0, layerwise=True).step(params, grads)
        step_small = np.linalg.norm(params[0][0]) / n
        step_large = np.linalg.norm(params[1][0]) / (100 * n)
        ratio = step_small / step_large
        assert ratio == pytest.approx(layer_multiplier(n) / layer_multiplier(100 * n), rel=1e-12)
        assert ratio > 1.0

    def test_non_finite_gradient_reports_layer_and_iteration(self):
        params = [[np.zeros(2)], [], [np.zeros(2)], [np.zeros(1)]]
        grads = [[np.array([3.0, 4.0])], [], [np.array([1.0, np.inf])], [np.ones(1)]]
        opt = SGD(0.1)
        opt.k = 7
        with pytest.raises(NumericError, match="layer 2.*iteration 7") as err:
            opt.step(params, grads)
        # The norms computed so far: empty layers have none, and groups after
        # the failing one are not reached.
        assert err.value.layer_norms == [(0, 5.0), (2, math.inf)]

    def test_iteration_counter_increments_by_one(self):
        opt = SGD(0.1)
        params = single_layer([1.0])
        for expect in range(5):
            assert opt.k == expect
            opt.step(params, single_layer([0.5]))
        assert opt.k == 5


class TestMomentum:
    def test_mu_zero_is_bitwise_sgd(self):
        gen = rng.generator(5, 2)
        grad_seq = [gen.standard_normal(4) for _ in range(60)]
        a = single_layer(np.ones(4))
        b = single_layer(np.ones(4))
        sgd = SGD(0.07)
        mom = Momentum(0.07, mu=0.0)
        for g in grad_seq:
            sgd.step(a, [[g.copy()]])
            mom.step(b, [[g.copy()]])
        assert np.array_equal(a[0][0], b[0][0])

    def test_two_step_hand_unroll(self):
        params = single_layer([0.0])
        opt = Momentum(0.1, mu=0.9)
        for _ in range(2):
            opt.step(params, single_layer([1.0]))
        assert params[0][0][0] == pytest.approx(-0.29, abs=1e-15)

    def test_zero_gradients_decay_velocity_geometrically(self):
        params = single_layer([0.0])
        opt = Momentum(0.1, mu=0.5)
        opt.step(params, single_layer([1.0]))
        positions = [params[0][0][0]]
        for _ in range(60):
            opt.step(params, single_layer([0.0]))
            positions.append(params[0][0][0])
        # velocity halves every step; x converges to -t * sum of mu^j = -0.2
        assert positions[-1] == pytest.approx(-0.1 * 2.0, abs=1e-15)
        vel = list(state(opt).values())[0]
        assert abs(vel[0]) < 1e-18

    def test_invalid_mu_rejected(self):
        with pytest.raises(ConfigError):
            Momentum(0.1, mu=1.1)
        with pytest.raises(ConfigError):
            make_optimizer("nag", 0.1, mu=-0.2)


class TestNAG:
    def test_mu_zero_reduces_to_sgd(self):
        gen = rng.generator(8, 3)
        grad_seq = [gen.standard_normal(3) for _ in range(40)]
        a = single_layer(np.ones(3))
        b = single_layer(np.ones(3))
        sgd = SGD(0.05)
        nag = NAG(0.05, mu=0.0)
        for g in grad_seq:
            sgd.step(a, [[g.copy()]])
            nag.step(b, [[g.copy()]])
        assert np.array_equal(a[0][0], b[0][0])

    def test_first_step_equals_plain_sgd(self):
        a = single_layer([2.0])
        b = single_layer([2.0])
        SGD(0.1).step(a, single_layer([1.5]))
        nag = NAG(0.1, mu=0.9)
        # The velocity is zero, so the lookahead is the same point.
        nag.descend(b, lambda: (None, single_layer([1.5])))
        assert np.array_equal(a[0][0], b[0][0])

    def test_quadratic_two_step_hand_unroll(self):
        # f(x) = x^2/2, grad(x) = x, lookahead grads supplied per Nesterov.
        t, mu, x0 = 0.1, 0.9, 1.0
        params = single_layer([x0])
        opt = NAG(t, mu=mu)
        for _ in range(2):
            opt.descend(params, lambda: (None, single_layer([float(params[0][0][0])])))
        # hand unroll: v1 = -t*x0; x1 = x0 + v1
        v1 = -t * x0
        x1 = x0 + v1
        v2 = mu * v1 - t * (x1 + mu * v1)
        x2 = x1 + v2
        assert params[0][0][0] == pytest.approx(x2, abs=1e-15)

    def test_lookahead_restores_bitwise(self):
        params = single_layer(np.array([0.1, -0.7, 0.3]))
        opt = NAG(0.05, mu=0.8)
        opt.step(params, [[np.array([1.0, 2.0, 3.0])]])
        snapshot = params[0][0].copy()
        with opt.at_lookahead(params):
            assert not np.array_equal(params[0][0], snapshot)
        assert np.array_equal(params[0][0], snapshot)


class TestAdaGrad:
    def test_first_step_is_signed_rate(self):
        params = single_layer([0.0, 0.0])
        AdaGrad(0.1).step(params, single_layer([3.0, -4.0]))
        assert params[0][0][0] == pytest.approx(-0.1, abs=1e-10)
        assert params[0][0][1] == pytest.approx(+0.1, abs=1e-10)

    def test_constant_gradient_step_law(self):
        g = 2.0
        t = 0.1
        params = single_layer([0.0])
        opt = AdaGrad(t)
        prev = 0.0
        for k in range(1, 51):
            opt.step(params, single_layer([g]))
            step = abs(params[0][0][0] - prev)
            prev = params[0][0][0]
            assert step == pytest.approx(t / math.sqrt(k), abs=1e-10)

    def test_zero_gradient_layer_untouched(self):
        params = single_layer([1.0])
        opt = AdaGrad(0.1)
        opt.step(params, single_layer([2.0]))
        acc_before = list(state(opt).values())[0].copy()
        x_before = params[0][0].copy()
        opt.step(params, single_layer([0.0]))
        assert np.array_equal(params[0][0], x_before)
        assert np.array_equal(list(state(opt).values())[0], acc_before)

    def test_accumulator_nondecreasing(self):
        gen = rng.generator(21, 4)
        params = [[gen.standard_normal(5)]]
        opt = AdaGrad(0.05)
        prev = np.zeros(5)
        for _ in range(30):
            opt.step(params, [[gen.standard_normal(5)]])
            acc = list(state(opt).values())[0]
            assert np.all(acc >= prev)
            prev = acc.copy()

    def test_lazy_accumulator_shapes(self):
        opt = make_optimizer("adagrad", 0.1)
        assert state(opt) == {}
        params = [[np.zeros((2, 3)), np.zeros(3)], []]
        grads = [[np.ones((2, 3)), np.ones(3)], []]
        opt.step(params, grads)
        shapes = {k: v.shape for k, v in state(opt).items()}
        assert shapes == {(0, 0): (2, 3), (0, 1): (3,)}


class TestMakeOptimizer:
    def test_kinds(self):
        assert isinstance(make_optimizer("sgd", 0.1), SGD)
        assert isinstance(make_optimizer("momentum", 0.1), Momentum)
        assert isinstance(make_optimizer("nag", 0.1), NAG)
        assert isinstance(make_optimizer("adagrad", 0.1), AdaGrad)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_optimizer("adam", 0.1)

    def test_fresh_state(self):
        opt = make_optimizer("sgd", 0.1, layerwise=True)
        assert opt.k == 0
        assert opt.layerwise
        assert state_copy(opt) == {}
        for kind in ("momentum", "nag", "adagrad"):
            assert state_copy(make_optimizer(kind, 0.1)) == {}


def _run_trajectory(opt, steps, grad_seq, start):
    params = [[start.copy()]]
    for g in grad_seq[:steps]:
        opt.descend(params, lambda: (None, [[g.copy()]]))
    return params[0][0]


@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_wrapper_identity_with_forced_multiplier(kind):
    """Forcing m_l = 1 through the hook must reproduce the plain trajectory."""
    gen = rng.generator(33, 5)
    grad_seq = [gen.standard_normal(6) for _ in range(100)]
    start = gen.standard_normal(6)
    schedule = LrSchedule(kind="inverse-time", t0=0.05, gamma=0.001, p=1.0)
    plain = make_optimizer(kind, schedule, layerwise=False)
    forced = make_optimizer(kind, schedule, layerwise=True)
    forced.multiplier_fn = lambda norm, eps: 1.0
    a = _run_trajectory(plain, 100, grad_seq, start)
    b = _run_trajectory(forced, 100, grad_seq, start)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_momentum_mu_zero_bitwise_equals_sgd_long_run():
    gen = rng.generator(40, 6)
    grad_seq = [gen.standard_normal(4) for _ in range(100)]
    start = gen.standard_normal(4)
    a = _run_trajectory(SGD(0.03), 100, grad_seq, start)
    b = _run_trajectory(Momentum(0.03, mu=0.0), 100, grad_seq, start)
    assert np.array_equal(a, b)


def _reference_run(kind, schedule, params, grad_seq, layerwise, mu=0.9):
    """The four update rules with one temporary per operation, in the
    operation order of Optimizer.step. Yields, per step, the lookahead
    point (the parameters themselves but for NAG), the parameters and the
    state."""
    state = {}
    for k, grads in enumerate(grad_seq):
        ahead = [[p + mu * state[(li, ti)] if kind == "nag" and (li, ti) in state else p.copy()
                  for ti, p in enumerate(group)] for li, group in enumerate(params)]
        t_k = schedule.rate(k)
        for li, (pg, gg) in enumerate(zip(params, grads)):
            if not pg:
                continue
            m = layer_multiplier(group_norm(gg)) if layerwise else 1.0
            t_eff = t_k * m
            for ti, (p, g) in enumerate(zip(pg, gg)):
                key = (li, ti)
                if kind == "sgd":
                    pg[ti] = p - t_eff * g
                elif kind == "adagrad":
                    acc = state.get(key, np.zeros_like(p)) + g * g
                    state[key] = acc
                    pg[ti] = p - t_eff * g / (np.sqrt(acc) + EPSILON_DIV)
                else:
                    v = mu * state.get(key, np.zeros_like(p)) - t_eff * g
                    state[key] = v
                    pg[ti] = p + v
        yield ahead, params, state


SMALL_SHAPES = [[(7, 5), (5,)], [], [(5, 3), (3,)], [(1,)]]
# Tensors above one update block, then a small last layer: a 2-D tensor
# whose row count the block's rows do not divide, a 1-D tensor 7 longer
# than a block, and a conv-shaped 4-D tensor.
_BLOCK_ROWS = UPDATE_BLOCK // 101
BLOCKED_SHAPES = [[(2 * _BLOCK_ROWS + 5, 101), (101,)], [(UPDATE_BLOCK + 7,)],
                  [(UPDATE_BLOCK // 75 + 9, 3, 5, 5), (UPDATE_BLOCK // 75 + 9,)], [(1,)]]


def _layered_problem(seed, steps, shapes=SMALL_SHAPES):
    gen = rng.generator(seed, 9)
    params = [[gen.standard_normal(s) for s in group] for group in shapes]
    # Gradient scales spread over 8 decades, so multipliers differ by layer.
    grad_seq = [[[gen.standard_normal(s) * 10.0 ** gen.integers(-6, 3) for s in group]
                 for group in shapes] for _ in range(steps)]
    return params, grad_seq


def _nested_copy(params):
    return [[p.copy() for p in group] for group in params]


def _recording(params, grads, seen):
    """A value_grad for descend that returns (None, grads) and appends to
    `seen` the (object, copy) pairs that `params` hold when it runs."""
    def value_grad():
        seen.append([[(p, p.copy()) for p in group] for group in params])
        return None, grads
    return value_grad


def _check_against_reference(kind, layerwise, shapes, steps):
    schedule = LrSchedule(kind="inverse-time", t0=0.05, gamma=0.01, p=1.0)
    params, grad_seq = _layered_problem(12, steps, shapes)
    reference = _reference_run(kind, schedule, _nested_copy(params), grad_seq, layerwise)
    opt = make_optimizer(kind, schedule, layerwise=layerwise)
    for grads, (want_ahead, want_params, want_state) in zip(grad_seq, reference):
        seen = []
        opt.descend(params, _recording(params, grads, seen))
        (point,) = seen
        ahead = [[copy for _, copy in group] for group in point]
        assert pickle.dumps(ahead) == pickle.dumps(want_ahead)
        assert pickle.dumps(params) == pickle.dumps(want_params)
        assert pickle.dumps(state_copy(opt)) == pickle.dumps(want_state)
        if kind == "nag":
            # The step just taken formed the next lookahead.
            with opt.at_lookahead(params):
                formed = _nested_copy(params)
            velocity = state(opt)
            want = [[opt.mu * velocity[(li, ti)] + x for ti, x in enumerate(group)]
                    for li, group in enumerate(params)]
            assert pickle.dumps(formed) == pickle.dumps(want)


# The ids keep the weight decay of 0.0 these cases ran with while the
# optimizer had one, so each case keeps its name.
LAYERWISE = pytest.mark.parametrize("layerwise", [False, True], ids=["False-0.0", "True-0.0"])


@LAYERWISE
@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_in_place_updates_match_allocating_reference_bitwise(kind, layerwise):
    _check_against_reference(kind, layerwise, SMALL_SHAPES, 25)


@LAYERWISE
@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_block_updates_match_allocating_reference_bitwise(kind, layerwise):
    _check_against_reference(kind, layerwise, BLOCKED_SHAPES, 6)


@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_update_runs_once_per_small_tensor_and_per_row_block_above(kind):
    # Exactly one block; one row over a block, so one row per call; the rest.
    shapes = [[(UPDATE_BLOCK,), (2, UPDATE_BLOCK + 1)]] + BLOCKED_SHAPES
    params, (grads,) = _layered_problem(17, 1, shapes)
    opt = make_optimizer(kind, 0.05)
    calls = []

    def update(slot, p, g, t_eff):
        assert all(a.shape == p.shape for a in (g,) + slot)
        calls.append(p)
    opt._update = update
    opt.step(params, grads)
    for p in (p for group in params for p in group):
        blocks = [b for b in calls if b.base is p or b is p]
        if p.size <= UPDATE_BLOCK:
            assert len(blocks) == 1 and blocks[0] is p
            continue
        row = p.size // len(p)
        assert all(b.size <= max(UPDATE_BLOCK, row) for b in blocks)
        assert all(b.size >= row for b in blocks)
        assert sum(len(b) for b in blocks) == len(p)
        assert np.shares_memory(blocks[0], p[:1]) and np.shares_memory(blocks[-1], p[-1:])


@pytest.mark.parametrize("layerwise", [False, True])
@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_last_layer_aborts_before_any_update(kind, layerwise, bad):
    params, grad_seq = _layered_problem(13, 4)
    opt = make_optimizer(kind, 0.05, layerwise=layerwise)
    for grads in grad_seq[:3]:
        opt.step(params, grads)
    grads = grad_seq[3]
    grads[-1][0] = grads[-1][0].copy()
    grads[-1][0][0] = bad
    before = pickle.dumps((params, state_copy(opt), opt.k))
    with pytest.raises(NumericError, match="layer 3 at iteration 3"):
        opt.step(params, grads)
    assert pickle.dumps((params, state_copy(opt), opt.k)) == before


@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_nan_after_blocked_tensors_aborts_before_any_update(kind):
    params, grad_seq = _layered_problem(19, 3, BLOCKED_SHAPES)
    opt = make_optimizer(kind, 0.05, layerwise=True)
    for grads in grad_seq[:2]:
        opt.step(params, grads)
    grads = grad_seq[2]
    grads[-1][0] = np.full(1, np.nan)
    # Every slot array, NAG's formed lookahead included.
    before = pickle.dumps((params, opt._slots, opt.k))
    with pytest.raises(NumericError, match="layer 3 at iteration 2"):
        opt.step(params, grads)
    assert pickle.dumps((params, opt._slots, opt.k)) == before


@pytest.mark.parametrize("layerwise", [False, True])
@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_infinite_rate_aborts_before_any_update(kind, layerwise):
    params, grad_seq = _layered_problem(14, 4)
    # t(3) = 1e10 * 1e300 overflows to inf; t(0..2) are finite.
    schedule = LrSchedule(kind="step-decay", t0=1e10, milestones=(3,), factor=1e300)
    opt = make_optimizer(kind, schedule, layerwise=layerwise)
    for grads in grad_seq[:3]:
        opt.step(params, grads)
    before = pickle.dumps((params, state_copy(opt), opt.k))
    with pytest.raises(NumericError, match="effective rate in layer 0 at iteration 3"):
        opt.step(params, grad_seq[3])
    assert pickle.dumps((params, state_copy(opt), opt.k)) == before


def test_multiplier_that_overflows_a_finite_rate_aborts():
    params = single_layer([1.0], [2.0])
    opt = SGD(1.5e308, layerwise=True)  # finite t(k); m(1.0) = 1.69 overflows it
    with pytest.raises(NumericError, match="effective rate in layer 0 at iteration 0") as err:
        opt.step(params, single_layer([1.0], [1e300]))
    assert err.value.layer_norms == [(0, 1.0)]
    assert pickle.dumps((params, opt.k, opt._slots)) == pickle.dumps(
        (single_layer([1.0], [2.0]), 0, {}))


class TestLookaheadSwap:
    def _stepped(self):
        params, grad_seq = _layered_problem(15, 2)
        opt = NAG(0.05, mu=0.8, layerwise=True)
        for grads in grad_seq:
            opt.descend(params, lambda: (None, grads))
        return opt, params

    def test_originals_back_in_place_and_untouched(self):
        opt, params = self._stepped()
        objects = [list(group) for group in params]
        values = pickle.dumps(params)
        with opt.at_lookahead(params):
            for group, originals in zip(params, objects):
                for p, orig in zip(group, originals):
                    assert p is not orig
                    assert not np.array_equal(p, orig)
            # x itself never holds the shifted value.
            assert pickle.dumps(objects) == values
        assert all(p is orig for group, originals in zip(params, objects)
                   for p, orig in zip(group, originals))
        assert pickle.dumps(params) == values

    def test_originals_back_after_exception_in_body(self):
        opt, params = self._stepped()
        objects = [list(group) for group in params]
        values = pickle.dumps(params)
        with pytest.raises(NumericError):
            with opt.at_lookahead(params):
                raise NumericError("loss went non-finite")
        assert all(p is orig for group, originals in zip(params, objects)
                   for p, orig in zip(group, originals))
        assert pickle.dumps(params) == values


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_overflowing_norm_of_finite_gradient_gives_multiplier_one(kind):
    params = [[np.zeros(3)], [np.zeros(2)]]
    grads = [[np.full(3, 1e200)], [np.array([1e-3, 0.0])]]
    opt = make_optimizer(kind, 1e-210, layerwise=True)
    stats = opt.step(params, grads)
    assert stats[0][2] == 1.0
    assert stats[1][2] == layer_multiplier(group_norm(grads[1]))
    assert np.all(np.isfinite(params[0][0]))


@LAYERWISE
@pytest.mark.parametrize("kind", ["sgd", "nag"])
def test_step_reports_norm_multiplier_and_rate_of_every_group(kind, layerwise):
    schedule = LrSchedule(kind="inverse-time", t0=0.05, gamma=0.5, p=1.0)
    params, grad_seq = _layered_problem(16, 3)
    opt = make_optimizer(kind, schedule, layerwise=layerwise)
    for k, grads in enumerate(grad_seq):
        want = []
        for li, gg in enumerate(grads):
            if not gg:
                continue
            norm = group_norm(gg)
            m = layer_multiplier(norm) if layerwise else 1.0
            want.append((li, norm, m, schedule.rate(k) * m))
        assert opt.descend(params, lambda: (None, grads))[1] == want
    # Layer 1 holds no parameters and reports no group.
    assert [s[0] for s in opt.step(params, grad_seq[0])] == [0, 2, 3]


KINDS = ["sgd", "momentum", "nag", "adagrad"]


class TestDescend:
    """Optimizer.descend: one value_grad call, at the point the rule takes
    its gradient at, then one step on the gradients it returned."""

    def _stepped(self, kind):
        params, grad_seq = _layered_problem(18, 3)
        opt = make_optimizer(kind, 0.05, layerwise=True)
        for grads in grad_seq[:2]:
            opt.descend(params, lambda: (None, grads))
        return opt, params, grad_seq[2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_grad_runs_once_and_the_step_follows(self, kind):
        opt, params, grads = self._stepped(kind)
        twin, twin_params, _ = self._stepped(kind)
        calls = []

        def value_grad():
            calls.append(opt.k)
            return 2.5, grads
        value, stats = opt.descend(params, value_grad)
        assert calls == [2]
        assert value == 2.5
        assert stats == twin.step(twin_params, grads)
        assert pickle.dumps((params, state_copy(opt), opt.k)) == pickle.dumps(
            (twin_params, state_copy(twin), twin.k))

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_grad_sees_the_lookahead_under_nag_else_the_parameters(self, kind):
        opt, params, grads = self._stepped(kind)
        objects = [list(group) for group in params]
        values = _nested_copy(params)
        velocity = state_copy(opt)
        seen = []
        opt.descend(params, _recording(params, grads, seen))
        (point,) = seen
        for li, (group, originals, before) in enumerate(zip(point, objects, values)):
            for ti, ((p, copy), orig, x) in enumerate(zip(group, originals, before)):
                if kind == "nag":
                    assert p is not orig
                    assert np.array_equal(copy, opt.mu * velocity[(li, ti)] + x)
                else:
                    assert p is orig
                    assert np.array_equal(copy, x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_grad_that_raises_changes_nothing(self, kind):
        opt, params, _ = self._stepped(kind)
        objects = [list(group) for group in params]
        before = pickle.dumps((params, state_copy(opt), opt.k))

        def value_grad():
            raise NumericError("loss went non-finite")
        with pytest.raises(NumericError, match="loss went non-finite"):
            opt.descend(params, value_grad)
        assert pickle.dumps((params, state_copy(opt), opt.k)) == before
        assert all(p is orig for group, originals in zip(params, objects)
                   for p, orig in zip(group, originals))


class TestMultiplierOnASigmoidNet:
    """The paper's mechanism on a deep sigmoid net: gradients vanish toward
    the input (Glorot & Bengio 2010), so the layer-wise multiplier
    1 + ln(1 + 1/||g_l||) lifts the shallow layers' rates the most."""

    @pytest.mark.parametrize("seed", range(5))
    def test_multiplier_falls_with_depth(self, seed):
        ds = data.synth_blobs(seed, 2000, 4, 16, 3.0)
        net = nn.build_mlp((1, 1, 16), [32] * 5, 4, activation="sigmoid", seed=seed)
        stream = data.BatchStream(ds, 64, seed)
        opt = make_optimizer("sgd", 2.0, layerwise=True)
        m = np.array([[m for _, _, m, _ in stats]
                      for _, _, stats in train_steps(net, opt, stream, 4, 20)])
        assert m.shape == (20, 6)
        # Per step the middle layers may swap; the first and last never do.
        assert np.all(m[:, 0] > m[:, -1])
        assert np.all(np.diff(m.mean(axis=0)) <= 0)
