import math
from contextlib import contextmanager

import numpy as np
import pytest

from layerlr import optim, rng
from layerlr.errors import DimensionError, NumericError
from layerlr.landscapes import Landscape, MonkeySaddle, QuadraticSaddle, run_escape_trial
from layerlr.optim import SGD, group_norm, layer_multiplier, make_optimizer


class DeepLinearChain(Landscape):
    """f(w_1..w_d) = (w_1*...*w_d - 1)^2 / 2, each w_i its own layer.

    With |w_i| < 1 the per-layer gradients shrink multiplicatively with
    depth, modeling vanishing gradients. The origin is a saddle: a strict
    one at d = 2, where the Hessian's eigenvalues are +1 and -1, and from
    d = 3 on a degenerate one of order d, where the Hessian vanishes and f
    falls from 1/2 as -w_1*...*w_d. A start with every w_i = u0 small sits
    near it. The tests take only its gradients and long runs from it, so it
    defines no escape distance.
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


def closed_form_escape(y0, t, radius=1.0):
    return math.ceil(math.log(radius / y0) / math.log1p(t))


class TestGradients:
    def test_quadratic_saddle_at_origin(self):
        value, grads = QuadraticSaddle().value_grad([0.0, 0.0])
        assert value == 0.0
        assert grads[0][0] == 0.0 and grads[1][0] == 0.0

    def test_quadratic_saddle_at_point(self):
        value, grads = QuadraticSaddle().value_grad([1.0, 2.0])
        assert value == pytest.approx(0.5 - 2.0)
        assert grads[0][0] == 1.0
        assert grads[1][0] == -2.0

    def test_chain_depth_three_hand_differentiated(self):
        value, grads = DeepLinearChain(3).value_grad([1.0, 1.0, 2.0])
        assert value == 0.5
        assert [g[0] for g in grads] == [2.0, 2.0, 1.0]

    def test_chain_depth_two_product_rule(self):
        a, b = 0.3, -1.7
        _, grads = DeepLinearChain(2).value_grad([a, b])
        assert grads[0][0] == pytest.approx(b * (a * b - 1.0), rel=1e-14)
        assert grads[1][0] == pytest.approx(a * (a * b - 1.0), rel=1e-14)

    def test_monkey_saddle_gradient(self):
        x, y = 0.7, -0.4
        value, grads = MonkeySaddle().value_grad([x, y])
        assert value == pytest.approx(x ** 3 - 3 * x * y * y, rel=1e-14)
        assert grads[0][0] == pytest.approx(3 * x * x - 3 * y * y, rel=1e-14)
        assert grads[1][0] == pytest.approx(-6 * x * y, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            QuadraticSaddle().value_grad([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("landscape", [
        QuadraticSaddle(), MonkeySaddle(), DeepLinearChain(4), DeepLinearChain(7),
    ])
    def test_analytic_matches_central_differences(self, landscape):
        gen = rng.generator(landscape.n_layers, 0x1A4D)
        eps = 1e-6
        for _ in range(100):
            point = list(gen.uniform(-2.0, 2.0, size=landscape.n_layers))
            _, grads = landscape.value_grad(point)
            for i in range(landscape.n_layers):
                up = list(point)
                down = list(point)
                up[i] += eps
                down[i] -= eps
                fd = (landscape.value_grad(up)[0] - landscape.value_grad(down)[0]) / (2 * eps)
                scale = max(1.0, abs(fd), abs(grads[i][0]))
                assert abs(grads[i][0] - fd) / scale < 1e-8

    def test_chain_depth_validated(self):
        with pytest.raises(DimensionError):
            DeepLinearChain(1)


class TestEscapeTrials:
    def test_plain_sgd_matches_closed_form_exactly(self):
        for t in (0.1, 0.01):
            for y0 in (1e-1, 1e-2, 1e-3, 1e-4):
                iters = run_escape_trial(SGD(t), QuadraticSaddle(), [0.0, y0],
                                         max_iter=10 ** 5)
                assert iters == closed_form_escape(y0, t)

    def test_layerwise_escapes_no_slower_and_strictly_faster_when_small(self):
        for t in (0.1, 0.01):
            for y0 in (1e-1, 1e-2, 1e-3, 1e-4):
                plain = run_escape_trial(SGD(t), QuadraticSaddle(), [0.0, y0],
                                         max_iter=10 ** 5)
                ours = run_escape_trial(SGD(t, layerwise=True), QuadraticSaddle(),
                                        [0.0, y0], max_iter=10 ** 5)
                assert ours <= plain
                if y0 <= 1e-3:
                    assert ours < plain

    def test_origin_start_never_escapes(self):
        iters = run_escape_trial(SGD(0.1), QuadraticSaddle(), [0.0, 0.0], max_iter=500)
        assert iters == 500

    def test_origin_never_escapes_any_optimizer(self):
        for kind in ("momentum", "nag", "adagrad"):
            opt = make_optimizer(kind, 0.1, layerwise=True)
            assert run_escape_trial(opt, QuadraticSaddle(), [0.0, 0.0], max_iter=50) == 50

    def test_start_outside_radius_rejected(self):
        with pytest.raises(ValueError):
            run_escape_trial(SGD(0.1), QuadraticSaddle(), [0.0, 2.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_raises_numeric_error_with_trail(self):
        chain = DeepLinearChain(2)
        chain.escape_distance = lambda point: 0.0  # never escapes: force long runs
        with pytest.raises(NumericError) as err:
            run_escape_trial(SGD(10.0), chain, [0.9, 0.9], max_iter=10 ** 4)
        assert "diverged" in str(err.value)
        assert "trailing iterates: [[" in str(err.value)
        # The gradient abort keeps the optimizer's norm row, not the iterates.
        row = err.value.layer_norms
        assert row[-1][0] == 0 and not np.isfinite(row[-1][1])

    def test_momentum_also_escapes(self):
        plain = run_escape_trial(SGD(0.01), QuadraticSaddle(), [0.0, 1e-3], max_iter=10 ** 5)
        mom = run_escape_trial(make_optimizer("momentum", 0.01, mu=0.9),
                               QuadraticSaddle(), [0.0, 1e-3], max_iter=10 ** 5)
        assert mom < plain


# The multiplier's norm floor, written out rather than read from
# optim.EPSILON_NORM: the paper's formula has no floor, and the oracle must
# not follow a change to the library's.
NORM_FLOOR = 1e-12
# Starts above, at and below the floor, down to 1e-300.
ORACLE_STARTS = (1e-1, 1e-3, 1e-6, 1e-12, 1e-13, 1e-20, 1e-100, 1e-300)


def oracle_escape(y0, t, layerwise, radius=1.0):
    """SGD's escape count on the quadratic saddle from (0, y0), in Python
    floats from the paper's formula. The y layer's gradient is -y, so each
    step is y <- y - (-y) * (t * m), with m = 1 + ln(1 + 1/max(|y|, floor))
    layer-wise and 1 otherwise; x stays at 0."""
    y, k = y0, 0
    while abs(y) <= radius:
        m = 1.0 + math.log1p(1.0 / max(abs(y), NORM_FLOOR)) if layerwise else 1.0
        y = y - (-y) * (t * m)
        k += 1
    return k


class TestEscapeOracle:
    # Plain SGD at t = 0.01 takes 23k and 69k iterations from 1e-100 and
    # 1e-300, so its cells stop at 1e-6.
    @pytest.mark.parametrize("layerwise, t, y0", [
        *[(True, t, y0) for t in (0.1, 0.01) for y0 in ORACLE_STARTS],
        *[(False, 0.1, y0) for y0 in ORACLE_STARTS],
        *[(False, 0.01, y0) for y0 in ORACLE_STARTS[:3]],
    ])
    def test_sgd_escape_equals_the_oracle(self, layerwise, t, y0):
        iters = run_escape_trial(SGD(t, layerwise=layerwise), QuadraticSaddle(), [0.0, y0])
        assert iters == oracle_escape(y0, t, layerwise)

    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_the_laws_readme_states(self, t):
        for y0 in ORACLE_STARTS:
            assert oracle_escape(y0, t, False) == closed_form_escape(y0, t)
        # Below the floor m stops at 1 + ln(1 + 1e12), so escape is linear
        # in decades again.
        per_decade = (oracle_escape(1e-300, t, True) - oracle_escape(1e-100, t, True)) / 200
        m_floor = 1.0 + math.log1p(1.0 / NORM_FLOOR)
        assert per_decade == pytest.approx(math.log(10) / math.log1p(m_floor * t), rel=0.01)


KINDS = ["sgd", "momentum", "nag", "adagrad"]


def _trial(kind):
    return run_escape_trial(make_optimizer(kind, 0.1, layerwise=True), QuadraticSaddle(),
                            [0.0, 1e-2], max_iter=1000)


class TestBenchmarkProbes:
    """The benchmark times a trial by patching the library from outside:
    each patch must see the calls it stands for, and leave the trial as it
    was."""

    def test_value_grad_that_deletes_itself_on_first_call(self):
        landscape = QuadraticSaddle()
        calls = []

        def first(point):
            del landscape.value_grad
            calls.append(point)
            return QuadraticSaddle.value_grad(landscape, point)
        landscape.value_grad = first
        iters = run_escape_trial(SGD(0.1), landscape, [0.0, 1e-2], max_iter=1000)
        assert iters == closed_form_escape(1e-2, 0.1)
        assert calls == [[0.0, 1e-2]]

    @pytest.mark.parametrize("kind", KINDS)
    def test_group_norm_patched_in_optim_runs_once_per_layer_per_step(self, kind, monkeypatch):
        want = _trial(kind)
        calls = []

        def counting(tensors):
            calls.append(len(tensors))
            return group_norm(tensors)
        monkeypatch.setattr(optim, "group_norm", counting)
        assert _trial(kind) == want
        assert calls == [1] * (2 * want)

    def test_lookahead_wrapped_on_the_class_is_entered_once_per_descend(self, monkeypatch):
        want = _trial("nag")
        entered = []
        original = optim.NAG.at_lookahead

        @contextmanager
        def wrapper(self, params):
            entered.append(self.k)
            with original(self, params):
                yield
        monkeypatch.setattr(optim.NAG, "at_lookahead", wrapper)
        assert _trial("nag") == want
        assert entered == list(range(want))

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_wrapped_on_the_class_sees_every_step(self, kind, monkeypatch):
        want = _trial(kind)
        seen = []
        original = optim.Optimizer.step

        def wrapper(self, params, grads):
            seen.append(self.k)
            return original(self, params, grads)
        monkeypatch.setattr(optim.Optimizer, "step", wrapper)
        assert _trial(kind) == want
        assert seen == list(range(want))


def chain_gradient_norms(depth, point):
    """Per-layer gradient norms of the deep linear chain at `point`."""
    _, grads = DeepLinearChain(depth).value_grad(point)
    return [group_norm([g]) for g in grads]


class TestChainProfiles:
    def test_symmetric_point_has_equal_gradients(self):
        norms = chain_gradient_norms(6, [1.0] * 6)
        assert norms == [0.0] * 6  # product is exactly 1, residual 0
        norms = chain_gradient_norms(6, [0.9] * 6)
        assert len(set(norms)) == 1

    def test_vanishing_gradient_multipliers_golden(self):
        # All w_i = 0.5, d = 10: every layer shares one tiny gradient norm,
        # so the rate multiplier is large and identical across layers.
        norms = chain_gradient_norms(10, [0.5] * 10)
        mults = [layer_multiplier(n) for n in norms]
        assert norms[0] == pytest.approx(0.0019512176513671875, rel=1e-12)
        assert mults[0] == pytest.approx(7.24125098118618, rel=1e-12)
        assert max(mults) / min(mults) == 1.0
        assert all(m > 1.0 for m in mults)

    def test_heterogeneous_point_spreads_multipliers_golden(self):
        point = [0.5 + 0.04 * i for i in range(10)]
        mults = [layer_multiplier(n) for n in chain_gradient_norms(10, point)]
        assert max(mults) / min(mults) == pytest.approx(1.1209384660759816, rel=1e-10)
        assert max(mults) / min(mults) > 1.0

    def test_layer_rate_ordering_follows_gradient_norms(self):
        # Sub-unit weights: smaller gradient norm -> (weakly) larger rate.
        point = [0.4, 0.55, 0.7, 0.85, 0.95]
        norms = chain_gradient_norms(5, point)
        mults = [layer_multiplier(n) for n in norms]
        order = np.argsort(norms)
        sorted_mults = [mults[i] for i in order]
        assert all(a >= b for a, b in zip(sorted_mults, sorted_mults[1:]))

    def test_multipliers_rank_layers_like_their_weights_along_a_trajectory(self):
        # g_i = r * prod(w) / w_i, so a larger positive weight has a smaller
        # gradient norm and gets a larger multiplier, at every step.
        chain = DeepLinearChain(10)
        params = chain.make_params([0.5 + 0.04 * i for i in range(10)])
        opt = make_optimizer("sgd", 0.05, layerwise=True)

        def value_grad():
            value, grads = chain.value_grad([float(group[0][0]) for group in params])
            return value, [[g] for g in grads]
        losses = []
        for _ in range(200):
            weights = [float(group[0][0]) for group in params]
            loss, stats = opt.descend(params, value_grad)
            mults = np.array([m for _, _, m, _ in stats])
            assert np.all(np.diff(mults[np.argsort(weights)]) > 0)
            assert np.all(mults > 1.0)
            losses.append(loss)
        assert losses[-1] < losses[0]
