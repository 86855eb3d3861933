import math

import numpy as np
import pytest

from layerlr import rng
from layerlr.errors import DimensionError, NumericError
from layerlr.landscapes import (
    DeepLinearChain,
    MonkeySaddle,
    QuadraticSaddle,
    chain_gradient_profile,
    run_escape_trial,
)
from layerlr.optim import SGD, layer_multiplier, make_optimizer


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
                                         escape_radius=1.0, max_iter=10 ** 5)
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
            run_escape_trial(SGD(0.1), QuadraticSaddle(), [0.0, 2.0], escape_radius=1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_raises_numeric_error_with_trail(self):
        chain = DeepLinearChain(2)
        chain.escape_distance = lambda point: abs(point[0])  # force long runs
        with pytest.raises(NumericError) as err:
            run_escape_trial(SGD(10.0), chain, [0.9, 0.9],
                             escape_radius=1e300, max_iter=10 ** 4)
        assert "diverged" in str(err.value)
        assert "trailing iterates: [[" in str(err.value)
        # The gradient abort keeps the optimizer's norm row, not the iterates.
        (row,) = err.value.layer_norms
        assert row[-1][0] == (0,) and not np.isfinite(row[-1][1])

    def test_momentum_also_escapes(self):
        plain = run_escape_trial(SGD(0.01), QuadraticSaddle(), [0.0, 1e-3], max_iter=10 ** 5)
        mom = run_escape_trial(make_optimizer("momentum", 0.01, mu=0.9),
                               QuadraticSaddle(), [0.0, 1e-3], max_iter=10 ** 5)
        assert mom < plain


class TestChainProfiles:
    def test_symmetric_point_has_equal_gradients(self):
        norms = chain_gradient_profile(6, [1.0] * 6)
        assert norms == [0.0] * 6  # product is exactly 1, residual 0
        norms = chain_gradient_profile(6, [0.9] * 6)
        assert len(set(norms)) == 1

    def test_vanishing_gradient_multipliers_golden(self):
        # All w_i = 0.5, d = 10: every layer shares one tiny gradient norm,
        # so the rate multiplier is large and identical across layers.
        norms = chain_gradient_profile(10, [0.5] * 10)
        mults = [layer_multiplier(n) for n in norms]
        assert norms[0] == pytest.approx(0.0019512176513671875, rel=1e-12)
        assert mults[0] == pytest.approx(7.24125098118618, rel=1e-12)
        assert max(mults) / min(mults) == 1.0
        assert all(m > 1.0 for m in mults)

    def test_heterogeneous_point_spreads_multipliers_golden(self):
        point = [0.5 + 0.04 * i for i in range(10)]
        mults = [layer_multiplier(n) for n in chain_gradient_profile(10, point)]
        assert max(mults) / min(mults) == pytest.approx(1.1209384660759816, rel=1e-10)
        assert max(mults) / min(mults) > 1.0

    def test_layer_rate_ordering_follows_gradient_norms(self):
        # Sub-unit weights: smaller gradient norm -> (weakly) larger rate.
        point = [0.4, 0.55, 0.7, 0.85, 0.95]
        norms = chain_gradient_profile(5, point)
        mults = [layer_multiplier(n) for n in norms]
        order = np.argsort(norms)
        sorted_mults = [mults[i] for i in order]
        assert all(a >= b for a, b in zip(sorted_mults, sorted_mults[1:]))
