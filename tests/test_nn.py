import numpy as np
import pytest

from layerlr import harness, nn, rng
from layerlr.errors import DimensionError, NumericError, UsageError
from layerlr.nn import (
    Conv2D,
    Dense,
    MaxPool2D,
    Network,
    ReLU,
    Sigmoid,
    Tanh,
    build_cifar_quick,
    build_lenet,
    build_mlp,
    finite_difference_gradient,
    gradient_check,
    network_from_spec,
)
from layerlr.optim import make_optimizer


def batch_last(x):
    """(N, C, H, W) -> the (C, H, W, N) layout Conv2D and MaxPool2D take."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def batch_first(x):
    return np.moveaxis(x, -1, 0)


def identity_dense(n):
    layer = Dense(n, n)
    layer.params[0][...] = np.eye(n)
    layer.params[1][...] = 0.0
    return layer


class TestForward:
    def test_interpolating_linear_fit_has_zero_loss(self):
        # W solves the 2x2 system exactly (entries are powers of two).
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([[1.0], [2.0]])
        layer = Dense(2, 1)
        layer.params[0][...] = np.array([[0.5], [0.5]])
        layer.params[1][...] = 0.0
        net = Network((2,), [layer], loss="squared-error")
        loss, _ = net.forward(a, b)
        assert loss == 0.0

    def test_sigmoid_of_zero_is_half(self):
        net = Network((3,), [identity_dense(3), Sigmoid()], loss="squared-error")
        out = net.predict(np.zeros((2, 3)))
        assert np.array_equal(out, np.full((2, 3), 0.5))

    def test_two_layer_relu_matches_direct_composition(self):
        gen = rng.generator(12, 0)
        net = build_mlp((5,), [7], 3, activation="relu", seed=12, loss="squared-error")
        x = gen.standard_normal((6, 5))
        targets = gen.standard_normal((6, 3))
        w1, b1 = net.layers[0].params
        w2, b2 = net.layers[2].params
        hidden = np.maximum(x @ w1 + b1, 0.0)
        out = hidden @ w2 + b2
        expected = float(np.sum((out - targets) ** 2)) / 6
        loss, _ = net.forward(x, targets)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_input_shape_mismatch(self):
        net = build_mlp((4,), [], 2)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((3, 5)), np.zeros(3, dtype=np.int64))

    def test_non_finite_loss_raises(self):
        net = build_mlp((2,), [], 2, loss="squared-error")
        net.layers[0].params[0][...] = np.inf
        with pytest.raises(NumericError):
            net.forward(np.ones((1, 2)), np.zeros((1, 2)))

    def test_incompatible_layers_rejected_at_construction(self):
        with pytest.raises(DimensionError):
            Network((4,), [Dense(4, 3), Dense(5, 2)])

    def test_targets_arity_checked(self):
        net = build_mlp((4,), [], 3)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 4)), np.zeros(5, dtype=np.int64))


class TestBackward:
    def test_zero_error_fit_gives_zero_gradients(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([[1.0], [2.0]])
        layer = Dense(2, 1)
        layer.params[0][...] = np.array([[0.5], [0.5]])
        layer.params[1][...] = 0.0
        net = Network((2,), [layer], loss="squared-error")
        loss, cache = net.forward(a, b)
        grads = net.backward(cache)
        assert np.array_equal(grads[0][0], np.zeros((2, 1)))
        assert np.array_equal(grads[0][1], np.zeros(1))

    def test_linear_layer_matches_hand_formula(self):
        gen = rng.generator(15, 0)
        a = gen.standard_normal((5, 3))
        b = gen.standard_normal((5, 2))
        layer = Dense(3, 2, init_gen=gen)
        net = Network((3,), [layer], loss="squared-error")
        loss, cache = net.forward(a, b)
        grads = net.backward(cache)
        w, bias = layer.params
        r = a @ w + bias - b
        assert np.allclose(grads[0][0], 2.0 * a.T @ r / 5, rtol=1e-12)
        assert np.allclose(grads[0][1], 2.0 * r.sum(axis=0) / 5, rtol=1e-12)

    def test_random_small_net_matches_finite_differences(self):
        gen = rng.generator(16, 0)
        net = build_mlp((4,), [6, 5], 3, activation="tanh", seed=16)
        x = gen.standard_normal((7, 4))
        y = gen.integers(0, 3, size=7)
        loss, cache = net.forward(x, y)
        analytic = net.backward(cache)
        numeric = finite_difference_gradient(net, x, y, eps=1e-6)
        for li in range(len(net.layers)):
            for a, n in zip(analytic[li], numeric[li]):
                rel = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
                assert rel.max() < 1e-5

    @pytest.mark.parametrize("build,shape", [
        (lambda: build_mlp((5,), [7, 4], 3, activation="relu", seed=18), (5,)),
        (lambda: Network((5,), [Tanh(), Dense(5, 3, init_gen=rng.generator(18, 1))]), (5,)),
        (lambda: build_lenet(18), (1, 28, 28)),
        (lambda: build_cifar_quick(18), (3, 32, 32)),
    ])
    def test_param_grads_match_full_chain(self, build, shape):
        # Network.backward skips layer 0's input gradient; every parameter
        # gradient must equal the one from running every layer's backward.
        gen = rng.generator(18, 2)
        net = build()
        x = gen.standard_normal((3,) + shape)
        y = gen.integers(0, 3, size=3)
        _, cache = net.forward(x, y)
        got = net.backward(cache)
        grad = cache.loss_grad
        for i in range(len(net.layers) - 1, -1, -1):
            # The first Dense takes (N, C, H, W); the pool below it gives and
            # takes (C, H, W, N).
            if grad.ndim == 4 and isinstance(net.layers[i + 1], Dense):
                grad = batch_last(grad)
            grad, expected = net.layers[i].backward(grad, cache.layer_caches[i])
            assert len(got[i]) == len(expected)
            for g, e in zip(got[i], expected):
                assert np.array_equal(g, e), i

    @pytest.mark.parametrize("build,shape", [
        (build_lenet, (1, 28, 28)),
        (build_cifar_quick, (3, 32, 32)),
    ])
    @pytest.mark.parametrize("whole_image", [True, False])
    def test_nan_image_stops_at_loss_check(self, build, shape, whole_image):
        net = build(seed=0)
        x = rng.generator(19, 0).standard_normal((2,) + shape)
        if whole_image:
            x[0] = np.nan
        else:
            x[1, 0, 5, 7] = np.nan
        with pytest.raises(NumericError, match="non-finite loss"):
            net.forward(x, np.array([1, 2]))

    def test_stale_cache_rejected(self):
        net = build_mlp((3,), [], 2)
        x = np.zeros((2, 3))
        y = np.zeros(2, dtype=np.int64)
        _, cache1 = net.forward(x, y)
        net.forward(x, y)
        with pytest.raises(UsageError, match="stale"):
            net.backward(cache1)

    def test_missing_or_foreign_cache_rejected(self):
        net = build_mlp((3,), [], 2)
        other = build_mlp((3,), [], 2)
        x = np.zeros((2, 3))
        y = np.zeros(2, dtype=np.int64)
        _, cache = other.forward(x, y)
        with pytest.raises(UsageError):
            net.backward(cache)
        with pytest.raises(UsageError):
            net.backward(None)


class TestFiniteDifference:
    def test_quadratic_is_exact_to_second_order(self):
        # Single weight, squared-error: the loss is quadratic in w, so the
        # central difference equals the derivative up to rounding.
        layer = Dense(1, 1)
        layer.params[0][...] = 1.5
        layer.params[1][...] = 0.0
        net = Network((1,), [layer], loss="squared-error")
        x = np.array([[2.0]])
        t = np.array([[1.0]])
        fd = finite_difference_gradient(net, x, t, eps=1e-6)
        exact = 2.0 * 2.0 * (1.5 * 2.0 - 1.0)  # 2 x (w x - b)
        assert fd[0][0][0, 0] == pytest.approx(exact, abs=1e-9)

    def test_dead_relu_path_gives_zero_gradient(self):
        # Negative pre-activation everywhere: loss is locally constant in
        # the first layer's parameters.
        layer1 = Dense(1, 1)
        layer1.params[0][...] = 1.0
        layer1.params[1][...] = 0.0
        layer2 = Dense(1, 1)
        net = Network((1,), [layer1, ReLU(), layer2], loss="squared-error")
        x = np.array([[-5.0]])
        t = np.array([[0.3]])
        fd = finite_difference_gradient(net, x, t)
        assert fd[0][0][0, 0] == 0.0
        assert fd[0][1][0] == 0.0

    def test_rejects_nonpositive_eps(self):
        net = build_mlp((2,), [], 2)
        with pytest.raises(ValueError):
            finite_difference_gradient(net, np.zeros((1, 2)),
                                       np.zeros(1, dtype=np.int64), eps=0.0)

    def test_gradient_check_rejects_nonpositive_eps(self):
        net = build_mlp((2,), [], 2)
        with pytest.raises(ValueError, match="eps must be positive"):
            gradient_check(net, np.zeros((1, 2)), np.zeros(1, dtype=np.int64), eps=0.0)

    def test_failed_loss_evaluation_leaves_parameters_unchanged(self):
        net = build_mlp((3,), [4], 2, activation="tanh", seed=3)
        before = [p.tobytes() for group in net.parameters() for p in group]
        with pytest.raises(DimensionError):
            finite_difference_gradient(net, np.zeros((2, 5)), np.zeros(2, dtype=np.int64))
        assert [p.tobytes() for group in net.parameters() for p in group] == before

        # gradient_check's unperturbed passes succeed; its first perturbed
        # evaluation raises.
        gen = rng.generator(3, 1)
        x, y = gen.standard_normal((2, 3)), np.array([0, 1])
        base = net.loss_and_pattern
        calls = []

        def failing(inputs, targets):
            calls.append(1)
            if len(calls) > 1:
                raise NumericError("loss went non-finite")
            return base(inputs, targets)

        net.loss_and_pattern = failing
        with pytest.raises(NumericError):
            gradient_check(net, x, y)
        assert len(calls) == 2
        assert [p.tobytes() for group in net.parameters() for p in group] == before

    def test_nan_gradient_fails_the_check(self, monkeypatch):
        backward = Dense.backward

        def nan_grads(self, *args, **kwargs):
            grad_in, grads = backward(self, *args, **kwargs)
            return grad_in, [np.full_like(g, np.nan) for g in grads]

        monkeypatch.setattr(Dense, "backward", nan_grads)
        gen = rng.generator(4, 0)
        net = network_from_spec("mlp:4", (3,), 2, seed=4)
        result = gradient_check(net, gen.standard_normal((2, 3)), np.array([0, 1]))
        assert result.checked == 26
        assert result.max_rel_err == np.inf
        assert result.worst == (0, 0, 0)

    def test_agrees_with_backward_on_two_layer_net(self):
        gen = rng.generator(17, 0)
        net = build_mlp((3,), [4], 2, activation="sigmoid", seed=17)
        x = gen.standard_normal((5, 3))
        y = gen.integers(0, 2, size=5)
        result = gradient_check(net, x, y)
        assert result.max_rel_err < 1e-5
        assert result.skipped == 0


class TestGradientCheckInvariant:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_mlps_twenty_seeds(self, seed):
        gen = rng.generator(seed, 0xABCD)
        widths = [int(gen.integers(3, 9)) for _ in range(int(gen.integers(1, 3)))]
        activation = ["relu", "sigmoid", "tanh"][seed % 3]
        dim = int(gen.integers(2, 6))
        classes = int(gen.integers(2, 5))
        net = build_mlp((dim,), widths, classes, activation=activation, seed=seed)
        x = gen.standard_normal((4, dim))
        y = gen.integers(0, classes, size=4)
        result = gradient_check(net, x, y, eps=1e-6)
        assert result.max_rel_err < 1e-5

    @pytest.mark.parametrize("build,shape", [
        (build_lenet, (1, 28, 28)),
        (build_cifar_quick, (3, 32, 32)),
    ])
    def test_conv_architectures_sampled(self, build, shape):
        gen = rng.generator(1, 0xABCE)
        net = build(seed=1)
        x = gen.standard_normal((2,) + shape)
        y = gen.integers(0, 10, size=2)
        result = gradient_check(net, x, y, samples_per_tensor=8, sample_gen=gen)
        assert result.max_rel_err < 1e-5

    def test_kink_coordinates_are_skipped(self):
        # Pre-activation exactly at the ReLU kink: +/-eps flips the mask.
        layer1 = Dense(1, 1)
        layer1.params[0][...] = 0.0
        layer1.params[1][...] = 0.0
        layer2 = Dense(1, 1)
        layer2.params[0][...] = 2.0
        layer2.params[1][...] = 0.0
        net = Network((1,), [layer1, ReLU(), layer2], loss="squared-error")
        result = gradient_check(net, np.array([[1.0]]), np.array([[1.0]]))
        assert result.skipped >= 1
        assert result.max_rel_err < 1e-5


class TestConvAndPoolOracles:
    def brute_conv(self, x, w, b, stride, pad):
        n, c, h, wd = x.shape
        oc, _, k, _ = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (h + 2 * pad - k) // stride + 1
        ow = (wd + 2 * pad - k) // stride + 1
        out = np.zeros((n, oc, oh, ow))
        for i in range(n):
            for o in range(oc):
                for r in range(oh):
                    for q in range(ow):
                        patch = xp[i, :, r * stride:r * stride + k, q * stride:q * stride + k]
                        out[i, o, r, q] = np.sum(patch * w[o]) + b[o]
        return out

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    def test_conv_matches_brute_force(self, stride, pad):
        gen = rng.generator(23, stride * 10 + pad)
        layer = Conv2D(3, 4, 3, stride=stride, padding=pad, init_gen=gen)
        x = gen.standard_normal((2, 3, 8, 9))
        out = batch_first(layer.forward(batch_last(x))[0])
        expected = self.brute_conv(x, layer.params[0], layer.params[1], stride, pad)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-12)

    def brute_conv_grads(self, x, w, grad_out, stride, pad):
        """Input, weight and bias gradients of brute_conv, one window at a
        time, with the padding cropped off the input gradient."""
        n, c, h, wd = x.shape
        oc, _, k, _ = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        gxp, gw = np.zeros_like(xp), np.zeros_like(w)
        for i in range(n):
            for o in range(oc):
                for r in range(grad_out.shape[2]):
                    for q in range(grad_out.shape[3]):
                        win = np.s_[i, :, r * stride:r * stride + k, q * stride:q * stride + k]
                        gxp[win] += grad_out[i, o, r, q] * w[o]
                        gw[o] += grad_out[i, o, r, q] * xp[win]
        return gxp[:, :, pad:pad + h, pad:pad + wd], gw, grad_out.sum(axis=(0, 2, 3))

    @pytest.mark.parametrize("k,stride,pad,h,w", [
        pytest.param(3, 1, 0, 8, 9, id="valid"),
        pytest.param(5, 1, 2, 8, 9, id="same"),
        pytest.param(3, 1, 2, 5, 6, id="output-wider"),
        pytest.param(1, 1, 0, 8, 9, id="1x1"),
        pytest.param(3, 2, 1, 8, 9, id="stride-2"),
        pytest.param(3, 3, 0, 8, 8, id="trailing-rows-unread"),
        pytest.param(5, 2, 2, 7, 9, id="stride-2-pad-2"),
        # Windows that reach past both edges, and windows all in the padding.
        pytest.param(5, 1, 2, 1, 1, id="kernel-over-input"),
        pytest.param(3, 1, 3, 4, 4, id="pad-over-kernel"),
    ])
    def test_conv_gradients_match_brute_force(self, k, stride, pad, h, w):
        gen = rng.generator(24, k * 1000 + stride * 100 + pad * 10 + h)
        layer = Conv2D(3, 4, k, stride=stride, padding=pad, init_gen=gen)
        x = gen.standard_normal((2, 3, h, w))
        out, cache = layer.forward(batch_last(x))
        grad_out = gen.standard_normal(out.shape)
        gx, (gw, gb) = layer.backward(grad_out, cache)
        want_gx, want_gw, want_gb = self.brute_conv_grads(
            x, layer.params[0], batch_first(grad_out), stride, pad)
        assert np.allclose(batch_first(gx), want_gx, rtol=0, atol=1e-12)
        assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)
        assert np.allclose(gb, want_gb, rtol=0, atol=1e-12)

    def brute_pool(self, x, k, s):
        # A window starts every s elements inside the input, up to the first
        # one that reaches its end; each is clipped to the input.
        h, w = x.shape[2:]
        rows = [r for r in range(0, h, s) if r == 0 or r - s + k < h]
        cols = [q for q in range(0, w, s) if q == 0 or q - s + k < w]
        out = np.empty(x.shape[:2] + (len(rows), len(cols)))
        for i, r in enumerate(rows):
            for j, q in enumerate(cols):
                out[:, :, i, j] = x[:, :, r:r + k, q:q + k].max(axis=(2, 3))
        return out

    @pytest.mark.parametrize("k,s,hw", [(2, 2, 24), (3, 2, 32), (3, 2, 8), (3, 3, 10),
                                        (2, 4, 11)])
    def test_pool_matches_brute_force(self, k, s, hw):
        gen = rng.generator(29, k * 100 + s * 10 + hw)
        layer = MaxPool2D(k, s)
        x = gen.standard_normal((3, 2, hw, hw))
        out, _ = layer.forward(batch_last(x))
        assert np.array_equal(batch_first(out), self.brute_pool(x, k, s))

    def tied_inputs(self, hw, seed):
        """Inputs rich in ties: ReLU'd noise (all-zero windows), constant
        planes, and a channel of small integers."""
        gen = rng.generator(33, seed)
        x = np.maximum(gen.standard_normal((2, 4, hw, hw)) - 0.5, 0.0)
        x[:, 1] = 0.0
        x[:, 2] = -1.5
        x[:, 3] = gen.integers(-2, 2, size=(2, hw, hw))
        return x

    def first_max_winners(self, x, k, s):
        """Row-major offset r*k + q of the first maximum in each window,
        with windows clipped to the input (no padding involved)."""
        n, c, h, w = x.shape
        oh = max(-(-(h - k) // s) + 1, 1)
        ow = max(-(-(w - k) // s) + 1, 1)
        winners = np.empty((n, c, oh, ow), dtype=np.int64)
        for i in range(n):
            for ch in range(c):
                for r in range(oh):
                    for q in range(ow):
                        patch = x[i, ch, r * s:min(r * s + k, h), q * s:min(q * s + k, w)]
                        pr, pq = np.unravel_index(np.argmax(patch), patch.shape)
                        winners[i, ch, r, q] = pr * k + pq
        return winners

    @pytest.mark.parametrize("k,s,hw", [(2, 2, 8), (3, 2, 8), (3, 2, 10), (3, 3, 10)])
    def test_pool_winners_are_first_maximum(self, k, s, hw):
        # Even sizes under 3x3/2 take the clipped edge windows.
        layer = MaxPool2D(k, s)
        x = self.tied_inputs(hw, k * 100 + s * 10 + hw)
        _, cache = layer.forward(batch_last(x))
        assert np.array_equal(batch_first(layer.pattern(cache)),
                              self.first_max_winners(x, k, s))

    def test_nan_window_has_no_winner(self):
        k, s = 3, 2
        layer = MaxPool2D(k, s)
        x = self.tied_inputs(8, 7)
        want = self.first_max_winners(x, k, s)
        x[1, 3, 4, 4] = np.nan  # in windows (1, 1), (1, 2), (2, 1) and (2, 2)
        out, cache = layer.forward(batch_last(x))
        got = batch_first(layer.pattern(cache))
        nan = np.isnan(batch_first(out))
        assert nan.sum() == 4 and nan[1, 3].sum() == 4
        assert np.all(got[nan] == k * k)
        assert np.array_equal(got[~nan], want[~nan])

    @pytest.mark.parametrize("k,s,hw", [(2, 2, 8), (3, 2, 8), (3, 3, 10)])
    def test_pool_backward_routes_to_first_maximum(self, k, s, hw):
        gen = rng.generator(34, k * 100 + s * 10 + hw)
        layer = MaxPool2D(k, s)
        x = self.tied_inputs(hw, hw)
        out, cache = layer.forward(batch_last(x))
        grad_out = gen.standard_normal(out.shape)
        gx, param_grads = layer.backward(grad_out, cache)
        gx, grad_out = batch_first(gx), batch_first(grad_out)
        winners = self.first_max_winners(x, k, s)
        expected = np.zeros_like(x)
        n, c, oh, ow = grad_out.shape
        for i in range(n):
            for ch in range(c):
                for r in range(oh):
                    for q in range(ow):
                        pr, pq = divmod(int(winners[i, ch, r, q]), k)
                        expected[i, ch, r * s + pr, q * s + pq] += grad_out[i, ch, r, q]
        assert param_grads == []
        assert np.array_equal(gx, expected)

    def test_relu_signed_zeros_are_inactive(self):
        layer = ReLU()
        x = np.array([[0.0, -0.0, 1e-300, -1e-300]])
        out, cache = layer.forward(x)
        assert np.array_equal(out, [[0.0, 0.0, 1e-300, 0.0]])
        assert np.array_equal(layer.pattern(cache), [[False, False, True, False]])
        gx, _ = layer.backward(np.full_like(x, 3.0), cache)
        assert np.array_equal(gx, [[0.0, 0.0, 3.0, 0.0]])

    def test_conv_gradients_match_finite_differences(self):
        gen = rng.generator(31, 0)
        layers = [Conv2D(2, 3, 3, padding=1, init_gen=gen), Tanh(),
                  MaxPool2D(2, 2), Dense(3 * 3 * 3, 2, init_gen=gen)]
        net = Network((2, 6, 6), layers)
        x = gen.standard_normal((3, 2, 6, 6))
        y = gen.integers(0, 2, size=3)
        result = gradient_check(net, x, y)
        assert result.max_rel_err < 1e-5

    def test_spatial_output_gradients_match_finite_differences(self):
        # The batch axis moves last after the Tanh and first again before
        # the loss, and backward mirrors both moves.
        gen = rng.generator(35, 0)
        layers = [Tanh(), Conv2D(2, 2, 3, padding=1, init_gen=gen), MaxPool2D(2, 2)]
        net = Network((2, 6, 6), layers, loss="squared-error")
        x = gen.standard_normal((3, 2, 6, 6))
        targets = gen.standard_normal((3, 2, 3, 3))
        assert net.predict(x).shape == targets.shape
        result = gradient_check(net, x, targets)
        assert result.checked == 38
        assert result.max_rel_err < 1e-5

    def test_strided_conv_gradients_match_finite_differences(self):
        # Stride 2, padded (layer 0: weight gradient only) and unpadded:
        # the second conv's input gradient lands on rows and columns s apart.
        gen = rng.generator(32, 0)
        layers = [Conv2D(2, 3, 3, stride=2, padding=1, init_gen=gen), Tanh(),
                  Conv2D(3, 2, 3, stride=2, init_gen=gen), Tanh(),
                  Dense(2 * 2 * 2, 2, init_gen=gen)]
        net = Network((2, 9, 9), layers)
        x = gen.standard_normal((3, 2, 9, 9))
        y = gen.integers(0, 2, size=3)
        result = gradient_check(net, x, y)
        assert result.max_rel_err < 1e-5


class TestInvariants:
    @pytest.mark.parametrize("loss", ["squared-error", "softmax-cross-entropy"])
    def test_loss_is_permutation_covariant(self, loss):
        gen = rng.generator(41, 0)
        net = build_mlp((5,), [6], 3, activation="tanh", seed=41, loss=loss)
        x = gen.standard_normal((16, 5))
        if loss == "squared-error":
            t = gen.standard_normal((16, 3))
        else:
            t = gen.integers(0, 3, size=16)
        perm = gen.permutation(16)
        base, _ = net.forward(x, t)
        shuffled, _ = net.forward(x[perm], t[perm])
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestArchitectures:
    def test_lenet_output_width_is_ten(self):
        net = build_lenet(0)
        assert net.output_shape == (10,)

    def test_lenet_zero_image_uniform_softmax(self):
        net = build_lenet(0)
        x = np.zeros((1, 1, 28, 28))
        loss, _ = net.forward(x, np.array([3]))
        assert np.isfinite(loss)
        # Equal logits: the softmax is uniform.
        logits = net.predict(x)
        assert logits.shape == (1, 10)
        assert np.all(logits == logits[0, 0])

    def test_lenet_parameter_count_golden(self):
        # 20x1x5x5+20, 50x20x5x5+50, 800x500+500, 500x10+10
        assert build_lenet(0).parameter_count() == 431080

    def test_cifar_quick_feature_maps(self):
        net = build_cifar_quick(0)
        convs = [l for l in net.layers if isinstance(l, Conv2D)]
        assert [c.out_channels for c in convs] == [32, 32, 64]
        assert all(c.kernel_size == 5 for c in convs)

    def test_cifar_quick_accepts_cifar_shape(self):
        net = build_cifar_quick(0)
        loss, _ = net.forward(np.zeros((2, 3, 32, 32)), np.array([0, 9]))
        assert np.isfinite(loss)

    def test_cifar_quick_layer_shapes_golden(self):
        net = build_cifar_quick(0)
        assert net.layer_shapes == [
            (3, 32, 32), (32, 32, 32), (32, 32, 32), (32, 16, 16),
            (32, 16, 16), (32, 16, 16), (32, 8, 8),
            (64, 8, 8), (64, 8, 8), (64, 4, 4), (10,),
        ]
        assert net.parameter_count() == 89578

    def test_init_is_deterministic_per_seed(self):
        a = build_lenet(7)
        b = build_lenet(7)
        c = build_lenet(8)
        assert np.array_equal(a.layers[0].params[0], b.layers[0].params[0])
        assert not np.array_equal(a.layers[0].params[0], c.layers[0].params[0])


class TestNetworkFromSpec:
    def test_mlp_spec_parses_widths(self):
        net = network_from_spec("mlp:8-4", (6,), 3, seed=0)
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [(d.in_features, d.out_features) for d in dense] == [(6, 8), (8, 4), (4, 3)]

    def test_bare_mlp_is_linear_classifier(self):
        net = network_from_spec("mlp:", (6,), 3, seed=0)
        assert len(net.layers) == 1

    def test_factory_names(self):
        assert network_from_spec("lenet", (1, 28, 28), 10).parameter_count() == 431080
        assert network_from_spec("cifar-quick", (3, 32, 32), 10).parameter_count() == 89578

    def test_wrong_input_shape_for_factory(self):
        with pytest.raises(DimensionError):
            network_from_spec("lenet", (3, 32, 32), 10)

    def test_unknown_spec(self):
        with pytest.raises(DimensionError):
            network_from_spec("alexnet", (3, 224, 224), 1000)

    def test_unknown_activation(self):
        with pytest.raises(DimensionError):
            network_from_spec("mlp:4", (6,), 3, activation="gelu")

    @pytest.mark.parametrize("spec", ["mlp:abc", "mlp:8-x", "mlp:8-0", "mlp:1.5"])
    def test_bad_mlp_width(self, spec):
        with pytest.raises(DimensionError, match="positive integers"):
            network_from_spec(spec, (6,), 3)


def _relu_mlp(seed=4):
    return build_mlp((1, 28, 28), [40, 24], 10, activation="relu", seed=seed)


WORKSPACE_NETS = {"lenet": build_lenet, "cifar-quick": build_cifar_quick, "relu-mlp": _relu_mlp}


def _nag_run(build, floor, monkeypatch):
    """Losses, eval predictions and final parameters of 4 layer-wise NAG
    steps at batches 64, 64, 33, 64 and an eval whose last batch is short,
    with every array of at least `floor` bytes in a layer's buffers."""
    monkeypatch.setattr(nn, "BUFFER_FLOOR_BYTES", floor)
    net = build(seed=4)
    gen = rng.generator(4, 0x5ACE)
    opt = make_optimizer("nag", 0.01, layerwise=True)
    params = net.parameters()
    losses = []
    for batch in (64, 64, 33, 64):
        x = gen.standard_normal((batch,) + net.input_shape)
        y = gen.integers(0, 10, size=batch)
        with opt.at_lookahead(params):
            loss, cache = net.forward(x, y)
            grads = net.backward(cache)
        losses.append(loss)
        opt.step(params, grads)
    x = gen.standard_normal((97,) + net.input_shape)
    preds = [net.predict(x[:64]), net.predict(x[64:])]
    return losses, preds, [p.copy() for group in params for p in group]


def _buffers(net):
    """Every layer's reuse buffers, keyed (layer index, name)."""
    return {(i, name): buf for i, layer in enumerate(net.layers)
            for name, buf in layer._buffers.items()}


class TestWorkspace:
    """The reuse buffers that Conv2D, MaxPool2D and ReLU own."""

    @pytest.mark.parametrize("arch", sorted(WORKSPACE_NETS))
    def test_workspace_path_is_bitwise_the_allocating_path(self, arch, monkeypatch):
        # Floor 0 puts every array of conv, pool and ReLU in the buffers;
        # an unreachable floor leaves every one to numpy.
        build = WORKSPACE_NETS[arch]
        got = _nag_run(build, 0, monkeypatch)
        want = _nag_run(build, 1 << 62, monkeypatch)
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        for g, w in zip(got[1] + got[2], want[1] + want[2]):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_any_pass_makes_the_forward_cache_stale(self):
        net = build_mlp((3,), [4], 2, activation="relu")
        x = np.ones((2, 3))
        y = np.zeros(2, dtype=np.int64)
        for later_pass in (lambda: net.predict(x), lambda: net.loss_value(x, y),
                           lambda: net.loss_and_pattern(x, y)):
            _, cache = net.forward(x, y)
            later_pass()
            with pytest.raises(UsageError, match="stale"):
                net.backward(cache)

    def test_predictions_and_patterns_survive_later_passes(self, monkeypatch):
        monkeypatch.setattr(nn, "BUFFER_FLOOR_BYTES", 0)
        gen = rng.generator(5, 0)
        # A ReLU output layer, so the prediction itself sits in a buffer.
        net = Network((1, 8, 8), [Conv2D(1, 2, 3, padding=1, init_gen=gen), ReLU(),
                                  MaxPool2D(3, 2), Dense(2 * 4 * 4, 6, init_gen=gen),
                                  ReLU()], loss="squared-error")
        x1, x2 = gen.standard_normal((2, 3, 1, 8, 8))
        targets = np.zeros((3, 6))
        pred = net.predict(x1)
        _, pattern = net.loss_and_pattern(x1, targets)
        pred_before = pred.copy()
        pattern_before = [None if p is None else p.copy() for p in pattern]
        net.predict(x2)
        net.loss_and_pattern(x2, targets)
        _, cache = net.forward(x2, targets)
        net.backward(cache)
        assert np.array_equal(pred, pred_before)
        assert not np.array_equal(net.predict(x2), pred)
        assert all(b is None if p is None else np.array_equal(p, b)
                   for p, b in zip(pattern, pattern_before))
        assert any(p is not None and p.dtype == bool for p in pattern)

    def test_second_step_at_a_fixed_shape_maps_no_new_buffer(self, monkeypatch):
        monkeypatch.setattr(nn, "BUFFER_FLOOR_BYTES", 0)
        net = build_cifar_quick(seed=6)
        gen = rng.generator(6, 0)
        x = gen.standard_normal((3,) + net.input_shape)
        y = gen.integers(0, 10, size=3)

        def step_and_eval():
            _, cache = net.forward(x, y)
            net.backward(cache)
            net.predict(x[:2])

        step_and_eval()
        buffers = _buffers(net)
        assert buffers
        step_and_eval()
        assert _buffers(net).keys() == buffers.keys()
        assert all(_buffers(net)[k] is b for k, b in buffers.items())

    def test_floor_keeps_lenet_out_and_cifar_quick_in(self):
        # Lenet at batch 64 makes no array as large as the floor; cifar-quick
        # holds its three im2col matrices (conv1, conv2, conv3), the conv1
        # and relu1 outputs and the relu1 and pool1 input gradients.
        cifar_quick = {(0, "col"), (0, "out"), (1, "out"), (1, "grad_in"),
                       (2, "grad_in"), (3, "col"), (6, "col")}
        for build, held in ((build_lenet, set()), (build_cifar_quick, cifar_quick)):
            net = build(seed=0)
            x = np.zeros((64,) + net.input_shape)
            _, cache = net.forward(x, np.zeros(64, dtype=np.int64))
            net.backward(cache)
            net.predict(x)
            assert _buffers(net).keys() == held

    def test_a_layer_called_directly_reuses_its_buffers(self, monkeypatch):
        monkeypatch.setattr(nn, "BUFFER_FLOOR_BYTES", 0)
        relu = ReLU()
        first, _ = relu.forward(np.ones((2, 3)))
        second, _ = relu.forward(-np.ones((2, 3)))
        assert np.shares_memory(first, second)
        assert np.all(first == 0.0)

    def test_a_layer_instance_sits_at_one_position(self):
        relu = ReLU()
        with pytest.raises(DimensionError, match="twice"):
            Network((3,), [Dense(3, 3), relu, Dense(3, 3), relu])

    def test_run_experiment_drops_the_buffers(self, monkeypatch):
        monkeypatch.setattr(nn, "BUFFER_FLOOR_BYTES", 0)
        nets = []
        build = harness.build_network

        def keeping(*args):
            nets.append(build(*args))
            return nets[-1]

        monkeypatch.setattr(harness, "build_network", keeping)
        cfg = harness.ExperimentConfig(dataset="blobs", blobs_n=64, blobs_test_n=40,
                                       arch="mlp:8", arch_activation="relu",
                                       batch_size=16, max_iterations=3)
        harness.run_experiment(cfg, 0)
        assert _buffers(nets[0]) == {}
        nets[0].predict(np.zeros((2,) + nets[0].input_shape))
        assert _buffers(nets[0])
