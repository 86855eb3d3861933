import re
import tracemalloc
import weakref

import numpy as np
import pytest

from layerlr import nn, rng
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
    """(N, C, H, W) -> the (H, C, W, N) layout Conv2D and MaxPool2D take."""
    return np.ascontiguousarray(x.transpose(2, 1, 3, 0))


def batch_first(x):
    """(H, C, W, N) -> (N, C, H, W)."""
    return x.transpose(3, 1, 0, 2)


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

    def test_value_grad_is_forward_then_backward(self):
        net = build_mlp((4,), [6], 3, activation="relu", seed=17)
        gen = rng.generator(17, 0)
        x, y = gen.standard_normal((5, 4)), gen.integers(0, 3, size=5)
        loss, cache = net.forward(x, y)
        want = [g.tobytes() for group in net.backward(cache) for g in group]
        got, grads = net.value_grad(x, y)
        assert got == loss
        assert [g.tobytes() for group in grads for g in group] == want

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
        # Backward consumes the cache, so keep its layer caches for the chain.
        layer_caches = list(cache.layer_caches)
        got = net.backward(cache)
        grad = cache.loss_grad
        for i in range(len(net.layers) - 1, -1, -1):
            # The first Dense takes (N, C, H, W); the pool below it gives and
            # takes (H, C, W, N).
            if grad.ndim == 4 and isinstance(net.layers[i + 1], Dense):
                grad = batch_last(grad)
            grad, expected = net.layers[i].backward(grad, layer_caches[i])
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

    def test_an_earlier_cache_backpropagates_after_a_second_forward(self):
        net = build_mlp((3,), [4], 2, activation="relu", seed=1)
        gen = rng.generator(1, 0)
        x1, x2 = gen.standard_normal((2, 5, 3))
        y = gen.integers(0, 2, size=5)
        _, cache1 = net.forward(x1, y)
        _, cache2 = net.forward(x2, y)
        got = [g for group in net.backward(cache1) for g in group]
        # The reference: a second forward of the same batch, run after both.
        want = [g for group in net.backward(net.forward(x1, y)[1]) for g in group]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        other = [g for group in net.backward(cache2) for g in group]
        assert not all(np.array_equal(g, w) for g, w in zip(other, want))

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

    def test_a_consumed_cache_is_refused(self):
        net = build_mlp((3,), [4], 2, activation="relu", seed=2)
        x, y = np.ones((2, 3)), np.array([0, 1])
        _, cache = net.forward(x, y)
        net.backward(cache)
        with pytest.raises(UsageError, match="backward consumes its cache: run forward again"):
            net.backward(cache)

    def test_a_cache_whose_backward_raised_is_refused(self, monkeypatch):
        net = build_mlp((3,), [4], 2, activation="relu", seed=2)
        _, cache = net.forward(np.ones((2, 3)), np.array([0, 1]))

        def fail(grad_out, layer_cache):
            raise RuntimeError("layer backward failed")

        with monkeypatch.context() as patch:
            patch.setattr(net.layers[1], "backward", fail)
            with pytest.raises(RuntimeError, match="layer backward failed"):
                net.backward(cache)
        with pytest.raises(UsageError, match="backward consumes its cache"):
            net.backward(cache)

    @pytest.mark.parametrize("through", ["backward", "value_grad"])
    def test_each_layer_cache_is_freed_after_its_backward(self, through):
        # Autograd frees saved tensors as backward goes; so does backward
        # here. When pool1's backward runs, conv2's padded input (layer 3's
        # cache) is already gone, and so is every array cached above pool1.
        net = build_cifar_quick(seed=3)
        gen = rng.generator(3, 0)
        x, y = gen.standard_normal((2,) + net.input_shape), np.array([4, 7])
        assert isinstance(net.layers[1], MaxPool2D) and isinstance(net.layers[3], Conv2D)
        refs = {}
        forward = net.forward

        def keep_refs(inputs, targets):
            loss, cache = forward(inputs, targets)
            for i, layer_cache in enumerate(cache.layer_caches):
                parts = layer_cache if isinstance(layer_cache, tuple) else (layer_cache,)
                refs[i] = [weakref.ref(a) for a in parts if isinstance(a, np.ndarray)]
            return loss, cache

        alive_at_pool1 = {}
        pool1 = net.layers[1]
        pool1_backward = pool1.backward

        def check_then_backward(grad_out, layer_cache):
            alive_at_pool1["layers"] = [i for i in range(2, len(net.layers))
                                        for ref in refs[i] if ref() is not None]
            return pool1_backward(grad_out, layer_cache)

        net.forward = keep_refs
        pool1.backward = check_then_backward
        if through == "backward":
            _, cache = net.forward(x, y)
            net.backward(cache)
        else:
            net.value_grad(x, y)
        assert len(refs[3]) == 1  # conv2's padded input is watched
        assert alive_at_pool1 == {"layers": []}


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

        # gradient_check's unperturbed pass succeeds; its first perturbed
        # evaluation raises.
        gen = rng.generator(3, 1)
        x, y = gen.standard_normal((2, 3)), np.array([0, 1])
        base = net._pass
        calls = []

        def failing(inputs, need_cache):
            calls.append(1)
            if len(calls) > 1:
                raise NumericError("loss went non-finite")
            return base(inputs, need_cache)

        net._pass = failing
        with pytest.raises(NumericError):
            gradient_check(net, x, y)
        assert len(calls) == 2
        assert [p.tobytes() for group in net.parameters() for p in group] == before

    def test_gradient_check_takes_its_base_patterns_from_forward(self, monkeypatch):
        # One caching pass for forward and backward, whose caches give the
        # unperturbed patterns, then two per coordinate.
        net = build_lenet(seed=2)
        calls = []
        forward = net.layers[0].forward

        def counting(x, need_cache=True):
            calls.append(need_cache)
            return forward(x, need_cache=need_cache)

        monkeypatch.setattr(net.layers[0], "forward", counting)
        gen = rng.generator(2, 0)
        result = gradient_check(net, gen.standard_normal((2,) + net.input_shape),
                                gen.integers(0, 10, size=2), samples_per_tensor=5,
                                sample_gen=gen)
        assert result.checked + result.skipped == 40
        assert calls == [True] * (1 + 2 * 40)

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


# (kernel, pad, height, width) of the conv oracle tests.
CONV_GEOMETRIES = [
    pytest.param(3, 0, 8, 9, id="valid"),
    pytest.param(5, 2, 8, 9, id="same"),
    pytest.param(3, 2, 5, 6, id="output-wider"),
    pytest.param(1, 0, 8, 9, id="1x1"),
    # Windows that reach past both edges, and windows all in the padding.
    pytest.param(5, 2, 1, 1, id="kernel-over-input"),
    pytest.param(3, 3, 4, 4, id="pad-over-kernel"),
]


def pool_cases(*geometries):
    """(kernel, stride, size) pool geometries for five-channel inputs, each
    taken in four groupings of output rows: all rows in one group (id: the
    geometry alone), two groups of which the last is one row (ragged), one
    row a group, and a budget of one channel of one input row, less than an
    output row, of which a group still takes one whole row (channel). Under
    3x3/2 windows overlap every group boundary."""
    return [pytest.param(*g, group, id="-".join(map(str, g)) + suffix)
            for g in geometries
            for group, suffix in (("all", ""), ("ragged", "-ragged"), ("row", "-row"),
                                  ("channel", "-channel"))]


class TestConvAndPoolOracles:
    def brute_conv(self, x, w, b, pad):
        n, c, h, wd = x.shape
        oc, _, k, _ = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = h + 2 * pad - k + 1
        ow = wd + 2 * pad - k + 1
        out = np.zeros((n, oc, oh, ow))
        for i in range(n):
            for o in range(oc):
                for r in range(oh):
                    for q in range(ow):
                        patch = xp[i, :, r:r + k, q:q + k]
                        out[i, o, r, q] = np.sum(patch * w[o]) + b[o]
        return out

    @pytest.mark.parametrize("pad", [0, 2])
    def test_conv_matches_brute_force(self, pad):
        gen = rng.generator(23, 10 + pad)
        layer = Conv2D(3, 4, 3, padding=pad, init_gen=gen)
        x = gen.standard_normal((2, 3, 8, 9))
        out = batch_first(layer.forward(batch_last(x))[0])
        expected = self.brute_conv(x, layer.params[0], layer.params[1], pad)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-12)

    def brute_conv_grads(self, x, w, grad_out, pad):
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
                        win = np.s_[i, :, r:r + k, q:q + k]
                        gxp[win] += grad_out[i, o, r, q] * w[o]
                        gw[o] += grad_out[i, o, r, q] * xp[win]
        return gxp[:, :, pad:pad + h, pad:pad + wd], gw, grad_out.sum(axis=(0, 2, 3))

    @pytest.mark.parametrize("k,pad,h,w", CONV_GEOMETRIES)
    def test_conv_gradients_match_brute_force(self, k, pad, h, w):
        gen = rng.generator(24, k * 1000 + 100 + pad * 10 + h)
        layer = Conv2D(3, 4, k, padding=pad, init_gen=gen)
        x = gen.standard_normal((2, 3, h, w))
        out, cache = layer.forward(batch_last(x))
        grad_out = gen.standard_normal(out.shape)
        gx, (gw, gb) = layer.backward(grad_out, cache)
        want_gx, want_gw, want_gb = self.brute_conv_grads(
            x, layer.params[0], batch_first(grad_out), pad)
        assert np.allclose(batch_first(gx), want_gx, rtol=0, atol=1e-12)
        assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)
        assert np.allclose(gb, want_gb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 2])
    def test_conv_takes_strided_and_broadcast_arrays(self, pad):
        # Every other image of a batch, whose rows are not unit-stride, and
        # a broadcast output gradient give the bits of their copies.
        gen = rng.generator(39, pad)
        layer = Conv2D(3, 4, 3, padding=pad, init_gen=gen)
        x = batch_last(gen.standard_normal((4, 3, 8, 9)))[..., ::2]
        out, cache = layer.forward(x)
        want, want_cache = layer.forward(x.copy())
        assert out.tobytes() == want.tobytes()
        row = gen.standard_normal(out.shape[:3] + (1,))
        gx, grads = layer.backward(np.broadcast_to(row, out.shape), cache)
        want_gx, want_grads = layer.backward(np.repeat(row, out.shape[3], axis=3), want_cache)
        for got, expected in zip([gx] + grads, [want_gx] + want_grads):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k,pad,h,w", CONV_GEOMETRIES)
    def test_one_channel_conv_of_one_image_matches_brute_force(self, k, pad, h, w):
        # One input channel makes each window k rows deep, and one image
        # makes each of its rows ow elements long: the narrowest GEMMs.
        gen = rng.generator(25, k * 1000 + 100 + pad * 10 + h)
        layer = Conv2D(1, 2, k, padding=pad, init_gen=gen)
        x = gen.standard_normal((1, 1, h, w))
        out, cache = layer.forward(batch_last(x))
        assert np.allclose(batch_first(out),
                           self.brute_conv(x, layer.params[0], layer.params[1], pad),
                           rtol=0, atol=1e-12)
        grad_out = gen.standard_normal(out.shape)
        gx, (gw, gb) = layer.backward(grad_out, cache)
        want_gx, want_gw, want_gb = self.brute_conv_grads(
            x, layer.params[0], batch_first(grad_out), pad)
        assert np.allclose(batch_first(gx), want_gx, rtol=0, atol=1e-12)
        assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)
        assert np.allclose(gb, want_gb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k,pad,h,w,c", [
        pytest.param(*g.values, c, id=g.id + suffix)
        for c, suffix in ((3, ""), (1, "-one-channel")) for g in CONV_GEOMETRIES])
    def test_conv_reads_every_window_in_place(self, k, pad, h, w, c, monkeypatch):
        # With c >= 2, forward and the weight gradient make k GEMMs per
        # output row, each on a (k*c, ow*n) window that is a view of the
        # cached padded input. With one channel they make one GEMM per
        # output row each, on the row's k windows copied into one
        # (k*k, ow*n) block, one buffer for every row of a pass. The input
        # gradient adds one GEMM per output row and kernel column that
        # reaches the input, from a view of grad_out into a view of gx.
        gen = rng.generator(26, k * 1000 + 100 + pad * 10 + h)
        layer = Conv2D(c, 4, k, padding=pad, init_gen=gen)
        x = batch_last(gen.standard_normal((2, c, h, w)))
        _, oh, ow = layer.output_shape((c, h, w))
        gemms, matmuls = [], []
        gemm, matmul = nn._gemm, np.matmul

        def recording_gemm(a, b, out, accumulate):
            gemms.append((b, out, accumulate))
            return gemm(a, b, out, accumulate)

        def recording_matmul(a, b, **kwargs):
            matmuls.append(b)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(nn, "_gemm", recording_gemm)
        out, cache = layer.forward(x)
        forward, gemms = gemms, []
        grad_out = gen.standard_normal(out.shape)
        # Only the weight gradient calls np.matmul in backward: the input
        # gradient's GEMMs all add.
        monkeypatch.setattr(nn.np, "matmul", recording_matmul)
        gx, _ = layer.backward(grad_out, cache)
        monkeypatch.undo()
        assert (cache is x) == (pad == 0)
        per_row = 1 if c == 1 else k
        rows = k * c * (k if c == 1 else 1)
        assert [b.shape for b, _, _ in forward] == [(rows, ow * 2)] * (oh * per_row)
        assert [acc for _, _, acc in forward] == [j > 0 for j in range(per_row)] * oh
        assert all(np.shares_memory(o, out) for _, o, _ in forward)
        assert [b.shape for b in matmuls] == [(ow * 2, rows)] * (oh * per_row)
        windows = [b for b, _, _ in forward] + matmuls
        if c == 1:
            assert not any(np.shares_memory(b, cache) for b in windows)
            for first in (0, oh):
                assert all(np.shares_memory(b, windows[first])
                           for b in windows[first:first + oh])
        else:
            assert all(np.shares_memory(b, cache) for b in windows)
        reached = sum(1 for i in range(oh) for dc in range(k)
                      if any(0 <= i + dr - pad < h for dr in range(k))
                      and any(0 <= j + dc - pad < w for j in range(ow)))
        assert len(gemms) == reached
        for b, o, acc in gemms:
            assert acc and np.shares_memory(b, grad_out) and np.shares_memory(o, gx)

    @pytest.mark.parametrize("pad", [0, 2])
    def test_one_channel_conv_matches_per_kernel_column_reference(self, pad):
        # The one-channel path sums each output over (dc, dr) in one GEMM;
        # the reference sums k GEMMs, one per kernel column, on views of the
        # padded input, as every other conv does. The sums differ in order
        # only.
        gen = rng.generator(27, pad)
        k, h, w = 5, 9, 11
        layer = Conv2D(1, 6, k, padding=pad, init_gen=gen)
        layer.params[1] = gen.standard_normal(6)
        x = batch_last(gen.standard_normal((3, 1, h, w)))
        out, cache = layer.forward(x)
        grad_out = gen.standard_normal(out.shape)
        _, (gw, _) = layer.backward(grad_out, cache, need_grad_in=False)

        oh, oc, ow, n = out.shape
        rows = cache.reshape(cache.shape[0], -1)
        wk = layer.params[0][:, 0]
        want = np.zeros((oh, oc, ow * n))
        want_gw = np.zeros((oc, k, k))
        g = grad_out.reshape(oh, oc, ow * n)
        for i in range(oh):
            for dc in range(k):
                win = rows[i:i + k, dc * n:(dc + ow) * n]
                want[i] += wk[:, :, dc] @ win
                want_gw[:, :, dc] += g[i] @ win.T
        want += layer.params[1][:, None]

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel(out.reshape(want.shape), want) <= 1e-12
        assert rel(gw[:, 0], want_gw) <= 1e-12
        net = Network((1, h, w), [layer, Tanh(), Dense(6 * oh * ow, 3, init_gen=gen)])
        result = gradient_check(net, batch_first(x), gen.integers(0, 3, size=3))
        assert result.max_rel_err < 1e-5

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

    @staticmethod
    def set_group_rows(monkeypatch, layer, group, x_shape):
        """Set POOL_GROUP_BYTES so that `layer` takes the output rows of a
        batch-last input of `x_shape` in the pool_cases `group`."""
        h, c, w, n = x_shape
        oh = layer.output_shape((c, h, w))[1]
        if group == "channel":
            monkeypatch.setattr(nn, "POOL_GROUP_BYTES", w * n * 8)
            return
        rows = {"all": oh, "ragged": oh - 1, "row": 1}[group]
        monkeypatch.setattr(nn, "POOL_GROUP_BYTES", rows * layer.stride * c * w * n * 8)

    @pytest.mark.parametrize("k,s,hw,group", pool_cases((2, 2, 24), (3, 2, 32), (3, 2, 8),
                                                        (3, 3, 10), (2, 4, 11)))
    def test_pool_matches_brute_force(self, k, s, hw, group, monkeypatch):
        gen = rng.generator(29, k * 100 + s * 10 + hw)
        layer = MaxPool2D(k, s)
        x = gen.standard_normal((3, 5, hw, hw))
        x[:, 1] = np.round(x[:, 1])  # tied windows
        self.set_group_rows(monkeypatch, layer, group, batch_last(x).shape)
        out, _ = layer.forward(batch_last(x))
        assert np.array_equal(batch_first(out), self.brute_pool(x, k, s))
        bare, cache = layer.forward(batch_last(x), need_cache=False)
        assert cache is None
        assert bare.tobytes() == out.tobytes()

    def tied_inputs(self, hw, seed):
        """Inputs rich in ties: ReLU'd noise (all-zero windows), constant
        planes, and two channels of small integers."""
        gen = rng.generator(33, seed)
        x = np.maximum(gen.standard_normal((2, 5, hw, hw)) - 0.5, 0.0)
        x[:, 1] = 0.0
        x[:, 2] = -1.5
        x[:, 3] = gen.integers(-2, 2, size=(2, hw, hw))
        x[:, 4] = gen.integers(0, 2, size=(2, hw, hw))
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

    @pytest.mark.parametrize("k,s,hw,group", pool_cases((2, 2, 8), (3, 2, 8), (3, 2, 10),
                                                        (3, 3, 10)))
    def test_pool_winners_are_first_maximum(self, k, s, hw, group, monkeypatch):
        # Even sizes under 3x3/2 take the clipped edge windows.
        layer = MaxPool2D(k, s)
        x = self.tied_inputs(hw, k * 100 + s * 10 + hw)
        self.set_group_rows(monkeypatch, layer, group, batch_last(x).shape)
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

    @pytest.mark.parametrize("k,s,hw,group", pool_cases((2, 2, 8), (3, 2, 8), (3, 3, 10)))
    def test_pool_backward_routes_to_first_maximum(self, k, s, hw, group, monkeypatch):
        gen = rng.generator(34, k * 100 + s * 10 + hw)
        layer = MaxPool2D(k, s)
        x = self.tied_inputs(hw, hw)
        self.set_group_rows(monkeypatch, layer, group, batch_last(x).shape)
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

    @pytest.mark.parametrize("layer", [MaxPool2D(2, 2), MaxPool2D(3, 2), MaxPool2D(3, 3),
                                       MaxPool2D(2, 4), ReLU()],
                             ids=["pool-2-2", "pool-3-2", "pool-3-3", "pool-2-4", "relu"])
    def test_forward_without_cache_gives_the_same_output(self, layer):
        # Tied windows, all-zero and constant ones, signed zeros and a NaN
        # window: stopping before the winners or the mask changes no bit.
        x = self.tied_inputs(10, 12)
        x[0, 1, :3] = -0.0
        x[1, 3, 4, 4] = np.nan
        x = batch_last(x)
        out, cache = layer.forward(x, need_cache=False)
        assert cache is None
        assert out.tobytes() == layer.forward(x)[0].tobytes()

    def test_sigmoid_is_bitwise_the_masked_formula(self):
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out
        gen = rng.generator(35, 0)
        edges = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324,
                 709.0, -745.0, 746.0, -746.0, np.nan]
        x = np.concatenate([gen.standard_normal(100000) * 10.0 ** gen.integers(0, 4, 100000),
                            edges])
        out, cache = Sigmoid().forward(x)
        assert cache is out
        assert np.array_equal(out, masked(x), equal_nan=True)
        assert np.array_equal(np.signbit(out[:-1]), np.signbit(masked(x)[:-1]))

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


# (c, oc, k, pad, h, w) of every conv in lenet and cifar-quick.
NET_CONVS = [
    pytest.param(1, 20, 5, 0, 28, 28, id="lenet-conv1"),
    pytest.param(20, 50, 5, 0, 12, 12, id="lenet-conv2"),
    pytest.param(3, 32, 5, 2, 32, 32, id="cifar-conv1"),
    pytest.param(32, 32, 5, 2, 15, 15, id="cifar-conv2"),
    pytest.param(32, 64, 5, 2, 7, 7, id="cifar-conv3"),
]


def parent_form_forward(layer, x):
    """Conv forward as k np.matmul calls per output row, each after the
    first added through a scratch row, then the bias; with one channel, one
    np.matmul on the row's k windows stacked in (dc, dr) order."""
    wt, bias = layer.params
    oc, c, k, _ = wt.shape
    p = layer.padding
    xp = np.pad(x, ((p, p), (0, 0), (p, p), (0, 0)))
    hp, _, wp, n = xp.shape
    oh, ow = hp - k + 1, wp - k + 1
    rows = xp.reshape(hp * c, wp * n)
    out = np.empty((oh, oc, ow * n))
    part = np.empty((oc, ow * n))
    for i in range(oh):
        wins = [rows[i * c:(i + k) * c, dc * n:(dc + ow) * n] for dc in range(k)]
        mats = [wt[:, :, :, dc].transpose(0, 2, 1).reshape(oc, k * c) for dc in range(k)]
        if c == 1:
            wins, mats = [np.concatenate(wins)], [wt[:, 0].transpose(0, 2, 1).reshape(oc, k * k)]
        np.matmul(mats[0], wins[0], out=out[i])
        for mat, win in zip(mats[1:], wins[1:]):
            out[i] += np.matmul(mat, win, out=part)
        out[i] += bias[:, None]
    return out.reshape(oh, oc, ow, n)


class TestConvGemms:
    """Conv GEMMs that add into their output do it inside numpy's OpenBLAS
    (nn._gemm), or, without its dgemm symbol, through numpy."""

    def passes(self, layer, x, grad_out):
        out, cache = layer.forward(x)
        gx, (gw, gb) = layer.backward(grad_out, cache)
        return out, gx, gw, gb

    def check_branches(self, monkeypatch, c, oc, k, pad, h, w, n, seed):
        gen = rng.generator(38, seed)
        layer = Conv2D(c, oc, k, padding=pad, init_gen=gen)
        layer.params[1] = gen.standard_normal(oc)
        x = gen.standard_normal((h, c, w, n))
        _, oh, ow = layer.output_shape((c, h, w))
        grad_out = gen.standard_normal((oh, oc, ow, n))
        blas = self.passes(layer, x, grad_out)
        monkeypatch.setattr(nn, "_DGEMM", None)
        fallback = self.passes(layer, x, grad_out)
        monkeypatch.undo()
        assert blas[0].tobytes() == parent_form_forward(layer, x).tobytes()
        # A one-channel input gradient has single-row GEMMs where only one
        # kernel row reaches the input; numpy's fallback takes those to
        # gemv, which sums in another order.
        single_row = c == 1 and any(min(k, h + pad - i) - max(0, pad - i) == 1
                                    for i in range(oh))
        for name, got, want in zip(("out", "gx", "gw", "gb"), blas, fallback):
            if name == "gx" and single_row:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name
            else:
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("c,oc,k,pad,h,w", NET_CONVS)
    def test_blas_and_fallback_give_the_same_bits_on_the_nets(self, c, oc, k, pad, h, w,
                                                              monkeypatch):
        if nn._DGEMM is None:
            pytest.skip("numpy bundles no OpenBLAS dgemm")
        self.check_branches(monkeypatch, c, oc, k, pad, h, w, 64, oc + h)

    @pytest.mark.parametrize("k,pad,h,w,c", [
        pytest.param(*g.values, c, id=g.id + suffix)
        for c, suffix in ((3, ""), (1, "-one-channel")) for g in CONV_GEOMETRIES])
    def test_blas_and_fallback_give_the_same_bits_at_the_edges(self, k, pad, h, w, c,
                                                               monkeypatch):
        if nn._DGEMM is None:
            pytest.skip("numpy bundles no OpenBLAS dgemm")
        self.check_branches(monkeypatch, c, 4, k, pad, h, w, 2, k * 100 + pad * 10 + h)

    @pytest.mark.parametrize("bad", ["float32", "transposed", "strided", "shapes", "out-shape"])
    def test_gemm_refuses_operands_before_blas(self, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(nn, "_DGEMM", lambda *args: calls.append(args))
        a, b, out = np.ones((3, 4)), np.ones((4, 5)), np.zeros((3, 5))
        if bad == "float32":
            b = b.astype(np.float32)
        elif bad == "transposed":
            b = np.ones((5, 4)).T
        elif bad == "strided":
            b = np.ones((4, 10))[:, ::2]
        elif bad == "shapes":
            a = np.ones((3, 2))
        else:
            out = np.zeros((5, 3))
        with pytest.raises(ValueError):
            nn._gemm(a, b, out, True)
        assert calls == [] and not out.any()
        nn._gemm(np.ones((3, 4)), np.ones((4, 5)), np.zeros((3, 5)), True)
        assert len(calls) == 1


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
        net = build_lenet(0)
        assert sum(p.size for g in net.parameters() for p in g) == 431080

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
            (3, 32, 32), (32, 32, 32), (32, 16, 16), (32, 16, 16),
            (32, 16, 16), (32, 8, 8), (32, 8, 8),
            (64, 8, 8), (64, 4, 4), (64, 4, 4), (10,),
        ]
        assert sum(p.size for g in net.parameters() for p in g) == 89578

    def test_init_is_deterministic_per_seed(self):
        a = build_lenet(7)
        b = build_lenet(7)
        c = build_lenet(8)
        assert np.array_equal(a.layers[0].params[0], b.layers[0].params[0])
        assert not np.array_equal(a.layers[0].params[0], c.layers[0].params[0])


def _cifar_quick_both_orders(seed=3):
    """cifar-quick as built (conv, pool, ReLU) and, from the same seed, the
    same layers in the conv, ReLU, pool order, both with every conv bias
    at -0.05 so that whole pool windows stay below zero."""
    built = build_cifar_quick(seed)
    layers = build_cifar_quick(seed).layers
    relu_first = Network(built.input_shape, [
        layer for i in (0, 3, 6) for layer in (layers[i], layers[i + 2], layers[i + 1])
    ] + layers[9:])
    for net in (built, relu_first):
        for layer in net.layers:
            if isinstance(layer, Conv2D):
                layer.params[1][...] = -0.05
    return built, relu_first


def _tied_batch(seed, n=6):
    """Images of constant 4x4 blocks at three levels, two of them all zero:
    neighbouring conv outputs over a block are equal, so pool windows tie."""
    gen = rng.generator(seed, 0x71E5)
    x = np.kron(gen.integers(-1, 2, size=(n, 3, 8, 8)) * 0.5, np.ones((4, 4)))
    x[:2] = 0.0
    return x, gen.integers(0, 10, size=n)


def _loss_and_grad_bytes(net, x, y):
    loss, grads = net.value_grad(x, y)
    return np.float64(loss).tobytes(), [g.tobytes() for group in grads for g in group]


class TestCifarQuickLayerOrder:
    """Pooling before the ReLU gives the bits the ReLU-then-pool order gives."""

    def test_batch_has_tied_and_non_positive_pool_windows(self):
        net, _ = _cifar_quick_both_orders()
        x, _ = _tied_batch(0)
        out, _ = net.layers[0].forward(batch_last(x))
        windows = np.lib.stride_tricks.sliding_window_view(out, (3, 3), axis=(0, 2))[::2, :, ::2]
        top = windows.max(axis=(-2, -1))
        tied = (windows == top[..., None, None]).sum(axis=(-2, -1)) > 1
        assert (tied & (top > 0)).any() and (tied & (top < 0)).any()

    def test_one_pass_gives_the_same_loss_and_gradients(self):
        built, relu_first = _cifar_quick_both_orders()
        x, y = _tied_batch(0)
        assert _loss_and_grad_bytes(built, x, y) == _loss_and_grad_bytes(relu_first, x, y)

    def test_three_nag_steps_stay_bitwise_equal(self):
        runs = []
        for net in _cifar_quick_both_orders():
            opt = make_optimizer("nag", 0.05, layerwise=True)
            params = net.parameters()
            for step in range(3):
                x, y = _tied_batch(step)
                opt.descend(params, lambda: net.value_grad(x, y))
            runs.append((_loss_and_grad_bytes(net, *_tied_batch(3)),
                         [p.tobytes() for group in params for p in group]))
        assert runs[0] == runs[1]


_CACHELESS_NETS = [
    pytest.param(build_lenet, id="lenet"),
    pytest.param(build_cifar_quick, id="cifar-quick"),
    pytest.param(lambda seed: build_mlp((2, 3, 3), [16, 12], 10, activation="relu", seed=seed),
                 id="mlp-relu"),
]


def _batch_of_8(net, seed):
    gen = rng.generator(seed, 0xCAC)
    # Shifted down so that ReLUs and pool windows see negatives and zeros.
    x = np.maximum(gen.standard_normal((8,) + net.input_shape) - 0.3, 0.0)
    return x, gen.integers(0, 10, size=8)


class TestPassesWithoutCaches:
    """predict and the finite-difference loss ask no layer for a cache, and
    give the bits of a pass that keeps every cache."""

    @pytest.mark.parametrize("build", _CACHELESS_NETS)
    def test_loss_value_is_the_forward_loss(self, build):
        net = build(seed=8)
        x, y = _batch_of_8(net, 1)
        loss, _ = net.forward(x, y)
        fd_loss, patterns = nn._loss_and_patterns(net, x, y, False)
        assert np.float64(fd_loss).tobytes() == np.float64(loss).tobytes()
        assert patterns is None

    @pytest.mark.parametrize("build", _CACHELESS_NETS)
    def test_predict_is_the_logits_of_a_caching_pass(self, build):
        net = build(seed=8)
        x, _ = _batch_of_8(net, 2)
        logits, caches = net._pass(x, True)
        assert len(caches) == len(net.layers)
        assert net.predict(x).tobytes() == logits.tobytes()

    def test_only_passes_that_keep_caches_ask_for_them(self, monkeypatch):
        net = build_cifar_quick(seed=8)
        x, y = _batch_of_8(net, 3)
        asked = []
        for layer in net.layers:
            def forward(a, need_cache=True, _forward=layer.forward):
                asked.append(need_cache)
                return _forward(a, need_cache=need_cache)
            monkeypatch.setattr(layer, "forward", forward)
        calls = {"predict": lambda: net.predict(x),
                 "fd-loss": lambda: nn._loss_and_patterns(net, x, y, False),
                 "forward": lambda: net.forward(x, y),
                 "fd-patterns": lambda: nn._loss_and_patterns(net, x, y, True)}
        for name, call in calls.items():
            asked.clear()
            call()
            assert asked == [name in ("forward", "fd-patterns")] * len(net.layers), name

    def test_finite_difference_gradient_asks_for_no_cache(self, monkeypatch):
        net = build_mlp((3,), [4], 2, activation="relu", seed=8)
        asked = set()
        for layer in net.layers:
            def forward(a, need_cache=True, _forward=layer.forward):
                asked.add(need_cache)
                return _forward(a, need_cache=need_cache)
            monkeypatch.setattr(layer, "forward", forward)
        finite_difference_gradient(net, np.ones((2, 3)), np.array([0, 1]))
        assert asked == {False}


class TestNetworkFromSpec:
    def test_mlp_spec_parses_widths(self):
        net = network_from_spec("mlp:8-4", (6,), 3, seed=0)
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [(d.in_features, d.out_features) for d in dense] == [(6, 8), (8, 4), (4, 3)]

    def test_bare_mlp_is_linear_classifier(self):
        net = network_from_spec("mlp:", (6,), 3, seed=0)
        assert len(net.layers) == 1

    def test_factory_names(self):
        for spec, shape, count in (("lenet", (1, 28, 28), 431080),
                                   ("cifar-quick", (3, 32, 32), 89578)):
            net = network_from_spec(spec, shape, 10)
            assert sum(p.size for g in net.parameters() for p in g) == count

    def test_wrong_input_shape_for_factory(self):
        with pytest.raises(DimensionError):
            network_from_spec("lenet", (3, 32, 32), 10)

    # A fixed net builds its own layers, so a spec that asks for others is
    # refused rather than ignored.
    @pytest.mark.parametrize("spec, shape", [("lenet", (1, 28, 28)), ("cifar-quick", (3, 32, 32))])
    @pytest.mark.parametrize("classes, kwargs, message", [
        (10, dict(loss="squared-error"),
         "trains with softmax-cross-entropy only, got loss 'squared-error'"),
        (10, dict(activation="sigmoid"), "uses relu only, got activation 'sigmoid'"),
        (7, {}, "has 10 classes, got 7"),
    ])
    def test_fixed_net_refuses_another_contract(self, spec, shape, classes, kwargs, message):
        with pytest.raises(DimensionError, match=re.escape(f"architecture {spec!r} {message}")):
            network_from_spec(spec, shape, classes, **kwargs)

    def test_empty_activation_is_the_architectures_own(self):
        assert isinstance(network_from_spec("mlp:4", (6,), 3, activation="").layers[1], Tanh)

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


class TestWorkspace:
    """The arrays a pass leaves: every layer allocates its own on each call,
    so no later pass changes what an earlier one returned."""

    def test_a_forward_cache_survives_later_passes(self):
        net = build_cifar_quick(seed=6)
        gen = rng.generator(6, 0)
        x1, x2 = gen.standard_normal((2, 64) + net.input_shape)
        y1, y2 = gen.integers(0, 10, size=(2, 64))
        _, cache = net.forward(x1, y1)
        net.predict(x2)
        nn._loss_and_patterns(net, x2, y2, False)
        nn._loss_and_patterns(net, x2, y2, True)
        net.forward(x2, y2)
        got = [g.tobytes() for group in net.backward(cache) for g in group]
        # The reference: a second forward of the same batch, after the others.
        _, again = net.forward(x1, y1)
        assert got == [g.tobytes() for group in net.backward(again) for g in group]

    def test_predictions_and_patterns_survive_later_passes(self):
        gen = rng.generator(5, 0)
        # A ReLU output layer, so the prediction itself is a layer's output.
        net = Network((1, 8, 8), [Conv2D(1, 2, 3, padding=1, init_gen=gen), ReLU(),
                                  MaxPool2D(3, 2), Dense(2 * 4 * 4, 6, init_gen=gen),
                                  ReLU()], loss="squared-error")
        x1, x2 = gen.standard_normal((2, 3, 1, 8, 8))
        targets = np.zeros((3, 6))
        pred = net.predict(x1)
        _, pattern = nn._loss_and_patterns(net, x1, targets, True)
        pred_before = pred.copy()
        pattern_before = [None if p is None else p.copy() for p in pattern]
        net.predict(x2)
        nn._loss_and_patterns(net, x2, targets, True)
        _, cache = net.forward(x2, targets)
        net.backward(cache)
        assert np.array_equal(pred, pred_before)
        assert not np.array_equal(net.predict(x2), pred)
        assert all(b is None if p is None else np.array_equal(p, b)
                   for p, b in zip(pattern, pattern_before))
        assert any(p is not None and p.dtype == bool for p in pattern)

    def test_no_conv_cache_is_larger_than_its_padded_input(self):
        # No conv holds its im2col matrix: its cache is its padded input.
        for build in (build_lenet, build_cifar_quick):
            net = build(seed=0)
            x = np.zeros((64,) + net.input_shape)
            _, cache = net.forward(x, np.zeros(64, dtype=np.int64))
            for layer, shape, layer_cache in zip(net.layers, net.layer_shapes,
                                                 cache.layer_caches):
                if isinstance(layer, Conv2D):
                    c, h, w = shape
                    padded = c * (h + 2 * layer.padding) * (w + 2 * layer.padding) * 64 * 8
                    assert layer_cache.nbytes <= padded

    @staticmethod
    def peak_above_live(call):
        """Peak bytes that call() holds above those live before it, as
        tracemalloc counts them; numpy reports its buffers to it."""
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    def test_conv_holds_no_column_block(self):
        # cifar-quick's conv2 at batch 64, where one output row of im2col
        # would be 6.6 MB. Forward holds its padded input and output and a
        # copy of the weights, and no output row of scratch: BLAS adds each
        # GEMM into the row. The weight gradient takes little more than
        # itself, laid out two ways, and the input gradient little more than
        # itself, since its GEMMs add into views of it.
        gen = rng.generator(36, 0)
        layer = Conv2D(32, 32, 5, padding=2, init_gen=gen)
        x = gen.standard_normal((16, 32, 16, 64))
        padded = 20 * 32 * 20 * 64 * 8
        row = 32 * 16 * 64 * 8
        weights = layer.params[0].nbytes
        assert self.peak_above_live(lambda: layer.forward(x)) \
            < padded + x.nbytes + row + weights
        out, cache = layer.forward(x)
        grad_out = gen.standard_normal(out.shape)
        assert self.peak_above_live(
            lambda: layer.backward(grad_out, cache, need_grad_in=False)) < row + 3 * weights
        assert self.peak_above_live(lambda: layer.backward(grad_out, cache)) \
            < x.nbytes + row + 3 * weights

    def test_pool_backward_builds_one_group_of_scatter_index_at_a_time(self):
        # cifar-quick's pool1 at batch 64: a 16.8 MB input gradient. Besides
        # it, a group's int64 index, its gathered winner offsets and the
        # gather's cast of the uint8 winners, each the size of the group's
        # output; a whole-output index adds 4.2 MB to the gradient.
        gen = rng.generator(37, 0)
        layer = MaxPool2D(3, 2)
        x = gen.standard_normal((32, 32, 32, 64))
        out, cache = layer.forward(x)
        grad_out = gen.standard_normal(out.shape)
        rows = max(1, nn.POOL_GROUP_BYTES // (2 * x[0].nbytes))
        group_index = rows * out[0].nbytes
        assert self.peak_above_live(lambda: layer.backward(grad_out, cache)) \
            <= x.nbytes + 3 * group_index

    def test_a_layer_instance_sits_at_one_position(self):
        relu = ReLU()
        with pytest.raises(DimensionError, match="twice"):
            Network((3,), [Dense(3, 3), relu, Dense(3, 3), relu])
