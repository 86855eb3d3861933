"""Layered feed-forward networks with reverse-mode gradients grouped per layer.

Forward passes return an explicit cache object instead of storing state on
the layers, so evaluation passes can never perturb training state. All math
is float64; convolution uses im2col backed by BLAS matmul.

Backward never forms the first layer's input gradient, the gradient with
respect to the data, because nothing reads it. Max-pool ties go to the first
maximum in row-major window order, the element np.argmax would pick.
"""

import numpy as np

from . import rng
from .errors import DimensionError, NumericError, UsageError
from .tensor import concat_flat


def _prod(shape):
    out = 1
    for s in shape:
        out *= int(s)
    return out


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Base layer. `params` holds the parameter tensors (possibly empty);
    optimizers update them in place."""

    kind = "base"

    def __init__(self):
        self.params = []

    def output_shape(self, in_shape):
        """Output shape (excluding batch) for a given input shape; raises
        DimensionError if the input is incompatible."""
        raise NotImplementedError

    def forward(self, x):
        """Return (output, cache)."""
        raise NotImplementedError

    def backward(self, grad_out, cache):
        """Return (grad_in, [grad per param tensor]).

        Network.backward does not call this on a parameterless layer 0, and
        calls a layer 0 with parameters as backward(grad_out, cache,
        need_grad_in=False), which returns None for grad_in.
        """
        raise NotImplementedError

    def pattern(self, cache):
        """Discrete decisions made during forward (ReLU masks, pool winners),
        or None for smooth layers. Used to detect kink crossings."""
        return None


class Dense(Layer):
    """Fully-connected layer; flattens trailing input dimensions."""

    kind = "fully-connected"

    def __init__(self, in_features: int, out_features: int, init_gen=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        r = np.sqrt(6.0 / (in_features + out_features))
        gen = init_gen if init_gen is not None else rng.generator(0, rng.SALT_INIT)
        w = gen.uniform(-r, r, size=(in_features, out_features))
        b = np.zeros(out_features)
        self.params = [w, b]

    def output_shape(self, in_shape):
        if _prod(in_shape) != self.in_features:
            raise DimensionError(
                f"fully-connected layer expects {self.in_features} input features, "
                f"got shape {tuple(in_shape)}"
            )
        return (self.out_features,)

    def forward(self, x):
        n = x.shape[0]
        x2 = x.reshape(n, -1)
        if x2.shape[1] != self.in_features:
            raise DimensionError(
                f"fully-connected layer expects {self.in_features} input features, "
                f"got shape {x.shape[1:]}"
            )
        w, b = self.params
        out = x2 @ w + b
        return out, (x2, x.shape)

    def backward(self, grad_out, cache, need_grad_in=True):
        x2, x_shape = cache
        w, _ = self.params
        grad_w = x2.T @ grad_out
        grad_b = grad_out.sum(axis=0)
        grad_in = (grad_out @ w.T).reshape(x_shape) if need_grad_in else None
        return grad_in, [grad_w, grad_b]


class Conv2D(Layer):
    """2-D convolution (cross-correlation), stride/padding, im2col based."""

    kind = "convolution-2d"

    def __init__(self, in_channels, out_channels, kernel_size,
                 stride=1, padding=0, init_gen=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        r = np.sqrt(6.0 / (fan_in + fan_out))
        gen = init_gen if init_gen is not None else rng.generator(0, rng.SALT_INIT)
        w = gen.uniform(-r, r, size=(out_channels, in_channels, kernel_size, kernel_size))
        b = np.zeros(out_channels)
        self.params = [w, b]

    def _spatial_out(self, h, w):
        k, s, p = self.kernel_size, self.stride, self.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return oh, ow

    def output_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise DimensionError(
                f"conv layer expects ({self.in_channels}, h, w) input, got {tuple(in_shape)}"
            )
        oh, ow = self._spatial_out(in_shape[1], in_shape[2])
        if oh < 1 or ow < 1:
            raise DimensionError(
                f"conv kernel {self.kernel_size} does not fit input {tuple(in_shape)}"
            )
        return (self.out_channels, oh, ow)

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise DimensionError(
                f"conv layer expects {self.in_channels} channels, got {c}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = self._spatial_out(h, w)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        # im2col laid out (c*k*k, n*oh*ow) so the forward product and both
        # backward products are single GEMMs with no large transposes.
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        win = win[:, :, ::s, ::s]                                # (n,c,oh,ow,k,k)
        col2 = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * oh * ow)
        w2 = self.params[0].reshape(self.out_channels, -1)
        out2 = w2 @ col2                                         # (oc, n*L)
        out2 += self.params[1][:, None]
        out = out2.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(out), (col2, (n, c, h, w))

    def backward(self, grad_out, cache, need_grad_in=True):
        col2, (n, c, h, w) = cache
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = self._spatial_out(h, w)
        g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3))
        g2 = g2.reshape(self.out_channels, n * oh * ow)
        grad_w = (g2 @ col2.T).reshape(self.params[0].shape)
        grad_b = g2.sum(axis=1)
        if not need_grad_in:
            return None, [grad_w, grad_b]
        # col2im one kernel offset at a time, into a channel-major buffer:
        # the (c*k*k, n*oh*ow) column gradient is never held whole.
        wt = np.ascontiguousarray(self.params[0].transpose(2, 3, 1, 0))  # (k,k,c,oc)
        hp, wp = h + 2 * p, w + 2 * p
        gxp = np.zeros((c, n, hp, wp))
        for dr in range(k):
            for dc in range(k):
                gxp[:, :, dr:dr + s * oh:s, dc:dc + s * ow:s] += \
                    (wt[dr, dc] @ g2).reshape(c, n, oh, ow)
        gx = gxp[:, :, p:hp - p, p:wp - p] if p else gxp
        return np.ascontiguousarray(gx.transpose(1, 0, 2, 3)), [grad_w, grad_b]


class MaxPool2D(Layer):
    """Max pooling with Caffe-style ceil output sizing; windows that overrun
    the input are clipped to its bounds (implemented by -inf edge padding)."""

    kind = "max-pool-2d"

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def _spatial_out(self, h, w):
        k, s = self.kernel_size, self.stride
        oh = max(-(-(h - k) // s) + 1, 1)
        ow = max(-(-(w - k) // s) + 1, 1)
        return oh, ow

    def output_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"pool layer expects (c, h, w) input, got {tuple(in_shape)}")
        oh, ow = self._spatial_out(in_shape[1], in_shape[2])
        return (in_shape[0], oh, ow)

    def forward(self, x):
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        hp, wp = (oh - 1) * s + k, (ow - 1) * s + k
        if hp > h or wp > w:
            xp = np.pad(x, ((0, 0), (0, 0), (0, hp - h), (0, wp - w)),
                        constant_values=-np.inf)
        else:
            xp, hp, wp = x, h, w
        win = np.empty((k * k, n, c, oh, ow))
        for dr in range(k):
            for dc in range(k):
                win[dr * k + dc] = xp[:, :, dr:dr + s * oh:s, dc:dc + s * ow:s]
        out = win.max(axis=0)                                    # (n, c, oh, ow)
        # Winner: the first maximum in row-major window order, as np.argmax
        # picks it. Offset j weighs k*k - j, so the largest weight among the
        # maxima marks the first. A NaN window has no maximum and gets k*k,
        # out of range; the non-finite loss it leads to stops training first.
        weights = np.arange(k * k, 0, -1, dtype=np.min_scalar_type(k * k))
        hit = np.equal(win, out, out=np.empty(win.shape, dtype=weights.dtype))
        hit *= weights[:, None, None, None, None]
        winner = k * k - hit.max(axis=0)
        return out, (winner, (n, c, h, w), (hp, wp))

    def backward(self, grad_out, cache):
        winner, (n, c, h, w), (hp, wp) = cache
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        # Winner offset within the window -> flat position in the padded map.
        row = s * np.arange(oh)[:, None] + winner // k
        col = s * np.arange(ow)[None, :] + winner % k
        flat = row * wp + col
        plane = hp * wp
        offsets = (np.arange(n * c) * plane).reshape(n, c, 1, 1)
        gx = np.bincount((flat + offsets).ravel(),
                         weights=grad_out.ravel(),
                         minlength=n * c * plane).reshape(n, c, hp, wp)
        return np.ascontiguousarray(gx[:, :, :h, :w]), []

    def pattern(self, cache):
        return cache[0]


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        return np.maximum(x, 0.0), x > 0

    def backward(self, grad_out, cache):
        return grad_out * cache, []

    def pattern(self, cache):
        return cache


class Sigmoid(Layer):
    kind = "sigmoid"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out, out

    def backward(self, grad_out, cache):
        return grad_out * cache * (1.0 - cache), []


class Tanh(Layer):
    kind = "tanh"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        out = np.tanh(x)
        return out, out

    def backward(self, grad_out, cache):
        return grad_out * (1.0 - cache * cache), []


class Softmax(Layer):
    """Row-wise softmax over the last axis."""

    kind = "softmax"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        out = softmax(x)
        return out, out

    def backward(self, grad_out, cache):
        s = cache
        inner = np.sum(grad_out * s, axis=-1, keepdims=True)
        return s * (grad_out - inner), []


def softmax(logits):
    """Numerically stable softmax over the last axis."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Losses (operate on the final layer output; mean over the batch)

LOSSES = ("squared-error", "softmax-cross-entropy")


def _squared_error(pred, targets):
    if pred.shape != targets.shape:
        raise DimensionError(
            f"squared-error targets shape {targets.shape} != output shape {pred.shape}"
        )
    n = pred.shape[0]
    r = pred - targets
    loss = float(np.sum(r * r)) / n
    grad = 2.0 * r / n
    return loss, grad


def _softmax_cross_entropy(logits, labels):
    n = logits.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(
            f"cross-entropy expects {n} integer labels, got shape {labels.shape}"
        )
    z = logits - np.max(logits, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    rows = np.arange(n)
    loss = float(np.mean(lse - z[rows, labels]))
    grad = np.exp(z) / np.exp(lse)[:, None]
    grad[rows, labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# Network


class LayerGradients:
    """Gradients of the loss, grouped per layer (one array per parameter
    tensor, shapes mirroring the parameters)."""

    def __init__(self, by_layer):
        self.by_layer = by_layer

    def __len__(self):
        return len(self.by_layer)

    def __getitem__(self, i):
        return self.by_layer[i]

    def __iter__(self):
        return iter(self.by_layer)

    def flat(self, layer_index):
        """Flattened concatenation of one layer's gradient tensors."""
        return concat_flat(self.by_layer[layer_index])


class ForwardCache:
    """Opaque result of Network.forward, consumed by Network.backward."""

    def __init__(self, net, serial, layer_caches, loss_grad):
        self._net = net
        self._serial = serial
        self.layer_caches = layer_caches
        self.loss_grad = loss_grad


class Network:
    """Ordered layer stack plus a loss; shapes validated at construction."""

    def __init__(self, input_shape, layers, loss="softmax-cross-entropy"):
        if loss not in LOSSES:
            raise DimensionError(f"unknown loss {loss!r}; expected one of {LOSSES}")
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layers = list(layers)
        self.loss = loss
        shape = self.input_shape
        self.layer_shapes = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self.layer_shapes.append(shape)
        self.output_shape = shape
        self._serial = 0

    def parameters(self):
        """Parameter tensors grouped per layer (empty list for layers
        without parameters)."""
        return [layer.params for layer in self.layers]

    def parameter_count(self) -> int:
        return sum(p.size for group in self.parameters() for p in group)

    def _check_input(self, inputs):
        if inputs.shape[1:] != self.input_shape:
            raise DimensionError(
                f"network expects input shape {self.input_shape}, got {inputs.shape[1:]}"
            )

    def _run_loss(self, out, targets):
        if self.loss == "squared-error":
            return _squared_error(out, targets)
        return _softmax_cross_entropy(out, targets)

    def forward(self, inputs, targets):
        """Run the full forward pass; returns (mean loss, cache)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        caches = []
        out = inputs
        for layer in self.layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        loss, loss_grad = self._run_loss(out, targets)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} in forward pass")
        self._serial += 1
        return loss, ForwardCache(self, self._serial, caches, loss_grad)

    def backward(self, cache, targets=None):
        """Gradients for every parameter tensor, from the most recent
        forward call's cache."""
        if not isinstance(cache, ForwardCache) or cache._net is not self:
            raise UsageError("backward requires the cache returned by forward on this network")
        if cache._serial != self._serial:
            raise UsageError("stale cache: another forward ran after this one")
        grad = cache.loss_grad
        by_layer = [[] for _ in self.layers]
        for i in range(len(self.layers) - 1, 0, -1):
            grad, by_layer[i] = self.layers[i].backward(grad, cache.layer_caches[i])
        # Layer 0's input gradient is the gradient with respect to the data,
        # which nothing reads.
        if self.layers and self.layers[0].params:
            _, by_layer[0] = self.layers[0].backward(
                grad, cache.layer_caches[0], need_grad_in=False)
        return LayerGradients(by_layer)

    def predict(self, inputs):
        """Forward pass returning the final layer output; intermediate
        caches are discarded and no training state is touched."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        out = inputs
        for layer in self.layers:
            out, _ = layer.forward(out)
        return out

    def loss_value(self, inputs, targets) -> float:
        """Mean loss without retaining caches (used by finite differences)."""
        out = self.predict(inputs)
        loss, _ = self._run_loss(out, targets)
        return loss

    def loss_and_pattern(self, inputs, targets):
        """Mean loss plus the discrete decision pattern (ReLU masks, pool
        argmax indices) of the pass."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        out = inputs
        pattern = []
        for layer in self.layers:
            out, cache = layer.forward(out)
            pattern.append(layer.pattern(cache))
        loss, _ = self._run_loss(out, targets)
        return loss, pattern


# ---------------------------------------------------------------------------
# Finite-difference oracle and gradient checking


def finite_difference_gradient(net: Network, inputs, targets, eps: float = 1e-6):
    """Central-difference gradient of the loss for every parameter.

    Exact to O(eps^2); intended as an independent oracle for backward().
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    by_layer = []
    for group in net.parameters():
        grads = []
        for p in group:
            g = np.empty_like(p)
            flat_p = p.ravel()
            flat_g = g.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                up = net.loss_value(inputs, targets)
                flat_p[i] = orig - eps
                down = net.loss_value(inputs, targets)
                flat_p[i] = orig
                flat_g[i] = (up - down) / (2.0 * eps)
            grads.append(g)
        by_layer.append(grads)
    return LayerGradients(by_layer)


def _patterns_equal(a, b):
    for pa, pb in zip(a, b):
        if pa is None and pb is None:
            continue
        if not np.array_equal(pa, pb):
            return False
    return True


class GradCheckResult:
    def __init__(self, max_rel_err, checked, skipped, worst):
        self.max_rel_err = max_rel_err
        self.checked = checked
        self.skipped = skipped
        self.worst = worst  # (layer_index, tensor_index, flat_coord)

    def __repr__(self):
        return (f"GradCheckResult(max_rel_err={self.max_rel_err:.3e}, "
                f"checked={self.checked}, skipped={self.skipped}, worst={self.worst})")


def gradient_check(net: Network, inputs, targets, eps: float = 1e-6,
                   samples_per_tensor=None, sample_gen=None) -> GradCheckResult:
    """Compare backward() to central differences.

    Relative error per coordinate is |a - b| / max(1, |a|, |b|). Coordinates
    whose +/-eps perturbation flips a ReLU mask or max-pool winner sit on a
    kink where the two sides legitimately disagree; they are skipped and
    counted. `samples_per_tensor` bounds the coordinates checked per
    parameter tensor (None checks all of them).
    """
    loss, cache = net.forward(inputs, targets)
    analytic = net.backward(cache)
    _, base_pattern = net.loss_and_pattern(inputs, targets)
    max_rel = 0.0
    worst = None
    checked = 0
    skipped = 0
    for li, group in enumerate(net.parameters()):
        for ti, p in enumerate(group):
            flat_p = p.ravel()
            flat_a = analytic[li][ti].ravel()
            size = flat_p.size
            if samples_per_tensor is None or samples_per_tensor >= size:
                coords = np.arange(size)
            else:
                gen = sample_gen if sample_gen is not None else rng.generator(0, 0xC0DE)
                coords = gen.choice(size, size=samples_per_tensor, replace=False)
            for i in coords:
                orig = flat_p[i]
                flat_p[i] = orig + eps
                up, pat_up = net.loss_and_pattern(inputs, targets)
                flat_p[i] = orig - eps
                down, pat_down = net.loss_and_pattern(inputs, targets)
                flat_p[i] = orig
                if not (_patterns_equal(pat_up, base_pattern)
                        and _patterns_equal(pat_down, base_pattern)):
                    skipped += 1
                    continue
                fd = (up - down) / (2.0 * eps)
                a = flat_a[i]
                rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
                checked += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = (li, ti, int(i))
    return GradCheckResult(max_rel, checked, skipped, worst)


# ---------------------------------------------------------------------------
# Architecture factories

LENET_INPUT = (1, 28, 28)
CIFAR_QUICK_INPUT = (3, 32, 32)


def build_lenet(seed: int = 0) -> Network:
    """LeNet for 28x28x1 inputs and 10 classes: two conv/pool stages, a
    500-wide ReLU hidden layer, softmax cross-entropy output."""
    gen = rng.generator(seed, rng.SALT_INIT)
    layers = [
        Conv2D(1, 20, 5, init_gen=gen),
        MaxPool2D(2, 2),
        Conv2D(20, 50, 5, init_gen=gen),
        MaxPool2D(2, 2),
        Dense(50 * 4 * 4, 500, init_gen=gen),
        ReLU(),
        Dense(500, 10, init_gen=gen),
    ]
    return Network(LENET_INPUT, layers, loss="softmax-cross-entropy")


def build_cifar_quick(seed: int = 0) -> Network:
    """Small CIFAR-10 convnet: 32/32/64 feature maps of 5x5 kernels, ReLU
    after each conv, 3x3 stride-2 max pooling, single 10-way output layer."""
    gen = rng.generator(seed, rng.SALT_INIT)
    layers = [
        Conv2D(3, 32, 5, padding=2, init_gen=gen),
        ReLU(),
        MaxPool2D(3, 2),
        Conv2D(32, 32, 5, padding=2, init_gen=gen),
        ReLU(),
        MaxPool2D(3, 2),
        Conv2D(32, 64, 5, padding=2, init_gen=gen),
        ReLU(),
        MaxPool2D(3, 2),
        Dense(64 * 4 * 4, 10, init_gen=gen),
    ]
    return Network(CIFAR_QUICK_INPUT, layers, loss="softmax-cross-entropy")


_ACTIVATIONS = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh}


def build_mlp(input_shape, hidden_widths, num_classes: int,
              activation: str = "tanh", seed: int = 0,
              loss: str = "softmax-cross-entropy") -> Network:
    """Fully-connected stack: one Dense per hidden width (with activation),
    then a Dense output of `num_classes` units."""
    if activation not in _ACTIVATIONS:
        raise DimensionError(
            f"unknown activation {activation!r}; expected one of {sorted(_ACTIVATIONS)}"
        )
    if isinstance(input_shape, int):
        input_shape = (input_shape,)
    gen = rng.generator(seed, rng.SALT_INIT)
    act = _ACTIVATIONS[activation]
    layers = []
    width = _prod(input_shape)
    for h in hidden_widths:
        layers.append(Dense(width, int(h), init_gen=gen))
        layers.append(act())
        width = int(h)
    layers.append(Dense(width, num_classes, init_gen=gen))
    return Network(input_shape, layers, loss=loss)


def network_from_spec(spec: str, input_shape, num_classes: int,
                      seed: int = 0, activation: str = "tanh",
                      loss: str = "softmax-cross-entropy") -> Network:
    """Build a network from a config-file architecture string.

    Accepted forms: "lenet", "cifar-quick", and "mlp:<w1>-<w2>-..." where
    the widths are hidden-layer sizes (the output layer is appended
    automatically). "mlp:" alone gives a linear softmax classifier.
    """
    spec = spec.strip()
    if spec == "lenet":
        net = build_lenet(seed)
    elif spec == "cifar-quick":
        net = build_cifar_quick(seed)
    elif spec == "mlp" or spec.startswith("mlp:"):
        widths_part = spec[4:] if spec.startswith("mlp:") else ""
        widths = [int(w) for w in widths_part.replace(",", "-").split("-") if w]
        return build_mlp(input_shape, widths, num_classes,
                         activation=activation, seed=seed, loss=loss)
    else:
        raise DimensionError(f"unknown architecture spec {spec!r}")
    if tuple(input_shape) != net.input_shape:
        raise DimensionError(
            f"architecture {spec!r} expects input {net.input_shape}, "
            f"dataset provides {tuple(input_shape)}"
        )
    return net
