"""Layered feed-forward networks with reverse-mode gradients grouped per layer.

Forward passes return an explicit cache object instead of storing state on
the layers. All math is float64; convolution uses im2col backed by BLAS
matmul.

Run by a Network, Conv2D, MaxPool2D and ReLU write every array of at least
WORKSPACE_FLOOR_BYTES into grow-only buffers that the network keeps from one
pass to the next; smaller arrays are allocated as usual. Contents that die
inside one layer call share buffers across all layers; only a layer's
output and the state it keeps from forward to backward are private to it.
So a pass may overwrite what an earlier pass left in the buffers, and
every pass (forward, predict, loss_value, loss_and_pattern) advances the
network's pass counter: backward refuses the cache of any pass but the
latest, and predict and loss_and_pattern copy out any result that sits in
a buffer. Layers called directly, with no workspace, allocate every array.

Backward never forms the first layer's input gradient, the gradient with
respect to the data, because nothing reads it. Max-pool ties go to the first
maximum in row-major window order, the element np.argmax would pick.
"""

import math

import numpy as np

from . import rng
from .errors import DimensionError, NumericError, UsageError


def _prod(shape):
    out = 1
    for s in shape:
        out *= int(s)
    return out


# ---------------------------------------------------------------------------
# Workspace

# Arrays of at least this size come from a Network's workspace buffers.
# glibc maps an array over its 32 MiB mmap ceiling as fresh zeroed pages on
# every allocation and unmaps it on free, and arrays from 16 MiB up churn
# the heap top the same way. The floor takes in every such cifar-quick array
# at batch 64 and no lenet array (the largest, conv2's im2col, is 15.6 MiB),
# so lenet and mlp make the same numpy calls as with no workspace.
WORKSPACE_FLOOR_BYTES = 16 << 20


class Workspace:
    """Grow-only byte buffers, keyed by name, that a Network's passes reuse.

    `get` returns None for an array under WORKSPACE_FLOOR_BYTES, so that a
    numpy call given it as `out=` allocates as usual.
    """

    def __init__(self):
        self._buffers = {}

    def get(self, key, shape, dtype=np.float64):
        """An array of `shape` and `dtype` on buffer `key`, which grows to
        fit; None under the floor."""
        dtype = np.dtype(dtype)
        nbytes = _prod(shape) * dtype.itemsize
        if nbytes < WORKSPACE_FLOOR_BYTES:
            return None
        buf = self._buffers.get(key)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[key] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def layer(self, index):
        """What layer `index` of the network writes through."""
        return _LayerSpace(self, index)

    def detached(self, a):
        """`a`, or a copy of it if it lives in one of the buffers."""
        if a is not None and any(a.base is buf for buf in self._buffers.values()):
            return a.copy()
        return a

    def clear(self):
        """Drop every buffer."""
        self._buffers.clear()


class _LayerSpace:
    """One layer's access to a Workspace."""

    __slots__ = ("_ws", "_index")

    def __init__(self, ws, index):
        self._ws = ws
        self._index = index

    def own(self, name, shape, dtype=np.float64):
        """A buffer private to this layer: its output, or state it keeps
        from forward to backward."""
        return self._ws.get((self._index, name), shape, dtype)

    def scratch(self, name, shape, dtype=np.float64):
        """A buffer every layer shares, for contents that die in the call."""
        return self._ws.get(name, shape, dtype)

    def grad_in(self, shape):
        """The buffer for this layer's input gradient. It dies in the
        backward of the layer below, so layers alternate between two."""
        return self._ws.get(("grad_in", self._index % 2), shape)


class _Allocate:
    """The workspace of a layer called directly: every array is allocated."""

    def own(self, name, shape, dtype=np.float64):
        return None

    scratch = own

    def grad_in(self, shape):
        return None


_ALLOCATE = _Allocate()


def _copy(a, out):
    """`a` as a C-contiguous array, written into `out` when one is given."""
    if out is None:
        return np.ascontiguousarray(a)
    np.copyto(out, a)
    return out


def _empty(out, shape, dtype=np.float64):
    return np.empty(shape, dtype=dtype) if out is None else out


def _pad(x, lead, tail_h, tail_w, value, out):
    """`x` padded with `value` on its last two axes, `lead` before both and
    `tail_h`/`tail_w` after; written into `out` when one is given."""
    if out is None:
        return np.pad(x, ((0, 0), (0, 0), (lead, tail_h), (lead, tail_w)),
                      constant_values=value)
    h, w = x.shape[2:]
    out[:, :, :lead] = value
    out[:, :, lead + h:] = value
    out[:, :, :, :lead] = value
    out[:, :, :, lead + w:] = value
    out[:, :, lead:lead + h, lead:lead + w] = x
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

    def forward(self, x, ws=_ALLOCATE):
        """Return (output, cache). A Network passes `ws`, its workspace for
        this layer, and the layer may write its arrays there."""
        raise NotImplementedError

    def backward(self, grad_out, cache, ws=_ALLOCATE):
        """Return (grad_in, [grad per param tensor]).

        Network.backward does not call this on a parameterless layer 0, and
        calls a layer 0 with parameters as backward(grad_out, cache,
        need_grad_in=False, ws=...), which returns None for grad_in.
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

    def forward(self, x, ws=_ALLOCATE):
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

    def backward(self, grad_out, cache, need_grad_in=True, ws=_ALLOCATE):
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

    def forward(self, x, ws=_ALLOCATE):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise DimensionError(
                f"conv layer expects {self.in_channels} channels, got {c}"
            )
        k, s, p = self.kernel_size, self.stride, self.padding
        oc = self.out_channels
        oh, ow = self._spatial_out(h, w)
        if p:
            x = _pad(x, p, p, p, 0.0, ws.scratch("pad", (n, c, h + 2 * p, w + 2 * p)))
        # im2col laid out (c*k*k, n*oh*ow) so the forward product and both
        # backward products are single GEMMs with no large transposes.
        win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        win = win[:, :, ::s, ::s]                                # (n,c,oh,ow,k,k)
        col2 = _copy(win.transpose(1, 4, 5, 0, 2, 3), ws.own("col", (c, k, k, n, oh, ow)))
        col2 = col2.reshape(c * k * k, n * oh * ow)
        w2 = self.params[0].reshape(oc, -1)
        out2 = np.matmul(w2, col2, out=ws.scratch("gemm", (oc, n * oh * ow)))
        out2 += self.params[1][:, None]
        out = out2.reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)
        return _copy(out, ws.own("out", out.shape)), (col2, (n, c, h, w))

    def backward(self, grad_out, cache, need_grad_in=True, ws=_ALLOCATE):
        col2, (n, c, h, w) = cache
        k, s, p = self.kernel_size, self.stride, self.padding
        oc = self.out_channels
        oh, ow = self._spatial_out(h, w)
        g2 = _copy(grad_out.transpose(1, 0, 2, 3), ws.scratch("g2", (oc, n, oh, ow)))
        g2 = g2.reshape(oc, n * oh * ow)
        grad_w = (g2 @ col2.T).reshape(self.params[0].shape)
        grad_b = g2.sum(axis=1)
        if not need_grad_in:
            return None, [grad_w, grad_b]
        # col2im one kernel offset at a time, into a channel-major buffer:
        # the (c*k*k, n*oh*ow) column gradient is never held whole.
        wt = np.ascontiguousarray(self.params[0].transpose(2, 3, 1, 0))  # (k,k,c,oc)
        hp, wp = h + 2 * p, w + 2 * p
        gxp = ws.scratch("pad", (c, n, hp, wp))
        if gxp is None:
            gxp = np.zeros((c, n, hp, wp))
        else:
            gxp.fill(0.0)
        prod = ws.scratch("gemm", (c, n * oh * ow))
        for dr in range(k):
            for dc in range(k):
                gxp[:, :, dr:dr + s * oh:s, dc:dc + s * ow:s] += \
                    np.matmul(wt[dr, dc], g2, out=prod).reshape(c, n, oh, ow)
        gx = gxp[:, :, p:hp - p, p:wp - p] if p else gxp
        return _copy(gx.transpose(1, 0, 2, 3), ws.grad_in((n, c, h, w))), [grad_w, grad_b]


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

    def forward(self, x, ws=_ALLOCATE):
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        hp, wp = (oh - 1) * s + k, (ow - 1) * s + k
        if hp > h or wp > w:
            x = _pad(x, 0, hp - h, wp - w, -np.inf, ws.scratch("pad", (n, c, hp, wp)))
        shape = (k * k, n, c, oh, ow)
        win = _empty(ws.scratch("win", shape), shape)
        for dr in range(k):
            for dc in range(k):
                win[dr * k + dc] = x[:, :, dr:dr + s * oh:s, dc:dc + s * ow:s]
        out = win.max(axis=0, out=ws.own("out", shape[1:]))     # (n, c, oh, ow)
        # Winner: the first maximum in row-major window order, as np.argmax
        # picks it. Offset j weighs k*k - j, so the largest weight among the
        # maxima marks the first. A NaN window has no maximum and gets k*k,
        # out of range; the non-finite loss it leads to stops training first.
        weights = np.arange(k * k, 0, -1, dtype=np.min_scalar_type(k * k))
        hit = np.equal(win, out, out=_empty(ws.scratch("hit", shape, weights.dtype),
                                            shape, weights.dtype))
        hit *= weights[:, None, None, None, None]
        winner = k * k - hit.max(axis=0)
        return out, (winner, (n, c, h, w))

    def backward(self, grad_out, cache, ws=_ALLOCATE):
        winner, (n, c, h, w) = cache
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        # Winner offset within the window -> flat position in the input. A
        # window always holds an input element, which beats the -inf edge.
        row = s * np.arange(oh)[:, None] + winner // k
        col = s * np.arange(ow)[None, :] + winner % k
        offsets = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
        index = (row * w + col + offsets).ravel()
        gx = ws.grad_in((n, c, h, w))
        if gx is None:
            return np.bincount(index, weights=grad_out.ravel(),
                               minlength=n * c * h * w).reshape(n, c, h, w), []
        # bincount has no out=; np.add.at sums each element's contributions
        # in the same order, so the result is bitwise the same.
        gx.fill(0.0)
        np.add.at(gx.reshape(-1), index, grad_out.ravel())
        return gx, []

    def pattern(self, cache):
        return cache[0]


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, ws=_ALLOCATE):
        return (np.maximum(x, 0.0, out=ws.own("out", x.shape)),
                np.greater(x, 0, out=ws.own("mask", x.shape, bool)))

    def backward(self, grad_out, cache, ws=_ALLOCATE):
        return np.multiply(grad_out, cache, out=ws.grad_in(grad_out.shape)), []

    def pattern(self, cache):
        return cache


class Sigmoid(Layer):
    kind = "sigmoid"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, ws=_ALLOCATE):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out, out

    def backward(self, grad_out, cache, ws=_ALLOCATE):
        return grad_out * cache * (1.0 - cache), []


class Tanh(Layer):
    kind = "tanh"

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, ws=_ALLOCATE):
        out = np.tanh(x)
        return out, out

    def backward(self, grad_out, cache, ws=_ALLOCATE):
        return grad_out * (1.0 - cache * cache), []


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


class ForwardCache:
    """Opaque result of Network.forward, consumed by Network.backward."""

    def __init__(self, net, serial, layer_caches, loss_grad):
        self._net = net
        self._serial = serial
        self.layer_caches = layer_caches
        self.loss_grad = loss_grad


class Network:
    """Ordered layer stack plus a loss; shapes validated at construction.

    `workspace` holds the buffers its passes reuse; `workspace.clear()`
    drops them, and the next pass maps new ones.
    """

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
        self.workspace = Workspace()

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

    def _pass(self, inputs, keep=None):
        """Run every layer through the workspace. Returns the final output
        and the list of keep(layer, cache) per layer (empty without keep)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        self._serial += 1
        out = inputs
        kept = []
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(out, ws=self.workspace.layer(i))
            if keep is not None:
                kept.append(keep(layer, cache))
        return out, kept

    def forward(self, inputs, targets):
        """Run the full forward pass; returns (mean loss, cache)."""
        out, caches = self._pass(inputs, lambda layer, cache: cache)
        loss, loss_grad = self._run_loss(out, targets)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} in forward pass")
        return loss, ForwardCache(self, self._serial, caches, loss_grad)

    def backward(self, cache, targets=None):
        """Gradients of the loss, one list per layer with one array per
        parameter tensor, from the cache of the most recent pass, which
        must be a forward call."""
        if not isinstance(cache, ForwardCache) or cache._net is not self:
            raise UsageError("backward requires the cache returned by forward on this network")
        if cache._serial != self._serial:
            raise UsageError("stale cache: another pass ran after this forward")
        grad = cache.loss_grad
        by_layer = [[] for _ in self.layers]
        for i in range(len(self.layers) - 1, 0, -1):
            grad, by_layer[i] = self.layers[i].backward(
                grad, cache.layer_caches[i], ws=self.workspace.layer(i))
        # Layer 0's input gradient is the gradient with respect to the data,
        # which nothing reads.
        if self.layers and self.layers[0].params:
            _, by_layer[0] = self.layers[0].backward(
                grad, cache.layer_caches[0], need_grad_in=False, ws=self.workspace.layer(0))
        return by_layer

    def predict(self, inputs):
        """Forward pass returning the final layer output, which no later
        pass overwrites; intermediate caches are discarded."""
        out, _ = self._pass(inputs)
        return self.workspace.detached(out)

    def loss_value(self, inputs, targets) -> float:
        """Mean loss without retaining caches (used by finite differences)."""
        out, _ = self._pass(inputs)
        loss, _ = self._run_loss(out, targets)
        return loss

    def loss_and_pattern(self, inputs, targets):
        """Mean loss plus the discrete decision pattern (ReLU masks, pool
        winners) of the pass, which no later pass overwrites."""
        out, pattern = self._pass(
            inputs, lambda layer, cache: self.workspace.detached(layer.pattern(cache)))
        loss, _ = self._run_loss(out, targets)
        return loss, pattern


# ---------------------------------------------------------------------------
# Finite-difference oracle and gradient checking


def _central_differences(net: Network, evaluate, eps: float, coords=range):
    """Yield (li, ti, i, up, down) for each flat coordinate i that
    coords(size) picks in tensor ti of layer li, where up and down are
    evaluate() with that coordinate shifted by +eps and by -eps. The
    coordinate is put back before anything else runs, also when evaluate
    raises."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    for li, group in enumerate(net.parameters()):
        for ti, p in enumerate(group):
            flat = p.ravel()
            for i in coords(flat.size):
                orig = flat[i]
                try:
                    flat[i] = orig + eps
                    up = evaluate()
                    flat[i] = orig - eps
                    down = evaluate()
                finally:
                    flat[i] = orig
                yield li, ti, i, up, down


def finite_difference_gradient(net: Network, inputs, targets, eps: float = 1e-6):
    """Central-difference gradient of the loss for every parameter, grouped
    per layer like Network.backward.

    Exact to O(eps^2); intended as an independent oracle for backward().
    """
    grads = [[np.empty_like(p) for p in group] for group in net.parameters()]
    for li, ti, i, up, down in _central_differences(
            net, lambda: net.loss_value(inputs, targets), eps):
        grads[li][ti].flat[i] = (up - down) / (2.0 * eps)
    return grads


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
    counted. A NaN error, from a non-finite gradient on either side, counts
    as infinite. `samples_per_tensor` bounds the coordinates checked per
    parameter tensor (None checks all of them).
    """
    def coords(size):
        if samples_per_tensor is None or samples_per_tensor >= size:
            return range(size)
        gen = sample_gen if sample_gen is not None else rng.generator(0, 0xC0DE)
        return gen.choice(size, size=samples_per_tensor, replace=False)

    loss, cache = net.forward(inputs, targets)
    analytic = net.backward(cache)
    _, base_pattern = net.loss_and_pattern(inputs, targets)
    max_rel = 0.0
    worst = None
    checked = 0
    skipped = 0
    for li, ti, i, (up, pat_up), (down, pat_down) in _central_differences(
            net, lambda: net.loss_and_pattern(inputs, targets), eps, coords):
        if not (_patterns_equal(pat_up, base_pattern)
                and _patterns_equal(pat_down, base_pattern)):
            skipped += 1
            continue
        fd = (up - down) / (2.0 * eps)
        a = analytic[li][ti].flat[i]
        rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
        checked += 1
        if math.isnan(rel):
            rel = math.inf
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
        try:
            widths = [int(w) for w in widths_part.replace(",", "-").split("-") if w]
        except ValueError:
            widths = None
        if widths is None or min(widths, default=1) < 1:
            raise DimensionError(
                f"architecture {spec!r}: mlp widths must be positive integers")
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
