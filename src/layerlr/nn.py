"""Layered feed-forward networks with reverse-mode gradients grouped per layer.

Forward passes return an explicit cache object instead of storing state on
the layers. All math is float64; convolution uses im2col backed by BLAS
matmul.

Conv2D and MaxPool2D take and return batch-last (C, H, W, N) arrays, in
which every window slice of a stride-1 convolution is a run of W*N
contiguous elements; Dense takes (N, ...) and the elementwise layers take
either. A Network moves the batch axis last once, before the first spatial
layer, and first again before the first Dense (or the loss), and its
backward mirrors both moves; its inputs and outputs stay batch-first.

Conv2D, MaxPool2D and ReLU write every array of at least BUFFER_FLOOR_BYTES
into grow-only buffers of their own, one per name, that they keep from one
call to the next; smaller arrays are allocated as usual. At batch 64 only
cifar-quick reaches the floor: conv1's, conv2's and conv3's im2col
matrices, the conv1 and relu1 outputs and the relu1 and pool1 input
gradients, seven buffers of 226.5 MiB in all. So a call overwrites what the
layer's last call left in its buffers, whether a Network or other code
calls it. Every Network pass (forward, predict, loss_value,
loss_and_pattern) advances the network's pass counter: backward refuses the
cache of any pass but the latest, and predict and loss_and_pattern copy out
any result that is a view. Network.release drops the buffers.

Backward never forms the first layer's input gradient, the gradient with
respect to the data, because nothing reads it. Max-pool ties go to the first
maximum in row-major window order, the element np.argmax would pick.
"""

import math

import numpy as np

from . import rng
from .errors import DimensionError, NumericError, UsageError


# Arrays of at least this size are views of a layer's reuse buffers.
# glibc maps an array over its 32 MiB mmap ceiling as fresh zeroed pages on
# every allocation and unmaps it on free, and arrays from 16 MiB up churn
# the heap top the same way. At batch 64 the floor takes in cifar-quick's
# three im2col matrices (37.5, 100 and 25 MiB) and four 16 MiB arrays: the
# conv1 and relu1 outputs and the relu1 and pool1 input gradients, each
# array one layer's own. It takes no lenet array (the largest, conv2's
# im2col, is 15.6 MiB), so lenet and mlp get the fresh arrays that numpy
# calls with no `out=` would make.
BUFFER_FLOOR_BYTES = 16 << 20


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Base layer. `params` holds the parameter tensors (possibly empty);
    optimizers update them in place."""

    kind = "base"
    # Where the batch axis of the arrays the layer takes and returns sits:
    # first (N, ...), last (C, H, W, N), or None for an elementwise layer,
    # which takes either and keeps it.
    batch_last = False

    def __init__(self):
        self.params = []
        self._buffers = {}

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

    def _array(self, name, shape, dtype=np.float64):
        """An array of `shape` and `dtype`: a new one under the floor, else
        a view of this layer's grow-only buffer `name`."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes < BUFFER_FLOOR_BYTES:
            return np.empty(shape, dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

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
        if math.prod(in_shape) != self.in_features:
            raise DimensionError(
                f"fully-connected layer expects {self.in_features} input features, "
                f"got shape {tuple(in_shape)}"
            )
        return (self.out_features,)

    def forward(self, x):
        self.output_shape(x.shape[1:])
        x2 = x.reshape(x.shape[0], -1)
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
    """2-D convolution (cross-correlation), stride/padding, im2col based;
    batch-last (C, H, W, N) in and out."""

    kind = "convolution-2d"
    batch_last = True

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
        c, h, w, n = x.shape
        oc, oh, ow = self.output_shape((c, h, w))
        k, s, p = self.kernel_size, self.stride, self.padding
        if p:
            xp = self._array("pad", (c, h + 2 * p, w + 2 * p, n))
            xp.fill(0.0)
            xp[:, p:p + h, p:p + w] = x
            x = xp
        # im2col as k*k slab copies into (c*k*k, oh*ow*n); at stride 1 each
        # slab row is a run of ow*n contiguous elements. The GEMM output
        # (oc, oh*ow*n) is the layer's output as it stands.
        col = self._array("col", (c, k, k, oh, ow, n))
        for dr in range(k):
            for dc in range(k):
                col[:, dr, dc] = x[:, dr:dr + s * oh:s, dc:dc + s * ow:s]
        col2 = col.reshape(c * k * k, oh * ow * n)
        out = np.matmul(self.params[0].reshape(oc, -1), col2,
                        out=self._array("out", (oc, oh * ow * n)))
        out += self.params[1][:, None]
        return out.reshape(oc, oh, ow, n), (col2, (c, h, w, n))

    def backward(self, grad_out, cache, need_grad_in=True):
        col2, (c, h, w, n) = cache
        k, s, p = self.kernel_size, self.stride, self.padding
        oc = self.out_channels
        oh, ow = self._spatial_out(h, w)
        g2 = grad_out.reshape(oc, oh * ow * n)
        grad_w = (g2 @ col2.T).reshape(self.params[0].shape)
        grad_b = g2.sum(axis=1)
        if not need_grad_in:
            return None, [grad_w, grad_b]
        # col2im one output row at a time. Row i's gradient, copied once per
        # kernel column dc to the input columns s*j + dc - p it reaches
        # (zeros where none does), makes an (oc*k, w*n) matrix. One GEMM with
        # the weights as (c*k, oc*k) gives its sums for the input rows
        # s*i + dr - p, and those inside the input are added in place.
        wt = self.params[0].transpose(1, 2, 0, 3).reshape(c * k, oc * k)
        spread = np.zeros((oc, k, w, n))
        copies = []
        for dc in range(k):
            lo, hi = max(0, -((dc - p) // s)), min(ow, (w - 1 + p - dc) // s + 1)
            if lo < hi:
                copies.append((spread[:, dc, s * lo + dc - p:s * hi + dc - p:s], slice(lo, hi)))
        prod = np.empty((c, k, w, n))
        gx = self._array("grad_in", (c, h, w, n))
        gx.fill(0.0)
        for i in range(oh):
            for dst, cols in copies:
                dst[...] = grad_out[:, i, cols]
            np.matmul(wt, spread.reshape(oc * k, w * n), out=prod.reshape(c * k, w * n))
            d0, d1 = max(0, p - s * i), min(k, h + p - s * i)
            if d0 < d1:
                gx[:, s * i - p + d0:s * i - p + d1] += prod[:, d0:d1]
        return gx, [grad_w, grad_b]


class MaxPool2D(Layer):
    """Max pooling with Caffe-style ceil output sizing; windows that overrun
    the input are clipped to its bounds. Batch-last (C, H, W, N) in and
    out."""

    kind = "max-pool-2d"
    batch_last = True

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def _spatial_out(self, h, w):
        # Caffe's ceil sizing, less a last window that would start past the
        # input, as a stride over the kernel size can give.
        k, s = self.kernel_size, self.stride
        return tuple(min(max(-(-(d - k) // s) + 1, 1), -(-d // s)) for d in (h, w))

    def output_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"pool layer expects (c, h, w) input, got {tuple(in_shape)}")
        oh, ow = self._spatial_out(in_shape[1], in_shape[2])
        return (in_shape[0], oh, ow)

    def forward(self, x):
        c, h, w, n = x.shape
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        # Window offset (dr, dc) of every output: where it overruns the
        # input, it reaches only the first `part` of the outputs.
        views = []
        for dr in range(k):
            for dc in range(k):
                view = x[:, dr::s, dc::s][:, :oh, :ow]
                views.append((view, np.s_[:, :view.shape[1], :view.shape[2]]))
        out = self._array("out", (c, oh, ow, n))
        out[...] = views[0][0]
        for view, part in views[1:]:
            np.maximum(out[part], view, out=out[part])
        # Winner: the first maximum in row-major window order, as np.argmax
        # picks it. Offset j weighs k*k - j, so the largest weight among the
        # maxima marks the first. A NaN window has no maximum and gets k*k,
        # out of range; the non-finite loss it leads to stops training first.
        weight = np.min_scalar_type(k * k).type
        best = np.zeros(out.shape, weight)
        for j, (view, part) in enumerate(views):
            np.maximum(best[part], np.equal(view, out[part]) * weight(k * k - j),
                       out=best[part])
        return out, (k * k - best, (c, h, w, n))

    def backward(self, grad_out, cache):
        winner, (c, h, w, n) = cache
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        # Flat position in the input of each window's first element, plus
        # that of its winner within the window.
        origin = (np.arange(c)[:, None, None] * h + s * np.arange(oh)[:, None]) * w \
            + s * np.arange(ow)
        index = (origin * n)[..., None] + np.arange(n)
        index += (np.add.outer(np.arange(k) * w, np.arange(k)) * n).ravel()[winner]
        gx = self._array("grad_in", (c, h, w, n))
        gx.fill(0.0)
        np.add.at(gx.reshape(-1), index.ravel(), grad_out.ravel())
        return gx, []

    def pattern(self, cache):
        return cache[0]


class ReLU(Layer):
    kind = "relu"
    batch_last = None

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        return (np.maximum(x, 0.0, out=self._array("out", x.shape)),
                np.greater(x, 0, out=self._array("mask", x.shape, bool)))

    def backward(self, grad_out, cache):
        return np.multiply(grad_out, cache, out=self._array("grad_in", grad_out.shape)), []

    def pattern(self, cache):
        return cache


class Sigmoid(Layer):
    kind = "sigmoid"
    batch_last = None

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
    batch_last = None

    def output_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        out = np.tanh(x)
        return out, out

    def backward(self, grad_out, cache):
        return grad_out * (1.0 - cache * cache), []


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


def _unshared(a):
    """`a`, or a copy of it if it is a view, as of a layer's buffer."""
    return a.copy() if a is not None and a.base is not None else a


class Network:
    """Ordered layer stack plus a loss; shapes validated at construction.
    A layer instance may sit at one position of one network only, since its
    buffers hold that position's arrays."""

    def __init__(self, input_shape, layers, loss="softmax-cross-entropy"):
        if loss not in LOSSES:
            raise DimensionError(f"unknown loss {loss!r}; expected one of {LOSSES}")
        self.input_shape = tuple(int(s) for s in input_shape)
        self.layers = list(layers)
        if len({id(layer) for layer in self.layers}) != len(self.layers):
            raise DimensionError("a layer instance appears twice in the network")
        self.loss = loss
        shape = self.input_shape
        self.layer_shapes = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self.layer_shapes.append(shape)
        self.output_shape = shape
        # Before layer i (index len(layers): before the loss) the batch axis
        # moves last where _moves[i] is True and back first where it is
        # False.
        self._moves = {}
        last = False
        for i, layer in enumerate(self.layers):
            if layer.batch_last is not None and layer.batch_last != last:
                last = self._moves[i] = layer.batch_last
        if last:
            self._moves[len(self.layers)] = False
        self._serial = 0

    def parameters(self):
        """Parameter tensors grouped per layer (empty list for layers
        without parameters)."""
        return [layer.params for layer in self.layers]

    def release(self):
        """Drop every layer's buffers; the next pass maps new ones."""
        for layer in self.layers:
            layer._buffers.clear()

    def parameter_count(self) -> int:
        return sum(p.size for group in self.parameters() for p in group)

    def _check_input(self, inputs):
        if inputs.shape[1:] != self.input_shape:
            raise DimensionError(
                f"network expects input shape {self.input_shape}, got {inputs.shape[1:]}"
            )

    def _move(self, i, a, backward=False):
        """`a` as layer i takes it: a copy with the batch axis moved where
        _moves[i] says. In backward, a gradient moved back."""
        last = self._moves.get(i)
        if last is None:
            return a
        return np.ascontiguousarray(
            np.moveaxis(a, 0, -1) if last != backward else np.moveaxis(a, -1, 0))

    def _run_loss(self, out, targets):
        if self.loss == "squared-error":
            return _squared_error(out, targets)
        return _softmax_cross_entropy(out, targets)

    def _pass(self, inputs, keep=None):
        """Run every layer. Returns the final output
        and the list of keep(layer, cache) per layer (empty without keep)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        self._serial += 1
        out = inputs
        kept = []
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(self._move(i, out))
            if keep is not None:
                kept.append(keep(layer, cache))
        return self._move(len(self.layers), out), kept

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
                self._move(i + 1, grad, backward=True), cache.layer_caches[i])
        # Layer 0's input gradient is the gradient with respect to the data,
        # which nothing reads.
        if self.layers and self.layers[0].params:
            _, by_layer[0] = self.layers[0].backward(
                self._move(1, grad, backward=True), cache.layer_caches[0],
                need_grad_in=False)
        return by_layer

    def predict(self, inputs):
        """Forward pass returning the final layer output, which no later
        pass overwrites; intermediate caches are discarded."""
        out, _ = self._pass(inputs)
        return _unshared(out)

    def loss_value(self, inputs, targets) -> float:
        """Mean loss without retaining caches (used by finite differences)."""
        out, _ = self._pass(inputs)
        loss, _ = self._run_loss(out, targets)
        return loss

    def loss_and_pattern(self, inputs, targets):
        """Mean loss plus the discrete decision pattern (ReLU masks, pool
        winners) of the pass, which no later pass overwrites."""
        out, pattern = self._pass(
            inputs, lambda layer, cache: _unshared(layer.pattern(cache)))
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
    width = math.prod(input_shape)
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
