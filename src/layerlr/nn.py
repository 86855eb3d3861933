"""Layered feed-forward networks with reverse-mode gradients grouped per layer.

Forward passes return an explicit cache object, and layers keep no arrays
from one call to the next, so a cache stays valid whatever passes run after
it, until backward consumes it and frees each layer's arrays as it goes.
All math is float64. A convolution sums k GEMMs per output row, in forward
and both gradients, each on a window read in place at an address worked
out once per layer call, so no layer forms an im2col matrix; with one
input channel a row's k windows are copied into one block for one GEMM.
Each is one call of numpy's bundled OpenBLAS dgemm through ctypes, and
one that adds into its output does so inside BLAS (beta = 1).
Max-pool works on a group of output rows at a time (POOL_GROUP_BYTES), so
its strided passes run in cache and its backward's scatter index covers
one group.

Conv2D and MaxPool2D take and return batch-last (H, C, W, N) arrays, in
which the k input rows under an output row are one contiguous block and
each of their (c, w) rows a run of W*N elements; Dense takes (N, ...) and
the elementwise layers take either. A Network moves to that layout once,
before the first spatial layer, and back to (N, C, H, W) before the first
Dense (or the loss), and its backward mirrors both moves; its inputs and
outputs stay batch-first.

Backward never forms the first layer's input gradient, the gradient with
respect to the data, because nothing reads it. Max-pool ties go to the first
maximum in row-major window order, the element np.argmax would pick.

A pass that keeps no cache (predict, finite differences) calls each layer's
forward with need_cache=False: max-pool then skips its winners and ReLU its
mask, which only backward and pattern read; every output is the same bit for bit.

parse_arch holds the network contract: an architecture string with its
activation, loss, input shape and class count. network_from_spec builds
only what it accepts.
"""

import ctypes
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DimensionError, NumericError, UsageError


# MaxPool2D takes as many output rows at a time as fit in this many bytes of
# input, and one where a row alone is larger (see its docstring).
POOL_GROUP_BYTES = 1 << 20


# numpy's bundled OpenBLAS, loaded once, so harness.pin_one_blas_thread and
# the conv GEMMs act on the same library; loading changes no process setting.
_OPENBLAS = [ctypes.CDLL(path) for path in sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*.so*")))]


def openblas_function(*names):
    """The first of `names` that numpy's bundled OpenBLAS exports, or None
    (a numpy built on another BLAS)."""
    for lib in _OPENBLAS:
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


# CBLAS dgemm with 64-bit integers, as numpy's bundled OpenBLAS exports it.
_DGEMM = openblas_function("scipy_cblas_dgemm64_")
if _DGEMM is not None:
    _DGEMM.argtypes = [ctypes.c_int] * 3 + [ctypes.c_int64] * 3 + [
        ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_double, ctypes.c_void_p, ctypes.c_int64]
    _DGEMM.restype = None


def _gemms(a, b, c, entries, trans_b=False, before=None):
    """Make a table of GEMMs on C-contiguous float64 arrays. `entries` are
    its columns (ia, ib, ic, m, n, k, lda, ldb, ldc, beta), broadcast to one
    shape whose last axis holds a row's entries. An entry sets the m x n
    matrix at element ic of c, rows ldc apart, to beta times itself plus the
    m x k one at ia of a times the k x n one at ib of b (with trans_b, the
    n x k one there, transposed). Per row i: before(i) if given, the row's
    products in order, then yield i. All extents are checked before the
    first product; each is then one dgemm call on base address plus offset
    (beta = 1 adds inside BLAS), but a write of one row or one column is
    np.matmul's, which takes it to gemv. Without the symbol all are
    np.matmul or `+= @` on views: the same bits while a product has two
    rows and two columns and k fits one OpenBLAS block (384 on AVX-512
    x86-64), as in every conv of lenet and cifar-quick."""
    if any(x.dtype != np.float64 or not x.flags.c_contiguous for x in (a, b, c)) \
            or not c.flags.writeable:
        raise ValueError("GEMMs take C-contiguous float64 arrays and a writeable output")
    table = np.empty(np.broadcast(*entries).shape + (10,), np.int64)
    for column, values in enumerate(entries):
        table[..., column] = values
    # Offset, rows, columns and row stride of each operand, as a, b and c.
    at, rows, cols, ld = table.reshape(-1, 10)[:, [
        [0, 3, 5, 6], [1, 4, 5, 7] if trans_b else [1, 5, 4, 7], [2, 3, 4, 8]]].transpose(2, 0, 1)
    if not ((at >= 0) & (rows > 0) & (cols > 0) & (ld >= cols)
            & (at + (rows - 1) * ld + cols <= (a.size, b.size, c.size))).all():
        raise ValueError("a GEMM reaches outside its arrays")
    pa, pb, pc = (x.ctypes.data for x in (a, b, c))

    def view(x, at, rows, cols, ld):
        return np.ndarray((rows, cols), np.float64, x, 8 * at, (8 * ld, 8))
    for i, row in enumerate(table.reshape(-1, table.shape[-2], 10).tolist()):
        if before is not None:
            before(i)
        for ia, ib, ic, m, n, k, lda, ldb, ldc, beta in row:
            if _DGEMM is not None and (beta or min(m, n) > 1):
                # Row-major, a as it is, b as it is or transposed (CBLAS 101, 111, 112).
                _DGEMM(101, 111, 112 if trans_b else 111, m, n, k, 1.0, pa + 8 * ia, lda,
                       pb + 8 * ib, ldb, beta, pc + 8 * ic, ldc)
                continue
            op = view(b, ib, n, k, ldb).T if trans_b else view(b, ib, k, n, ldb)
            out = view(c, ic, m, n, ldc)
            if beta:
                out += view(a, ia, m, k, lda) @ op
            else:
                np.matmul(view(a, ia, m, k, lda), op, out=out)
        yield i


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Base layer. `params` holds the parameter tensors (possibly empty);
    optimizers update them in place."""

    kind = "base"
    # Where the batch axis of the arrays the layer takes and returns sits:
    # first (N, ...), last (H, C, W, N), or None for an elementwise layer,
    # which takes either and keeps it.
    batch_last = False

    def __init__(self):
        self.params = []

    def output_shape(self, in_shape):
        """Output shape (excluding batch) for a given input shape, by default
        the same; raises DimensionError if the input is incompatible."""
        return tuple(in_shape)

    def forward(self, x, need_cache=True):
        """Return (output, cache). With need_cache=False a layer may skip the
        work that only backward and pattern read, and return None as cache."""
        raise NotImplementedError

    def backward(self, grad_out, cache):
        """Return (grad_in, [grad per param tensor]).

        Network.backward does not call this on a parameterless layer 0, and
        calls a layer 0 with parameters as backward(grad_out, cache,
        need_grad_in=False), which returns None for grad_in. Nothing else
        holds `cache`, so its arrays are freed when this returns.
        """
        raise NotImplementedError

    def pattern(self, cache):
        """Discrete decisions made during forward (ReLU masks, pool winners),
        or None for smooth layers. Used to detect kink crossings."""
        return None


def _glorot(init_gen, shape, fan_in, fan_out):
    """Glorot-uniform weights of `shape`, drawn from init_gen, or from the
    seed-0 init stream when it is None."""
    r = np.sqrt(6.0 / (fan_in + fan_out))
    gen = init_gen if init_gen is not None else rng.generator(0, rng.SALT_INIT)
    return gen.uniform(-r, r, size=shape)


class Dense(Layer):
    """Fully-connected layer; flattens trailing input dimensions."""

    kind = "fully-connected"

    def __init__(self, in_features: int, out_features: int, init_gen=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params = [_glorot(init_gen, (in_features, out_features), in_features, out_features),
                       np.zeros(out_features)]

    def output_shape(self, in_shape):
        if math.prod(in_shape) != self.in_features:
            raise DimensionError(
                f"fully-connected layer expects {self.in_features} input features, "
                f"got shape {tuple(in_shape)}"
            )
        return (self.out_features,)

    def forward(self, x, need_cache=True):
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
    """2-D convolution (cross-correlation) with zero padding; (H, C, W, N) in
    and out. The forward cache is the padded input xp, (hp, c, wp, n). Seen
    as rows = xp.reshape(hp*c, wp*n), the window of output row i and kernel
    column dc is rows[i*c:(i+k)*c, dc*n:(dc+ow)*n], (k*c, ow*n) with rows
    in (dr, c) order: forward and the weight gradient hand _gemms its
    offset, and no im2col is formed. With one input channel those GEMMs
    would have an inner dimension of k, so a row's k windows are copied
    into one (k*k, ow*n) block, reused from row to row (about 300 KB for
    LeNet's conv1). The input gradient adds one GEMM per output row and
    kernel column from the output gradient into itself, inside BLAS."""

    kind = "convolution-2d"
    batch_last = True

    def __init__(self, in_channels, out_channels, kernel_size,
                 padding=0, init_gen=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        kk = kernel_size * kernel_size
        self.params = [_glorot(init_gen, (out_channels, in_channels, kernel_size, kernel_size),
                               in_channels * kk, out_channels * kk),
                       np.zeros(out_channels)]

    def output_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise DimensionError(
                f"conv layer expects ({self.in_channels}, h, w) input, got {tuple(in_shape)}"
            )
        k, p = self.kernel_size, self.padding
        oh, ow = in_shape[1] + 2 * p - k + 1, in_shape[2] + 2 * p - k + 1
        if oh < 1 or ow < 1:
            raise DimensionError(
                f"conv kernel {self.kernel_size} does not fit input {tuple(in_shape)}"
            )
        return (self.out_channels, oh, ow)

    def _windows(self, x, oh, ow):
        """(base, ib, ldb, before) of the b operand of output row i's GEMM j:
        a window of x, or the one-channel block into which before(i) copies."""
        (hp, c, wp, n), k = x.shape, self.kernel_size
        if c > 1:
            return x, np.arange(oh)[:, None] * (c * wp * n) + np.arange(k) * n, wp * n, None
        block = np.empty((k, k, ow * n))
        wins = np.ndarray((oh, k, k, ow * n), np.float64, x, 0, (8 * wp * n, 8 * n, 8 * wp * n, 8))
        return block, np.zeros((oh, 1), np.int64), ow * n, lambda i: np.copyto(block, wins[i])

    def forward(self, x, need_cache=True):
        # The GEMMs take C-contiguous bases: a strided or broadcast x is copied.
        x = np.ascontiguousarray(x)
        h, c, w, n = x.shape
        oc, oh, ow = self.output_shape((c, h, w))
        k, p = self.kernel_size, self.padding
        if p:
            xp = np.zeros((h + 2 * p, c, w + 2 * p, n))
            xp[p:p + h, :, p:p + w] = x
            x = xp
        # wk[j], (oc, kc), holds kernel column j's weights (with one channel,
        # all of them) in the b operand's row order. Output row i is the sum
        # of its GEMMs, each after the first added inside BLAS, then the bias,
        # added in cache by one more GEMM: bias column times a row of ones.
        groups = 1 if c == 1 else k
        kc = k * k * c // groups
        wk = self.params[0].reshape(oc, c, k, groups, -1).transpose(3, 0, 4, 2, 1)
        wk = wk.reshape(groups, oc, kc)
        src, ib, ldb, before = self._windows(x, oh, ow)
        i, j = np.arange(oh)[:, None], np.arange(groups)
        out = np.empty((oh, oc, ow * n))
        bias = _gemms(self.params[1], np.ones(ow * n), out,
                      (0, 0, i * (oc * ow * n), oc, ow * n, 1, 1, ow * n, ow * n, 1))
        for _ in _gemms(wk, src, out, (j * (oc * kc), ib, i * (oc * ow * n), oc, ow * n, kc, kc,
                                       ldb, ow * n, j > 0), before=before):
            next(bias)
        return out.reshape(oh, oc, ow, n), x

    def backward(self, grad_out, cache, need_grad_in=True):
        k, p = self.kernel_size, self.padding
        hp, c, wp, n = cache.shape
        h, w = hp - 2 * p, wp - 2 * p
        oh, oc, ow = grad_out.shape[:3]
        g = np.ascontiguousarray(grad_out).reshape(oh, oc, ow * n)
        # The weight gradient, laid out as forward's wk, sums each output
        # row's gradient times that row's operands, transposed: each product
        # is written into `part`, then added into its gw[j], in row order.
        groups = 1 if c == 1 else k
        kc = k * k * c // groups
        gw, part = np.zeros((groups, oc, kc)), np.empty((oc, kc))
        src, ib, ldb, before = self._windows(cache, oh, ow)
        i = np.arange(oh)[:, None, None]
        for r in _gemms(g, src, part, (i * (oc * ow * n), ib[..., None], 0, oc, kc, ow * n,
                                       ow * n, ldb, kc, 0), trans_b=True, before=before):
            gw[r % groups] += part
        grad_w = gw.reshape(groups, oc, -1, k, c).transpose(1, 4, 3, 0, 2)
        grad_w = np.ascontiguousarray(grad_w).reshape(oc, c, k, k)
        grad_b = g.sum(axis=(0, 2))
        if not need_grad_in:
            return None, [grad_w, grad_b]
        # The input gradient, one GEMM per output row i and kernel column dc
        # that reach the input: kernel rows d0..d1 of column dc's weights,
        # (k*c, oc) in (dr, c) order, times the output columns lo..hi of row
        # i's gradient, whose input columns j + dc - p lie inside the input,
        # added into input rows i + dr - p and those columns of gx.
        wdc = np.ascontiguousarray(self.params[0].transpose(3, 2, 1, 0)).reshape(k, k * c, oc)
        i, dc = np.arange(oh)[:, None], np.arange(k)
        i, dc = np.nonzero((p - k < i) & (i < h + p) & (p - ow < dc) & (dc < w + p))
        d0, d1 = np.maximum(0, p - i), np.minimum(k, h + p - i)
        lo, hi = np.maximum(0, p - dc), np.minimum(ow, w + p - dc)
        gx = np.zeros((h, c, w, n))
        for _ in _gemms(wdc, g, gx, ((dc * k + d0) * c * oc, (i * oc * ow + lo) * n,
                                     ((i - p + d0) * c * w + lo + dc - p) * n, (d1 - d0) * c,
                                     (hi - lo) * n, oc, oc, ow * n, w * n, 1)):
            pass
        return gx, [grad_w, grad_b]


class MaxPool2D(Layer):
    """Max pooling with Caffe-style ceil output sizing; windows that overrun
    the input are clipped to its bounds. (H, C, W, N) in and out.

    Forward and backward take the output rows in groups of about
    POOL_GROUP_BYTES (1 MiB) of input, stride rows of input per output row,
    each group a contiguous block of the input and of the output. Forward's
    running max and winner passes re-read a group while it is in a 2 MiB
    L2; backward builds the int64 scatter index for one group and adds it
    into the input gradient in output-row order, as one whole-input group
    would, so every output is that of one group, bit for bit, also where
    windows overlap a group boundary."""

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

    def _groups(self, x_shape, oh):
        """(r0, r1) output-row ranges of about POOL_GROUP_BYTES of input
        each, or one row each."""
        h, c, w, n = x_shape
        g = max(1, POOL_GROUP_BYTES // (self.stride * c * w * n * 8))
        return [(r0, min(r0 + g, oh)) for r0 in range(0, oh, g)]

    def forward(self, x, need_cache=True):
        h, c, w, n = x.shape
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        out = np.empty((oh, c, ow, n))
        weight = np.min_scalar_type(k * k).type
        best = np.zeros(out.shape, weight) if need_cache else None
        for r0, r1 in self._groups(x.shape, oh):
            # Window offset (dr, dc) of every output: where it overruns the
            # input, it reaches only the first `part` of the outputs.
            views = []
            for dr in range(k):
                for dc in range(k):
                    view = x[r0 * s + dr::s, :, dc::s][:r1 - r0, :, :ow]
                    views.append((view, np.s_[:view.shape[0], :, :view.shape[2]]))
            og = out[r0:r1]
            og[...] = views[0][0]
            for view, part in views[1:]:
                np.maximum(og[part], view, out=og[part])
            if not need_cache:
                continue
            # Winner: the first maximum in row-major window order, as
            # np.argmax picks it. Offset j weighs k*k - j, so the largest
            # weight among the maxima marks the first. A NaN window has no
            # maximum and gets k*k, out of range; the non-finite loss it
            # leads to stops training first.
            bg = best[r0:r1]
            for j, (view, part) in enumerate(views):
                np.maximum(bg[part], np.equal(view, og[part]) * weight(k * k - j),
                           out=bg[part])
        return out, (k * k - best, x.shape) if need_cache else None

    def backward(self, grad_out, cache):
        winner, x_shape = cache
        h, c, w, n = x_shape
        k, s = self.kernel_size, self.stride
        oh, ow = self._spatial_out(h, w)
        # Flat position in the input of each window's first element, plus
        # that of its winner within the window.
        offset = (np.add.outer(np.arange(k) * (c * w), np.arange(k)) * n).ravel()
        gx = np.zeros(x_shape)
        for r0, r1 in self._groups(x_shape, oh):
            origin = (s * np.arange(r0, r1)[:, None, None] * c + np.arange(c)[:, None]) * w \
                + s * np.arange(ow)
            index = (origin * n)[..., None] + np.arange(n)
            index += offset[winner[r0:r1]]
            np.add.at(gx.reshape(-1), index.ravel(), grad_out[r0:r1].ravel())
        return gx, []

    def pattern(self, cache):
        return cache[0]


class ReLU(Layer):
    kind = "relu"
    batch_last = None

    def forward(self, x, need_cache=True):
        return np.maximum(x, 0.0), np.greater(x, 0) if need_cache else None

    def backward(self, grad_out, cache):
        return np.multiply(grad_out, cache), []

    def pattern(self, cache):
        return cache


class Sigmoid(Layer):
    kind = "sigmoid"
    batch_last = None

    def forward(self, x, need_cache=True):
        # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: neither
        # exponent is positive, so neither overflows.
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return out, out

    def backward(self, grad_out, cache):
        return grad_out * cache * (1.0 - cache), []


class Tanh(Layer):
    kind = "tanh"
    batch_last = None

    def forward(self, x, need_cache=True):
        out = np.tanh(x)
        return out, out

    def backward(self, grad_out, cache):
        return grad_out * (1.0 - cache * cache), []


# ---------------------------------------------------------------------------
# Losses (operate on the final layer output; mean over the batch)


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


LOSSES = {"squared-error": _squared_error, "softmax-cross-entropy": _softmax_cross_entropy}


# ---------------------------------------------------------------------------
# Network


class ForwardCache:
    """Opaque result of Network.forward, consumed by Network.backward: a
    second backward needs a new forward."""

    def __init__(self, net, layer_caches, loss_grad):
        self._net = net
        self.layer_caches = layer_caches
        self.loss_grad = loss_grad


class Network:
    """Ordered layer stack plus a loss; shapes validated at construction.
    A layer instance may sit at one position only: listed twice, its
    tensors would be updated once per position."""

    def __init__(self, input_shape, layers, loss="softmax-cross-entropy"):
        if loss not in LOSSES:
            raise DimensionError(f"unknown loss {loss!r}; expected one of {tuple(LOSSES)}")
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

    def parameters(self):
        """Parameter tensors grouped per layer (empty list for layers
        without parameters)."""
        return [layer.params for layer in self.layers]

    def _check_input(self, inputs):
        if inputs.shape[1:] != self.input_shape:
            raise DimensionError(
                f"network expects input shape {self.input_shape}, got {inputs.shape[1:]}"
            )

    def _move(self, i, a, backward=False):
        """`a` as layer i takes it: a copy moved from (N, C, H, W) to the
        spatial layers' (H, C, W, N) or back, as _moves[i] says. In
        backward, a gradient moved the other way."""
        last = self._moves.get(i)
        if last is None:
            return a
        return np.ascontiguousarray(
            a.transpose((2, 1, 3, 0) if last != backward else (3, 1, 0, 2)))

    def _pass(self, inputs, need_cache):
        """Run every layer. Returns the final output and the list of layer
        caches, or None for it without need_cache."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._check_input(inputs)
        out = inputs
        caches = [] if need_cache else None
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(self._move(i, out), need_cache=need_cache)
            if need_cache:
                caches.append(cache)
        return self._move(len(self.layers), out), caches

    def forward(self, inputs, targets):
        """Run the full forward pass; returns (mean loss, cache)."""
        out, caches = self._pass(inputs, True)
        loss, loss_grad = LOSSES[self.loss](out, targets)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} in forward pass")
        return loss, ForwardCache(self, caches, loss_grad)

    def backward(self, cache):
        """Gradients of the loss, one list per layer with one array per
        parameter tensor, from a cache that forward on this network
        returned. It pops each layer's cache off cache.layer_caches as it
        calls that layer's backward, so the layer's arrays are freed once it
        is done; a consumed cache, also one whose backward raised part-way,
        raises UsageError."""
        if not isinstance(cache, ForwardCache) or cache._net is not self:
            raise UsageError("backward requires the cache returned by forward on this network")
        caches = cache.layer_caches
        if len(caches) != len(self.layers):
            raise UsageError("backward consumes its cache: run forward again")
        grad = cache.loss_grad
        by_layer = [[] for _ in self.layers]
        for i in range(len(self.layers) - 1, 0, -1):
            grad, by_layer[i] = self.layers[i].backward(
                self._move(i + 1, grad, backward=True), caches.pop())
        # Layer 0's input gradient is the gradient with respect to the data,
        # which nothing reads.
        if self.layers and self.layers[0].params:
            _, by_layer[0] = self.layers[0].backward(
                self._move(1, grad, backward=True), caches.pop(), need_grad_in=False)
        caches.clear()  # a parameterless layer 0's cache
        return by_layer

    def value_grad(self, inputs, targets):
        """(mean loss, gradients): forward, then backward on its cache."""
        loss, cache = self.forward(inputs, targets)
        return loss, self.backward(cache)

    def predict(self, inputs):
        """Forward pass returning the final layer output; no layer forms a
        cache (need_cache=False)."""
        out, _ = self._pass(inputs, False)
        return out


# ---------------------------------------------------------------------------
# Finite-difference oracle and gradient checking


def _loss_and_patterns(net: Network, inputs, targets, need_cache):
    """(mean loss, patterns) of one pass: the loss bitwise the one forward
    returns, unchecked, and each layer's discrete decisions (ReLU masks,
    pool winners), or None for a pass that keeps no cache."""
    out, caches = net._pass(inputs, need_cache)
    return LOSSES[net.loss](out, targets)[0], \
        caches and [layer.pattern(c) for layer, c in zip(net.layers, caches)]


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
    for li, ti, i, (up, _), (down, _) in _central_differences(
            net, lambda: _loss_and_patterns(net, inputs, targets, False), eps):
        grads[li][ti].flat[i] = (up - down) / (2.0 * eps)
    return grads


@dataclass
class GradCheckResult:
    max_rel_err: float
    checked: int
    skipped: int
    worst: tuple  # (layer_index, tensor_index, flat_coord), or None


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

    _, cache = net.forward(inputs, targets)
    # Read the unperturbed patterns first: backward consumes the cache.
    base = [layer.pattern(c) for layer, c in zip(net.layers, cache.layer_caches)]
    analytic = net.backward(cache)
    max_rel = 0.0
    worst = None
    checked = 0
    skipped = 0
    for li, ti, i, (up, pat_up), (down, pat_down) in _central_differences(
            net, lambda: _loss_and_patterns(net, inputs, targets, True), eps, coords):
        if not all(map(np.array_equal, pat_up + pat_down, base + base)):
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

# The input shape of each fixed architecture. Both build their own layers:
# ReLU units, 10 classes, softmax cross-entropy.
FIXED_INPUTS = {"lenet": (1, 28, 28), "cifar-quick": (3, 32, 32)}


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
    return Network(FIXED_INPUTS["lenet"], layers, loss="softmax-cross-entropy")


def build_cifar_quick(seed: int = 0) -> Network:
    """Small CIFAR-10 convnet: 32/32/64 feature maps of 5x5 kernels, each
    conv followed by 3x3 stride-2 max pooling and a ReLU, single 10-way
    output layer. Pooling before the ReLU, as in Caffe's cifar10_quick,
    runs it on 4x smaller maps and changes nothing else: max commutes with
    max(., 0), and both orders send a window's gradient to its first
    maximum if that is positive and nowhere if not."""
    gen = rng.generator(seed, rng.SALT_INIT)
    layers = [
        Conv2D(3, 32, 5, padding=2, init_gen=gen),
        MaxPool2D(3, 2),
        ReLU(),
        Conv2D(32, 32, 5, padding=2, init_gen=gen),
        MaxPool2D(3, 2),
        ReLU(),
        Conv2D(32, 64, 5, padding=2, init_gen=gen),
        MaxPool2D(3, 2),
        ReLU(),
        Dense(64 * 4 * 4, 10, init_gen=gen),
    ]
    return Network(FIXED_INPUTS["cifar-quick"], layers, loss="softmax-cross-entropy")


ACTIVATIONS = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh}


def build_mlp(input_shape, hidden_widths, num_classes: int,
              activation: str = "tanh", seed: int = 0,
              loss: str = "softmax-cross-entropy") -> Network:
    """Fully-connected stack: one Dense per hidden width (with activation),
    then a Dense output of `num_classes` units."""
    gen = rng.generator(seed, rng.SALT_INIT)
    act = ACTIVATIONS[activation]
    layers = []
    width = math.prod(input_shape)
    for h in hidden_widths:
        layers.append(Dense(width, int(h), init_gen=gen))
        layers.append(act())
        width = int(h)
    layers.append(Dense(width, num_classes, init_gen=gen))
    return Network(input_shape, layers, loss=loss)


def parse_arch(spec: str, activation: str = "", loss: str = "softmax-cross-entropy",
               input_shape=None, num_classes=None):
    """Check a whole network spec; return (name, hidden widths, activation).

    `spec` is "lenet", "cifar-quick" (widths None) or "mlp:<w1>-<w2>-...",
    the hidden widths ("mlp:" alone is a linear softmax classifier). An
    activation of "" is the architecture's own: tanh for mlp, relu for the
    fixed nets, which take only relu, softmax cross-entropy, 10 classes and
    their FIXED_INPUTS shape. None skips the input_shape or num_classes
    check. Raises DimensionError.
    """
    spec = spec.strip()
    if spec in FIXED_INPUTS:
        widths = None
    elif spec == "mlp" or spec.startswith("mlp:"):
        try:
            widths = [int(w) for w in spec[4:].replace(",", "-").split("-") if w]
        except ValueError:
            widths = [0]  # refused below with the widths under 1
        if min(widths, default=1) < 1:
            raise DimensionError(f"architecture {spec!r}: mlp widths must be positive integers")
    else:
        raise DimensionError(f"unknown architecture spec {spec!r}")
    if activation not in ("", *ACTIVATIONS):
        raise DimensionError(
            f"unknown activation {activation!r}; expected one of {sorted(ACTIVATIONS)}")
    if loss not in LOSSES:
        raise DimensionError(f"unknown loss {loss!r}; expected one of {tuple(LOSSES)}")
    if widths is not None:
        return "mlp", widths, activation or "tanh"
    if activation not in ("", "relu"):
        raise DimensionError(f"architecture {spec!r} uses relu only, got activation {activation!r}")
    if loss != "softmax-cross-entropy":
        raise DimensionError(f"architecture {spec!r} trains with softmax-cross-entropy only, "
                             f"got loss {loss!r}")
    if num_classes not in (None, 10):
        raise DimensionError(f"architecture {spec!r} has 10 classes, got {num_classes}")
    if input_shape is not None and tuple(input_shape) != FIXED_INPUTS[spec]:
        raise DimensionError(f"architecture {spec!r} expects input {FIXED_INPUTS[spec]}, "
                             f"got {tuple(input_shape)}")
    return spec, None, "relu"


def network_from_spec(spec: str, input_shape, num_classes: int,
                      seed: int = 0, activation: str = "",
                      loss: str = "softmax-cross-entropy") -> Network:
    """Build a network from a spec that parse_arch checks whole."""
    name, widths, activation = parse_arch(spec, activation, loss, input_shape, num_classes)
    if name == "mlp":
        return build_mlp(input_shape, widths, num_classes,
                         activation=activation, seed=seed, loss=loss)
    return build_lenet(seed) if name == "lenet" else build_cifar_quick(seed)
