"""Dataset ingestion and deterministic minibatch streaming.

Loaders read MNIST IDX and CIFAR-10 binary files from local paths only;
fetching the public archives is the CLI's job. A Dataset keeps its pixels
as stored, uint8 (n, c, h, w) for IDX and CIFAR-10 files, and decodes only
the rows asked for into float64: bytes scaled to [0, 1], then shifted by
the per-channel means if the dataset is centred. Labels are an int64 vector.
Each source checks its own input: a file that contradicts its header is a
DataError, and blobs sizes that cannot be drawn are a ConfigError.
"""

import gzip
import math
import os
import struct
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import ConfigError, DataError

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixels
PIXEL_MAX = 255.0  # uint8 pixels decode to value / PIXEL_MAX


@dataclass
class Dataset:
    pixels: np.ndarray       # (n, c, h, w) uint8 as read, or float64
    labels: np.ndarray       # (n,) int64, values in [0, num_classes)
    num_classes: int
    means: np.ndarray = None  # (c,) subtracted after scaling; None: not centred

    def __post_init__(self):
        if self.pixels.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"image count {self.pixels.shape[0]} != label count {self.labels.shape[0]}"
            )
        bad = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)]
        if bad.size:
            raise DataError(
                f"labels outside [0, {self.num_classes}): e.g. {int(bad[0])}"
            )

    def __len__(self):
        return self.pixels.shape[0]

    @property
    def input_shape(self):
        return self.pixels.shape[1:]

    def decode(self, index):
        """float64 images of the rows `index` (a slice or index array)
        selects: uint8 pixels as `u / PIXEL_MAX`, then minus `means` per
        channel. Float pixels with no means come back as indexed, which
        for a slice is a view."""
        x = self.pixels[index]
        if x.dtype == np.uint8:
            x = x.astype(np.float64)
            x /= PIXEL_MAX
            if self.means is not None:
                x -= self.means[:, None, None]
        elif self.means is not None:
            x = x - self.means[:, None, None]
        return x

    @property
    def images(self):
        """The whole split decoded: a float64 array 8 times the size of
        uint8 pixels, built on every access."""
        return self.decode(slice(None))


@contextmanager
def _reading(path):
    """A DataError naming `path` for any failure to open, read or inflate it."""
    try:
        yield
    except (OSError, EOFError, zlib.error) as exc:
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def _read_idx(path, magic, item):
    """(counts, uint8 payload) of an IDX file, plain or .gz, whose header is
    `magic` plus one big-endian count per dimension (the magic's low byte).
    DataError on a short header, another magic, no items, or a payload of
    another length than the counts claim, and on a file it cannot open, read
    or inflate; `item` names the payload's bytes in messages."""
    dims = magic & 0xFF
    # Unbuffered: a buffered read() to the end joins the bytes it reads in
    # one more copy of the file.
    gz = str(path).endswith(".gz")
    with _reading(path), gzip.open(path, "rb") if gz else open(path, "rb", buffering=0) as f:
        header = f.read(4 + 4 * dims)
        if len(header) < 4 + 4 * dims:
            raise DataError(f"{path}: truncated IDX header")
        got, *counts = struct.unpack(f">{1 + dims}I", header)
        if got != magic:
            raise DataError(f"{path}: bad IDX {item} magic 0x{got:08x} (expected 0x{magic:08x})")
        size = math.prod(counts)
        if size == 0:
            raise DataError(f"{path}: no {item}s (counts {counts})")
        raw = f.read()
    if len(raw) != size:
        raise DataError(f"{path}: expected {size} {item} bytes, got {len(raw)}")
    return counts, np.frombuffer(raw, dtype=np.uint8)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style IDX image/label file pair.

    Both files go through one reader, which validates the magic numbers
    (0x803 images, 0x801 labels) and rejects a file with no items or with
    a payload of another length than its header's counts claim; the item
    counts of the two files must match. Pixels stay uint8.
    """
    (n, h, w), pixels = _read_idx(images_path, MNIST_IMAGE_MAGIC, "pixel")
    (n_labels,), labels = _read_idx(labels_path, MNIST_LABEL_MAGIC, "label")
    if n != n_labels:
        raise DataError(
            f"item count mismatch: {images_path} has {n} images "
            f"but {labels_path} has {n_labels} labels"
        )
    return Dataset(pixels.reshape(n, 1, h, w), labels.astype(np.int64), num_classes=10)


def load_cifar10_bin(paths) -> Dataset:
    """Load CIFAR-10 binary batch files (3073-byte records: label byte then
    3072 pixel bytes in channel-major order), read in order into one record
    array. Pixels stay uint8, a view of it. DataError on a file it cannot
    open or read."""
    with ExitStack() as stack:
        files = []
        for path in paths:
            with _reading(path):
                files.append((path, stack.enter_context(open(path, "rb"))))
        sizes = [os.fstat(f.fileno()).st_size for _, f in files]
        for (path, _), size in zip(files, sizes):
            if size == 0 or size % CIFAR_RECORD_BYTES != 0:
                raise DataError(f"{path}: file length {size} is not a positive multiple "
                                f"of the {CIFAR_RECORD_BYTES}-byte record size")
        records = np.empty((sum(sizes) // CIFAR_RECORD_BYTES, CIFAR_RECORD_BYTES), np.uint8)
        start = 0
        for (path, f), size in zip(files, sizes):
            with _reading(path):
                got = f.readinto(records.reshape(-1)[start:start + size])
            if got != size:
                raise DataError(f"{path}: read {got} of its {size} bytes")
            start += size
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return Dataset(images, records[:, 0].astype(np.int64), num_classes=10)


def channel_mean_center(train: Dataset, test: Dataset):
    """Centre both splits on the per-channel mean of the train split's
    pixels; the pixels are shared, not copied, and decoding subtracts the
    means.

    For uint8 pixels the means come from exact integer sums, so each is the
    exact mean correctly rounded. Means are always those of the stored
    pixels, so centring twice is centring once. Returns (train, test),
    each holding the means, of shape (c,).
    """
    pixels = train.pixels
    if pixels.dtype == np.uint8:
        # Per-image uint32 sums are exact while h*w <= 16,843,009, so that
        # 255*h*w < 2**32, and their int64 sum over images is exact too.
        sums = pixels.sum(axis=(2, 3), dtype=np.uint32).sum(axis=0, dtype=np.int64)
        means = sums / (PIXEL_MAX * (pixels.size // pixels.shape[1]))
    else:
        means = pixels.mean(axis=(0, 2, 3))
    return replace(train, means=means), replace(test, means=means)


def synth_blobs(seed: int, n: int, classes: int, dim: int,
                separation: float = 6.0) -> Dataset:
    """Gaussian blobs: unit-variance clusters, class c centered at
    separation * e_c on the coordinate simplex. Deterministic per seed.

    Images come back shaped (n, 1, 1, dim) so the rest of the pipeline can
    treat them like flat single-channel images. ConfigError unless n and
    classes are >= 1, classes divides n, dim >= classes, separation finite.
    """
    if n < 1 or classes < 1:
        raise ConfigError(f"n={n} and classes={classes} must each be >= 1")
    if not math.isfinite(separation):
        raise ConfigError(f"separation={separation} must be finite")
    if n % classes != 0:
        raise ConfigError(f"n={n} must be divisible by classes={classes}")
    if dim < classes:
        raise ConfigError(f"dim={dim} must be >= classes={classes} for simplex means")
    gen = rng.generator(seed, rng.SALT_BLOBS)
    per = n // classes
    labels = np.repeat(np.arange(classes), per).astype(np.int64)
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = separation
    points = gen.standard_normal((n, dim)) + means[labels]
    return Dataset(points.reshape(n, 1, 1, dim), labels, num_classes=classes)


class BatchStream:
    """Deterministic minibatch iterator.

    Each epoch visits every index exactly once; the epoch permutation is a
    pure function of (seed, epoch) via a Philox stream, so two streams with
    equal seeds over the same dataset emit identical batch sequences.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.epoch = 0
        self._cursor = 0
        self._perm = self._permutation(0)

    def _permutation(self, epoch: int):
        gen = rng.generator(self.seed, rng.SALT_SHUFFLE + epoch)
        return gen.permutation(len(self.dataset))

    def next_batch(self):
        """Next (inputs, labels) slice; reshuffles at the epoch boundary."""
        n = len(self.dataset)
        if self._cursor >= n:
            self.epoch += 1
            self._perm = self._permutation(self.epoch)
            self._cursor = 0
        idx = self._perm[self._cursor:self._cursor + self.batch_size]
        self._cursor += len(idx)
        return self.dataset.decode(idx), self.dataset.labels[idx]
