"""Dataset ingestion and deterministic minibatch streaming.

Loaders read MNIST IDX and CIFAR-10 binary files from local paths only;
fetching the public archives is the CLI's job. A Dataset keeps its pixels
as stored, uint8 (n, c, h, w) for IDX and CIFAR-10 files, and decodes only
the rows asked for into float64: bytes scaled to [0, 1], then shifted by
the per-channel means if the dataset is centred. Labels are an int64 vector.
"""

import gzip
import struct
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
    split: str = "train"
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


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Load an MNIST-style IDX image/label file pair.

    Validates the big-endian magic numbers (0x803 images, 0x801 labels) and
    cross-checks the item counts between the two files. Pixels stay uint8.
    """
    with _open_maybe_gzip(images_path) as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataError(f"{images_path}: truncated IDX header")
        magic, n, h, w = struct.unpack(">IIII", header)
        if magic != MNIST_IMAGE_MAGIC:
            raise DataError(
                f"{images_path}: bad IDX image magic 0x{magic:08x} "
                f"(expected 0x{MNIST_IMAGE_MAGIC:08x})"
            )
        raw = f.read(n * h * w)
        if len(raw) != n * h * w:
            raise DataError(f"{images_path}: expected {n * h * w} pixel bytes, got {len(raw)}")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w)
    with _open_maybe_gzip(labels_path) as f:
        header = f.read(8)
        if len(header) < 8:
            raise DataError(f"{labels_path}: truncated IDX header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != MNIST_LABEL_MAGIC:
            raise DataError(
                f"{labels_path}: bad IDX label magic 0x{magic:08x} "
                f"(expected 0x{MNIST_LABEL_MAGIC:08x})"
            )
        raw = f.read(n_labels)
        if len(raw) != n_labels:
            raise DataError(f"{labels_path}: expected {n_labels} label bytes, got {len(raw)}")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if n != n_labels:
        raise DataError(
            f"item count mismatch: {images_path} has {n} images "
            f"but {labels_path} has {n_labels} labels"
        )
    return Dataset(images, labels.astype(np.int64), num_classes=10, split=split)


def load_cifar10_bin(paths, split: str = "train") -> Dataset:
    """Load CIFAR-10 binary batch files (3073-byte records: label byte then
    3072 pixel bytes in channel-major order). Pixels stay uint8."""
    if isinstance(paths, (str, bytes)) or not hasattr(paths, "__iter__"):
        paths = [paths]
    image_parts, label_parts = [], []
    for path in paths:
        with _open_maybe_gzip(path) as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise DataError(
                f"{path}: file length {len(raw)} is not a positive multiple "
                f"of the {CIFAR_RECORD_BYTES}-byte record size"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        label_parts.append(records[:, 0])
        image_parts.append(records[:, 1:].reshape(-1, 3, 32, 32))
    images = np.concatenate(image_parts)
    labels = np.concatenate(label_parts).astype(np.int64)
    return Dataset(images, labels, num_classes=10, split=split)


def channel_mean_center(train: Dataset, test: Dataset):
    """Centre both splits on the per-channel mean of the train split's
    pixels; the pixels are shared, not copied, and decoding subtracts the
    means.

    For uint8 pixels the means come from exact integer sums, so each is the
    exact mean correctly rounded. Means are always those of the stored
    pixels, so centring twice is centring once. Returns (train, test,
    means); means has shape (c,).
    """
    pixels = train.pixels
    if pixels.dtype == np.uint8:
        sums = pixels.sum(axis=(0, 2, 3), dtype=np.int64)
        means = sums / (PIXEL_MAX * (pixels.size // pixels.shape[1]))
    else:
        means = pixels.mean(axis=(0, 2, 3))
    return replace(train, means=means), replace(test, means=means), means


def synth_blobs(seed: int, n: int, classes: int, dim: int,
                separation: float = 6.0, split: str = "train") -> Dataset:
    """Gaussian blobs: unit-variance clusters, class c centered at
    separation * e_c on the coordinate simplex. Deterministic per seed.

    Images come back shaped (n, 1, 1, dim) so the rest of the pipeline can
    treat them like flat single-channel images.
    """
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
    return Dataset(points.reshape(n, 1, 1, dim), labels,
                   num_classes=classes, split=split)


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
