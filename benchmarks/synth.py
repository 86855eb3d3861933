"""Synthetic MNIST-IDX and CIFAR-10-binary files, written from a seed.

The files use the real on-disk formats (IDX magic numbers 0x803/0x801,
3073-byte CIFAR records) and the directory layout `harness.mnist_paths` and
`harness.cifar10_paths` expect, so `run_experiment` reaches them through its
own loaders. Each class has a fixed random prototype image; every sample is
a quarter prototype, three quarters uniform noise, so the classes are
learnable.
"""

import os
import struct

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_BATCHES = 5
CLASSES = 10


def _generator(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _prototypes(gen, pixel_shape):
    return gen.integers(0, 256, size=(CLASSES,) + tuple(pixel_shape), dtype=np.uint16)


def _samples(gen, prototypes, n: int):
    """(uint8 images of shape (n, *pixel_shape), uint8 labels)."""
    labels = gen.integers(0, CLASSES, size=n, dtype=np.uint8)
    noise = gen.integers(0, 256, size=(n,) + prototypes.shape[1:], dtype=np.uint16)
    images = ((prototypes[labels] + 3 * noise) // 4).astype(np.uint8)
    return images, labels


def _write(path, header: bytes, payload: np.ndarray):
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.tobytes())


def write_mnist_idx(data_dir: str, seed: int, n_train: int, n_test: int) -> None:
    """Write the four MNIST IDX files under `data_dir/mnist`."""
    root = os.path.join(data_dir, "mnist")
    os.makedirs(root, exist_ok=True)
    gen = _generator(seed, 0x1D)
    prototypes = _prototypes(gen, (28, 28))
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images, labels = _samples(gen, prototypes, n)
        _write(os.path.join(root, f"{prefix}-images-idx3-ubyte"),
               struct.pack(">IIII", IDX_IMAGE_MAGIC, n, 28, 28), images)
        _write(os.path.join(root, f"{prefix}-labels-idx1-ubyte"),
               struct.pack(">II", IDX_LABEL_MAGIC, n), labels)


def write_cifar10_bin(data_dir: str, seed: int, n_per_batch: int, n_test: int) -> None:
    """Write data_batch_1..5 (n_per_batch records each) and test_batch
    under `data_dir/cifar-10-batches-bin`."""
    root = os.path.join(data_dir, "cifar-10-batches-bin")
    os.makedirs(root, exist_ok=True)
    gen = _generator(seed, 0xC1)
    prototypes = _prototypes(gen, (3, 32, 32))
    names = [f"data_batch_{i}.bin" for i in range(1, CIFAR_BATCHES + 1)]
    sizes = [n_per_batch] * CIFAR_BATCHES
    for name, n in zip(names + ["test_batch.bin"], sizes + [n_test]):
        images, labels = _samples(gen, prototypes, n)
        records = np.concatenate([labels[:, None], images.reshape(n, -1)], axis=1)
        _write(os.path.join(root, name), b"", records)
