"""The synthetic files round-trip through the library's own loaders."""

import struct

import numpy as np
import pytest

import synth
from layerlr import data as data_io
from layerlr import harness


def test_mnist_idx_round_trip(tmp_path):
    synth.write_mnist_idx(str(tmp_path), seed=3, n_train=50, n_test=20)
    paths = harness.mnist_paths(str(tmp_path))
    with open(paths["train_images"], "rb") as f:
        magic, n, h, w = struct.unpack(">IIII", f.read(16))
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    assert (magic, n, h, w) == (0x803, 50, 28, 28)
    with open(paths["train_labels"], "rb") as f:
        assert struct.unpack(">II", f.read(8)) == (0x801, 50)
    train = data_io.load_mnist_idx(paths["train_images"], paths["train_labels"])
    test = data_io.load_mnist_idx(paths["test_images"], paths["test_labels"])
    assert train.images.shape == (50, 1, 28, 28) and len(test) == 20
    np.testing.assert_array_equal(np.rint(train.images * 255).astype(np.uint8).ravel(), raw)
    assert set(np.unique(train.labels)) <= set(range(10))


def test_cifar_round_trip_and_mean_centering(tmp_path):
    synth.write_cifar10_bin(str(tmp_path), seed=4, n_per_batch=6, n_test=5)
    paths = harness.cifar10_paths(str(tmp_path))
    for path in paths["train"] + paths["test"]:
        assert (tmp_path / path).stat().st_size % data_io.CIFAR_RECORD_BYTES == 0
    cfg = harness.ExperimentConfig(dataset="cifar10", data_dir=str(tmp_path))
    train, test = harness.load_datasets(cfg)
    assert train.images.shape == (30, 3, 32, 32) and len(test) == 5
    np.testing.assert_allclose(train.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    raw = data_io.load_cifar10_bin(paths["train"])
    records = np.fromfile(paths["train"][0], dtype=np.uint8).reshape(-1, 3073)
    np.testing.assert_array_equal(raw.labels[:6], records[:, 0])
    np.testing.assert_array_equal(np.rint(raw.images[:6] * 255).reshape(6, -1), records[:, 1:])


@pytest.mark.parametrize("writer,args", [
    (synth.write_mnist_idx, (40, 10)),
    (synth.write_cifar10_bin, (4, 4)),
])
def test_same_seed_same_bytes(tmp_path, writer, args):
    writer(str(tmp_path / "a"), 7, *args)
    writer(str(tmp_path / "b"), 7, *args)
    writer(str(tmp_path / "c"), 8, *args)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert files
    for rel in files:
        a = (tmp_path / "a" / rel).read_bytes()
        assert a == (tmp_path / "b" / rel).read_bytes()
        assert a != (tmp_path / "c" / rel).read_bytes()
