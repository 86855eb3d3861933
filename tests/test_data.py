import gzip
import struct
from fractions import Fraction

import numpy as np
import pytest

from layerlr import rng
from layerlr.data import (
    BatchStream,
    Dataset,
    channel_mean_center,
    load_cifar10_bin,
    load_mnist_idx,
    synth_blobs,
)
from layerlr.errors import ConfigError, DataError
from layerlr.nn import build_mlp
from layerlr.optim import SGD


def write_idx_pair(tmp_path, n=12, h=5, w=4, image_magic=0x803, label_magic=0x801,
                   label_count=None, gz=False):
    gen = rng.generator(n, 0xF11E)
    pixels = gen.integers(0, 256, size=(n, h, w)).astype(np.uint8)
    labels = gen.integers(0, 10, size=n).astype(np.uint8)
    img_bytes = struct.pack(">IIII", image_magic, n, h, w) + pixels.tobytes()
    lbl_bytes = struct.pack(">II", label_magic, label_count if label_count is not None else n)
    lbl_bytes += labels.tobytes()[: label_count if label_count is not None else n]
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lbl_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as f:
        f.write(img_bytes)
    with opener(lbl_path, "wb") as f:
        f.write(lbl_bytes)
    return img_path, lbl_path, pixels, labels


class TestMnistIdx:
    def test_loads_and_scales(self, tmp_path):
        img, lbl, pixels, labels = write_idx_pair(tmp_path)
        ds = load_mnist_idx(img, lbl, split="train")
        assert ds.images.shape == (12, 1, 5, 4)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert np.array_equal(ds.images[:, 0] * 255.0, pixels.astype(np.float64))
        assert np.array_equal(ds.labels, labels.astype(np.int64))
        assert ds.num_classes == 10

    def test_gzip_transparent(self, tmp_path):
        img, lbl, pixels, _ = write_idx_pair(tmp_path, gz=True)
        ds = load_mnist_idx(img, lbl)
        assert np.array_equal(ds.images[:, 0] * 255.0, pixels.astype(np.float64))

    def test_bad_image_magic_names_observed_value(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, image_magic=0x80A)
        with pytest.raises(DataError, match="0x0000080a"):
            load_mnist_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, label_magic=0x999)
        with pytest.raises(DataError, match="magic"):
            load_mnist_idx(img, lbl)

    def test_count_mismatch_between_files(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, label_count=11)
        with pytest.raises(DataError, match="mismatch"):
            load_mnist_idx(img, lbl)

    def test_round_trip_determinism(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        a = load_mnist_idx(img, lbl)
        b = load_mnist_idx(img, lbl)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)


class TestCifar10Bin:
    def make_file(self, path, n=7, first_label=0):
        gen = rng.generator(n, 0xC1FA)
        records = bytearray()
        labels = []
        for i in range(n):
            label = (first_label + i) % 10
            labels.append(label)
            records.append(label)
            records.extend(gen.integers(0, 256, size=3072).astype(np.uint8).tobytes())
        path.write_bytes(bytes(records))
        return labels

    def test_loads_records(self, tmp_path):
        p1 = tmp_path / "data_batch_1.bin"
        p2 = tmp_path / "data_batch_2.bin"
        labels = self.make_file(p1, n=7) + self.make_file(p2, n=5, first_label=3)
        ds = load_cifar10_bin([p1, p2], split="train")
        assert ds.images.shape == (12, 3, 32, 32)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.labels.tolist() == labels
        assert ds.num_classes == 10
        assert np.all((ds.labels >= 0) & (ds.labels <= 9))

    def test_bad_length_rejected(self, tmp_path):
        p = tmp_path / "test_batch.bin"
        p.write_bytes(b"\x00" * (3073 * 2 + 5))
        with pytest.raises(DataError, match="3073"):
            load_cifar10_bin([p])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        with pytest.raises(DataError):
            load_cifar10_bin([p])

    def test_channel_mean_centering(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        q = tmp_path / "test_batch.bin"
        self.make_file(p, n=9)
        self.make_file(q, n=4)
        train = load_cifar10_bin([p], "train")
        test = load_cifar10_bin([q], "test")
        orig_test = test.images.copy()
        train_c, test_c, means = channel_mean_center(train, test)
        assert np.allclose(train_c.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        # test split shifted by the train means, not its own
        assert np.allclose(test_c.images, orig_test - means[None, :, None, None])


class TestSynthBlobs:
    def test_deterministic_per_seed(self):
        a = synth_blobs(5, 60, 3, 4)
        b = synth_blobs(5, 60, 3, 4)
        c = synth_blobs(6, 60, 3, 4)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_class_balance(self):
        ds = synth_blobs(0, 100, 10, 10)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.tolist() == [10] * 10

    def test_divisibility_required(self):
        with pytest.raises(ConfigError):
            synth_blobs(0, 101, 10, 10)

    def test_dim_must_cover_classes(self):
        with pytest.raises(ConfigError):
            synth_blobs(0, 10, 5, 3)

    def test_far_separated_blobs_are_linearly_separable(self):
        # Train a linear softmax model to convergence as the oracle.
        ds = synth_blobs(3, 200, 2, 2, separation=6.0)
        net = build_mlp((2,), [], 2, seed=3)
        opt = SGD(0.5)
        x = ds.images.reshape(200, 2)
        for _ in range(300):
            loss, cache = net.forward(x, ds.labels)
            opt.step(net.parameters(), net.backward(cache))
        pred = np.argmax(net.predict(x), axis=1)
        assert np.array_equal(pred, ds.labels)


class TestBatchStream:
    def test_full_batch_is_permutation(self):
        ds = synth_blobs(1, 24, 2, 2)
        stream = BatchStream(ds, batch_size=24, seed=9)
        x, y = stream.next_batch()
        assert x.shape[0] == 24
        order = np.lexsort(x.reshape(24, -1).T)
        base = np.lexsort(ds.images.reshape(24, -1).T)
        assert np.array_equal(x.reshape(24, -1)[order], ds.images.reshape(24, -1)[base])

    def test_equal_seeds_identical_sequences(self):
        ds = synth_blobs(1, 30, 3, 3)
        s1 = BatchStream(ds, 7, seed=4)
        s2 = BatchStream(ds, 7, seed=4)
        for _ in range(12):
            x1, y1 = s1.next_batch()
            x2, y2 = s2.next_batch()
            assert np.array_equal(x1, x2)
            assert np.array_equal(y1, y2)

    def test_epoch_covers_every_index_once(self):
        ds = synth_blobs(2, 25, 5, 5)
        stream = BatchStream(ds, 7, seed=11)  # 7 does not divide 25
        for epoch in range(3):
            seen = []
            count = 0
            while count < 25:
                x, y = stream.next_batch()
                count += x.shape[0]
                seen.append(x.reshape(x.shape[0], -1))
            got = np.concatenate(seen)
            assert got.shape[0] == 25
            order = np.lexsort(got.T)
            base = np.lexsort(ds.images.reshape(25, -1).T)
            assert np.array_equal(got[order], ds.images.reshape(25, -1)[base])

    def test_permutation_is_pure_function_of_seed_and_epoch(self):
        ds = synth_blobs(2, 10, 2, 2)
        a = BatchStream(ds, 10, seed=5)
        b = BatchStream(ds, 5, seed=5)
        first_a, _ = a.next_batch()          # epoch 0 in one slice
        b1, _ = b.next_batch()
        b2, _ = b.next_batch()
        assert np.array_equal(first_a, np.concatenate([b1, b2]))

    def test_batch_size_validated(self):
        ds = synth_blobs(2, 10, 2, 2)
        with pytest.raises(ConfigError):
            BatchStream(ds, 0)


class TestDatasetValidation:
    def test_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1, 2, 2)), np.zeros(4, dtype=np.int64), 2)

    def test_label_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1, 2, 2)), np.array([0, 1, 5]), 2)


def bits(x):
    """The float64 bit patterns of `x`, so that -0.0 != 0.0 and NaN == NaN."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestDecode:
    """Batches decode from the stored pixels to exactly the float64 values
    a whole-split decode followed by indexing gives."""

    def assert_same_batches(self, ds, ref, batch_size, steps=9):
        """Equal-seed streams over `ds` and a float64 dataset holding the
        reference values `ref` must emit bitwise equal batches."""
        ref_ds = Dataset(ref, ds.labels, ds.num_classes)
        got, want = BatchStream(ds, batch_size, seed=3), BatchStream(ref_ds, batch_size, seed=3)
        for _ in range(steps):  # several epochs, with ragged last batches
            (x, y), (x_ref, y_ref) = got.next_batch(), want.next_batch()
            assert x.dtype == np.float64 and x.shape == x_ref.shape
            assert np.array_equal(bits(x), bits(x_ref))
            assert np.array_equal(y, y_ref)
        for start in range(0, len(ds), batch_size):  # eval slices
            rows = slice(start, start + batch_size)
            assert np.array_equal(bits(ds.decode(rows)), bits(ref[rows]))

    def test_mnist_batches_are_bytes_over_255(self, tmp_path):
        img, lbl, pixels, _ = write_idx_pair(tmp_path, n=12)
        ds = load_mnist_idx(img, lbl)
        assert ds.pixels.dtype == np.uint8
        self.assert_same_batches(ds, pixels[:, None].astype(np.float64) / 255.0, 5)

    def test_blobs_batches_are_the_points(self):
        ds = synth_blobs(4, 24, 3, 5)
        assert ds.pixels.dtype == np.float64
        self.assert_same_batches(ds, ds.pixels.copy(), 7)

    def test_cifar_batches_are_scaled_then_centred(self, tmp_path):
        p, q = tmp_path / "data_batch_1.bin", tmp_path / "test_batch.bin"
        TestCifar10Bin().make_file(p, n=11)
        TestCifar10Bin().make_file(q, n=6)
        train, test, means = channel_mean_center(load_cifar10_bin([p]), load_cifar10_bin([q]))
        for ds in (train, test):
            assert ds.pixels.dtype == np.uint8
            ref = ds.pixels / 255.0 - means[None, :, None, None]
            self.assert_same_batches(ds, ref, 4)

    def test_equal_seeds_identical_sequences_on_stored_bytes(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, n=12)
        ds = load_mnist_idx(img, lbl)
        s1, s2 = BatchStream(ds, 5, seed=8), BatchStream(ds, 5, seed=8)
        for _ in range(7):
            (x1, y1), (x2, y2) = s1.next_batch(), s2.next_batch()
            assert np.array_equal(bits(x1), bits(x2))
            assert np.array_equal(y1, y2)

    def test_integer_sum_means_are_exact_and_near_float_means(self):
        gen = rng.generator(2, 0x3EA7)
        pixels = gen.integers(0, 256, size=(500, 3, 32, 32)).astype(np.uint8)
        ds = Dataset(pixels, np.zeros(500, dtype=np.int64), 10)
        _, _, means = channel_mean_center(ds, ds)
        count = pixels.size // 3
        for c in range(3):
            exact = Fraction(int(pixels[:, c].sum(dtype=np.int64)), 255 * count)
            assert means[c] == float(exact)  # correctly rounded
        # Within 64 ulp of the mean of the whole-split float64 decode.
        float_means = (pixels / 255.0).mean(axis=(0, 2, 3))
        assert np.all(np.abs(means - float_means) <= 64 * np.spacing(float_means))

    def test_centring_twice_is_centring_once(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        TestCifar10Bin().make_file(p, n=5)
        ds = load_cifar10_bin([p])
        once, _, m1 = channel_mean_center(ds, ds)
        twice, _, m2 = channel_mean_center(once, once)
        assert np.array_equal(m1, m2)
        assert np.array_equal(bits(once.images), bits(twice.images))
