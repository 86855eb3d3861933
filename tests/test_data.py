import gzip
import math
import os
import re
import struct
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr import data as data_io
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

# A gzip member header with no optional fields (deflate, no flags, Unix).
GZIP_HEADER = bytes.fromhex("1f8b0800000000000003")


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
        ds = load_mnist_idx(img, lbl)
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

    @pytest.mark.parametrize("n, w", [(0, 4), (12, 0)])
    def test_file_with_no_pixels_rejected(self, n, w, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, n=n, w=w)
        with pytest.raises(DataError, match="no pixels"):
            load_mnist_idx(img, lbl)

    # Counts whose product overflows a read size, or would be gigabytes.
    @pytest.mark.parametrize("n, h, w", [(2 ** 32 - 1,) * 3, (0xFFFFFF, 0xFFFF, 0xFF)])
    def test_header_claiming_more_pixels_than_the_file_holds(self, n, h, w, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        img.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + bytes(40))
        with pytest.raises(DataError, match=f"expected {n * h * w} pixel bytes, got 40"):
            load_mnist_idx(img, lbl)

    def test_header_claiming_more_labels_than_the_file_holds(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        lbl.write_bytes(struct.pack(">II", 0x801, 2 ** 32 - 1) + bytes(12))
        with pytest.raises(DataError, match=f"expected {2 ** 32 - 1} label bytes, got 12"):
            load_mnist_idx(img, lbl)

    # Trailing bytes point to a wrong header or a wrong file: MNIST's are exact.
    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("which, item, size, extra", [
        ("images", "pixel", 2 * 28 * 28, 20), ("labels", "label", 2, 2)])
    def test_file_longer_than_its_header_claims_rejected(self, gz, which, item, size, extra,
                                                         tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, n=2, h=28, w=28, gz=gz)
        path = img if which == "images" else lbl
        opener = gzip.open if gz else open
        with opener(path, "rb") as f:
            content = f.read()
        with opener(path, "wb") as f:
            f.write(content + bytes(extra))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: expected {size} {item} bytes, got {size + extra}")):
            load_mnist_idx(img, lbl)

    # One case per way a .gz can fail to inflate: gzip's EOFError, its
    # BadGzipFile, and zlib.error from a bad deflate stream.
    @pytest.mark.parametrize("damage, reason", [
        pytest.param(lambda b: b[:len(b) // 2], "Compressed file ended", id="truncated"),
        pytest.param(lambda b: b"not gzip", "Not a gzipped file", id="not-gzip"),
        pytest.param(lambda b: GZIP_HEADER + b"\xff" * 40, "Error -3 while decompressing",
                     id="bad-deflate"),
    ])
    def test_gzip_that_cannot_be_inflated_is_a_data_error(self, damage, reason, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, gz=True)
        lbl.write_bytes(damage(lbl.read_bytes()))
        with pytest.raises(DataError, match=re.escape(f"{lbl}: cannot read: ") + reason):
            load_mnist_idx(img, lbl)

    @pytest.mark.parametrize("gz", [False, True])
    def test_directory_in_place_of_a_file_is_a_data_error(self, gz, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, gz=gz)
        img.unlink()
        img.mkdir()
        with pytest.raises(DataError, match=re.escape(f"{img}: cannot read: Is a directory")):
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
        ds = load_cifar10_bin([p1, p2])
        assert ds.images.shape == (12, 3, 32, 32)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.labels.tolist() == labels
        assert ds.num_classes == 10
        assert np.all((ds.labels >= 0) & (ds.labels <= 9))

    def test_bad_length_rejected(self, tmp_path):
        good, p = tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"
        self.make_file(good, n=2)
        p.write_bytes(b"\x00" * (3073 * 2 + 5))
        with pytest.raises(DataError, match=re.escape(f"{p}: file length {3073 * 2 + 5} ")
                           + ".*3073-byte record"):
            load_cifar10_bin([good, p])

    def test_empty_file_rejected(self, tmp_path):
        good, p = tmp_path / "data_batch_1.bin", tmp_path / "empty.bin"
        self.make_file(good, n=2)
        p.write_bytes(b"")
        with pytest.raises(DataError, match=re.escape(f"{p}: file length 0 ")):
            load_cifar10_bin([good, p])

    def test_directory_in_place_of_a_file_is_a_data_error(self, tmp_path):
        good, p = tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"
        self.make_file(good, n=2)
        p.mkdir()
        with pytest.raises(DataError, match=re.escape(f"{p}: cannot read: Is a directory")):
            load_cifar10_bin([good, p])

    def test_files_load_in_order_as_the_per_file_loads_stacked(self, tmp_path):
        paths = [tmp_path / f"data_batch_{i}.bin" for i in (1, 2, 3)]
        for path, n, first in zip(paths, (4, 7, 2), (5, 0, 8)):
            self.make_file(path, n=n, first_label=first)
        ds = load_cifar10_bin(paths[::-1])
        parts = [load_cifar10_bin([path]) for path in paths[::-1]]
        assert ds.pixels.dtype == np.uint8
        assert np.array_equal(ds.pixels, np.concatenate([p.pixels for p in parts]))
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, np.concatenate([p.labels for p in parts]))

    def test_read_shorter_than_the_file_size_is_named(self, tmp_path, monkeypatch):
        p = tmp_path / "data_batch_1.bin"
        self.make_file(p, n=3)
        fstat = os.fstat
        monkeypatch.setattr(data_io.os, "fstat", lambda fd: SimpleNamespace(
            st_size=fstat(fd).st_size + 3073))
        with pytest.raises(DataError, match=re.escape(f"{p}: read 9219 of its 12292 bytes")):
            load_cifar10_bin([p])

    def test_channel_mean_centering(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        q = tmp_path / "test_batch.bin"
        self.make_file(p, n=9)
        self.make_file(q, n=4)
        train = load_cifar10_bin([p])
        test = load_cifar10_bin([q])
        orig_test = test.images.copy()
        train_c, test_c = channel_mean_center(train, test)
        means = train_c.means
        assert test_c.means is means
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

    @pytest.mark.parametrize("n, classes, separation", [
        (12, 0, 6.0), (0, 4, 6.0), (12, 4, float("nan")), (12, 4, float("inf"))])
    def test_bad_size_or_separation_rejected(self, n, classes, separation):
        with pytest.raises(ConfigError):
            synth_blobs(0, n, classes, 8, separation)

    def test_far_separated_blobs_are_linearly_separable(self):
        # Train a linear softmax model to convergence as the oracle.
        ds = synth_blobs(3, 200, 2, 2, separation=6.0)
        net = build_mlp((2,), [], 2, seed=3)
        opt = SGD(0.5)
        x = ds.images.reshape(200, 2)
        for _ in range(300):
            opt.descend(net.parameters(), lambda: net.value_grad(x, ds.labels))
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
        train, test = channel_mean_center(load_cifar10_bin([p]), load_cifar10_bin([q]))
        for ds in (train, test):
            assert ds.pixels.dtype == np.uint8
            ref = ds.pixels / 255.0 - train.means[None, :, None, None]
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
        means = channel_mean_center(ds, ds)[0].means
        count = pixels.size // 3
        for c in range(3):
            exact = Fraction(int(pixels[:, c].sum(dtype=np.int64)), 255 * count)
            assert means[c] == float(exact)  # correctly rounded
        # Within 64 ulp of the mean of the whole-split float64 decode.
        float_means = (pixels / 255.0).mean(axis=(0, 2, 3))
        assert np.all(np.abs(means - float_means) <= 64 * np.spacing(float_means))

    def test_integer_sums_are_exact_at_the_largest_image(self):
        # All-255 images of h*w = 16,843,009 pixels: each image's sum is
        # 2**32 - 1, the largest a uint32 holds, and two images' sum is not.
        h, w = 257, 65537
        pixels = np.broadcast_to(np.uint8(255), (2, 1, h, w))
        ds = Dataset(pixels, np.zeros(2, dtype=np.int64), 10)
        means = channel_mean_center(ds, ds)[0].means
        total = sum(255 * h * w for _ in range(2))
        assert total > 2 ** 32
        assert means[0] == total / (255 * 2 * h * w) == 1.0

    def test_centring_twice_is_centring_once(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        TestCifar10Bin().make_file(p, n=5)
        ds = load_cifar10_bin([p])
        once, _ = channel_mean_center(ds, ds)
        twice, _ = channel_mean_center(once, once)
        assert np.array_equal(once.means, twice.means)
        assert np.array_equal(bits(once.images), bits(twice.images))


# Property tests: whatever bytes a data file holds, a reader gives a Dataset
# or a DataError. Files are small, so each example reads in microseconds.
@st.composite
def _idx_file(draw, magic, counts, item_max):
    """An IDX file as (gzipped, bytes): most often `magic` and `counts` over
    a payload of items up to `item_max`; else that file cut or lengthened,
    or with another header, or arbitrary bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.booleans()), draw(st.binary(max_size=40))
    if draw(st.integers(0, 9)) == 0:
        magic = draw(st.sampled_from([magic, 0x803, 0x801, 0x802, 0]))
        counts = draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1)),
                               min_size=magic & 0xFF, max_size=magic & 0xFF))
    size = math.prod(counts)
    size = size if size <= 64 else draw(st.integers(0, 64))
    payload = bytes(draw(st.lists(st.integers(0, item_max), min_size=size, max_size=size)))
    content = struct.pack(f">{1 + len(counts)}I", magic, *counts) + payload
    if draw(st.integers(0, 4)) == 0:
        content = draw(st.sampled_from([content[:-1], content + b"\0",
                                        content[:draw(st.integers(0, 12))]]))
    return draw(st.booleans()), content


@st.composite
def _idx_pair(draw):
    n, h, w = (draw(st.integers(0, 3)) for _ in range(3))
    n_labels = n + (draw(st.integers(0, 9)) == 0)
    return draw(_idx_file(0x803, [n, h, w], 255)), draw(_idx_file(0x801, [n_labels], 10))


@given(pair=_idx_pair())
@settings(max_examples=150, deadline=None)
def test_any_idx_pair_is_a_dataset_or_a_data_error(pair):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, (gz, content) in zip(("images", "labels"), pair):
            path = Path(tmp) / (name + (".gz" if gz else ""))
            path.write_bytes(gzip.compress(content) if gz else content)
            paths.append(path)
        try:
            ds = load_mnist_idx(*paths)
        except DataError:
            return
    assert len(ds) == len(ds.labels) > 0


@given(content=st.binary(max_size=40) | st.lists(
    st.builds(lambda label, pixel: bytes([label]) + pixel * 3072,
              st.integers(0, 11), st.binary(min_size=1, max_size=1)), max_size=3).map(b"".join))
@settings(max_examples=100, deadline=None)
def test_any_cifar_batch_file_is_a_dataset_or_a_data_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data_batch_1.bin"
        path.write_bytes(content)
        try:
            ds = load_cifar10_bin([path])
        except DataError:
            return
    assert len(ds) * data_io.CIFAR_RECORD_BYTES == len(content)
