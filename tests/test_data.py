"""Loader, corruption, concatenation, subset, batching and synthetic-data tests."""

import gzip
import hashlib
import os
import re

import numpy as np
import pytest

from sadnet.data import (LabeledDataset, batches, build_corrupted_train,
                         corrupt_labels, load_cifar10, load_idx, load_mnist, subset)
from sadnet.errors import ConsistencyError, FormatError, ValidationError
from sadnet.fixtures import (synth_blobs, synth_images, write_cifar10_fixture,
                             write_idx_images, write_idx_labels, write_mnist_fixture)


@pytest.fixture
def idx_pair(tmp_path):
    """Two-image IDX fixture with extreme pixel values."""
    images = np.zeros((2, 4, 3), dtype=np.uint8)
    images[1, :, :] = 255
    img_path = write_idx_images(tmp_path / "imgs", images)
    lab_path = write_idx_labels(tmp_path / "labs", [3, 9])
    return img_path, lab_path


class TestLoadIdx:
    def test_scaling_endpoints(self, idx_pair):
        ds = load_idx(*idx_pair, class_count=10)
        assert ds.images.shape == (2, 1, 4, 3)
        assert ds.images[0].max() == 0.0
        assert ds.images[1].min() == 1.0
        np.testing.assert_array_equal(ds.labels, [3, 9])
        assert ds.class_count == 10

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        raw_img = write_idx_images(tmp_path / "a", images)
        raw_lab = write_idx_labels(tmp_path / "b", [1, 2])
        gz_img = write_idx_images(tmp_path / "c", images, compress=True)
        gz_lab = write_idx_labels(tmp_path / "d", [1, 2], compress=True)
        plain = load_idx(raw_img, raw_lab, class_count=10)
        zipped = load_idx(gz_img, gz_lab, class_count=10)
        np.testing.assert_array_equal(plain.images, zipped.images)
        np.testing.assert_array_equal(plain.labels, zipped.labels)

    @pytest.mark.parametrize("mangle", [
        lambda gz: gz[:-12],                            # stream ends early
        lambda gz: gz[:2] + b"\x07" + gz[3:],           # unknown compression method
        lambda gz: gz[:12] + bytes(b ^ 0x5A for b in gz[12:]),  # garbled deflate body
    ], ids=["truncated", "bad-method", "garbled"])
    def test_corrupt_gzip_is_format_error(self, tmp_path, idx_pair, mangle):
        bad = tmp_path / "bad.gz"
        bad.write_bytes(mangle(gzip.compress(idx_pair[0].read_bytes())))
        with pytest.raises(FormatError, match="gzip"):
            load_idx(bad, idx_pair[1], class_count=10)

    def test_missing_file(self, tmp_path, idx_pair):
        with pytest.raises(ValidationError, match="absent"):
            load_idx(tmp_path / "absent", idx_pair[1], class_count=10)

    def test_wrong_magic(self, tmp_path, idx_pair):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_idx(bad, idx_pair[1], class_count=10)

    def test_truncated_file(self, tmp_path, idx_pair):
        good = idx_pair[0].read_bytes()
        bad = tmp_path / "trunc"
        bad.write_bytes(good[:-5])
        with pytest.raises(FormatError):
            load_idx(bad, idx_pair[1], class_count=10)

    def test_count_mismatch(self, tmp_path, idx_pair):
        lab3 = write_idx_labels(tmp_path / "three", [1, 2, 3])
        with pytest.raises(ConsistencyError):
            load_idx(idx_pair[0], lab3, class_count=10)

    def test_label_outside_class_count(self, tmp_path, idx_pair):
        labels = write_idx_labels(tmp_path / "labs200", [3, 200])
        with pytest.raises(FormatError, match="labs200: label 200 outside"):
            load_idx(idx_pair[0], labels, class_count=10)

    def test_loader_deterministic(self, idx_pair):
        a = load_idx(*idx_pair, class_count=10)
        b = load_idx(*idx_pair, class_count=10)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_mnist_fixture_names(self, tmp_path):
        paths = write_mnist_fixture(tmp_path, n_train=8, n_test=4)
        train = load_idx(paths["train_images"], paths["train_labels"], class_count=10)
        test = load_idx(paths["test_images"], paths["test_labels"], class_count=10)
        assert len(train) == 8
        assert len(test) == 4
        assert train.images.shape[1:] == (1, 28, 28)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_load_mnist_equals_load_idx(self, tmp_path, compress):
        paths = write_mnist_fixture(tmp_path, n_train=8, n_test=4, compress=compress)
        for split, ds in zip(("train", "test"), load_mnist(tmp_path, "fashion-mnist")):
            want = load_idx(paths[f"{split}_images"], paths[f"{split}_labels"], class_count=10)
            np.testing.assert_array_equal(ds.images, want.images)
            np.testing.assert_array_equal(ds.labels, want.labels)
            assert (ds.class_count, ds.name) == (10, f"fashion-mnist-{split}")


class TestWriteIdx:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = write_idx_images(tmp_path / "imgs", np.zeros((2, 4, 3), dtype=np.uint8))
        old = path.read_bytes()

        def fail(*args):
            raise OSError("write failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="write failed"):
            write_idx_images(path, np.full((3, 4, 3), 255, dtype=np.uint8))
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]


class TestLabeledDataset:
    @pytest.mark.parametrize("images,labels,error,match", [
        (np.zeros((2, 4, 4)), [0, 1], ValidationError, r"images must be \(N, C, H, W\)"),
        (np.zeros((2, 1, 4, 4)), [0, 1, 1], ConsistencyError, "2 images but 3 labels"),
        (np.zeros((2, 1, 4, 4)), [0, 3], ValidationError, r"labels must lie in \[0, 3\)"),
        (np.zeros((2, 1, 4, 4)), [-1, 0], ValidationError, r"labels must lie in \[0, 3\)"),
    ], ids=["rank", "count", "label-high", "label-negative"])
    def test_refuses_malformed_sets(self, images, labels, error, match):
        with pytest.raises(error, match=match):
            LabeledDataset(images, labels, 3)

    def test_numpy_class_count_becomes_int(self):
        labels = np.array([0, 2, 1])
        ds = LabeledDataset(np.zeros((3, 1, 2, 2)), labels, labels.max() + 1)
        assert ds.class_count == 3 and type(ds.class_count) is int

    @pytest.mark.parametrize("class_count", [3.0, "3", True], ids=["float", "str", "bool"])
    def test_class_count_of_wrong_type(self, class_count):
        with pytest.raises(ValidationError, match="class_count must be an int"):
            LabeledDataset(np.zeros((2, 1, 2, 2)), [0, 1], class_count)


class TestLoadCifar10:
    def test_fixture_round_trip(self, tmp_path):
        write_cifar10_fixture(tmp_path, n_per_batch=4, n_test=3)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 20
        assert len(test) == 3
        assert train.images.shape[1:] == (3, 32, 32)
        assert train.class_count == 10
        assert train.images.max() <= 1.0

    def test_batches_bin_subdirectory(self, tmp_path):
        # the official archive unpacks into cifar-10-batches-bin/; its parent may be given
        write_cifar10_fixture(tmp_path / "cifar-10-batches-bin", seed=2)
        for a, b in zip(load_cifar10(tmp_path), load_cifar10(tmp_path / "cifar-10-batches-bin")):
            np.testing.assert_array_equal(a.images, b.images)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_record_label(self, tmp_path):
        record = bytes([7]) + bytes(3072)
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(record)
        (tmp_path / "test_batch.bin").write_bytes(record)
        train, test = load_cifar10(tmp_path)
        np.testing.assert_array_equal(test.labels, [7])
        assert len(train) == 5

    def test_label_outside_ten_classes(self, tmp_path):
        base = write_cifar10_fixture(tmp_path)
        raw = bytearray((base / "test_batch.bin").read_bytes())
        raw[0] = 77
        (base / "test_batch.bin").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="test_batch.bin: label 77 outside"):
            load_cifar10(base)

    def test_channel_major_layout(self, tmp_path):
        # red plane all 255, green/blue zero -> channel 0 is ones
        pixels = bytes([255] * 1024 + [0] * 2048)
        record = bytes([1]) + pixels
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(record)
        (tmp_path / "test_batch.bin").write_bytes(record)
        _, test = load_cifar10(tmp_path)
        np.testing.assert_array_equal(test.images[0, 0], 1.0)
        np.testing.assert_array_equal(test.images[0, 1], 0.0)

    def test_missing_train_batch(self, tmp_path):
        write_cifar10_fixture(tmp_path)
        (tmp_path / "data_batch_3.bin").unlink()
        with pytest.raises(ValidationError, match="data_batch_3"):
            load_cifar10(tmp_path)

    def test_bad_record_length(self, tmp_path):
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(3073))
        (tmp_path / "test_batch.bin").write_bytes(bytes(3072))
        with pytest.raises(FormatError, match="3073"):
            load_cifar10(tmp_path)


class TestCorruptLabels:
    def test_binary_forced_flip(self):
        ds = LabeledDataset(np.zeros((3, 1, 1, 1)), np.array([0, 1, 0]), 2)
        out = corrupt_labels(ds, np.random.default_rng(0))
        np.testing.assert_array_equal(out.labels, [1, 0, 1])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])  # original untouched

    def test_no_fixed_points(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(2, 12))
            labels = rng.integers(0, k, size=n)
            ds = LabeledDataset(np.zeros((n, 1, 1, 1)), labels, k)
            out = corrupt_labels(ds, rng)
            assert (out.labels != labels).all()
            assert (out.labels >= 0).all() and (out.labels < k).all()

    def test_wrong_label_frequencies_uniform(self):
        # chi-square-style check: each (original, wrong) pair ~ N / (k * (k-1))
        k, n = 10, 90_000
        rng = np.random.default_rng(2)
        labels = rng.integers(0, k, size=n)
        ds = LabeledDataset(np.zeros((n, 1, 1, 1)), labels, k)
        out = corrupt_labels(ds, np.random.default_rng(3))
        expected = n / (k * (k - 1))
        sigma = np.sqrt(expected * (1 - 1.0 / (k - 1)))
        for orig in range(k):
            mask = labels == orig
            for wrong in range(k):
                if wrong == orig:
                    continue
                count = int((out.labels[mask] == wrong).sum())
                scaled_expected = mask.sum() / (k - 1)
                assert abs(count - scaled_expected) < 5 * sigma

    def test_rejects_single_class(self):
        ds = LabeledDataset(np.zeros((2, 1, 1, 1)), np.array([0, 0]), 1)
        with pytest.raises(ValidationError):
            corrupt_labels(ds, np.random.default_rng(0))

    def test_images_shared_not_copied_labels_new(self):
        ds = synth_blobs(10, k=3, dim=4, seed=4)
        out = corrupt_labels(ds, np.random.default_rng(5))
        np.testing.assert_array_equal(out.images, ds.images)


def tiny_dataset(n, k=10, label_cycle=True, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k if label_cycle else rng.integers(0, k, size=n)
    return LabeledDataset(rng.uniform(size=(n, 1, 2, 2)), labels, k)


class TestBuildCorruptedTrain:
    def test_mnist_sizes(self):
        train = tiny_dataset(60_000)
        test = tiny_dataset(10_000, seed=1)
        ctest = corrupt_labels(test, np.random.default_rng(2))
        out = build_corrupted_train(train, ctest)
        assert len(out) == 60_000 + 7 * 10_000 == 130_000

    def test_small_formula(self):
        out = build_corrupted_train(tiny_dataset(4000),
                                    corrupt_labels(tiny_dataset(1000, seed=3),
                                                   np.random.default_rng(4)))
        assert len(out) == 4000 + 5 * 1000

    def test_equal_sizes_twice_original(self):
        train = tiny_dataset(100)
        ctest = corrupt_labels(tiny_dataset(100, seed=5), np.random.default_rng(6))
        out = build_corrupted_train(train, ctest)
        assert len(out) == 300  # t = 2, "about twice" the original

    def test_train_prefix_verbatim(self):
        train = tiny_dataset(50)
        ctest = corrupt_labels(tiny_dataset(20, seed=7), np.random.default_rng(8))
        out = build_corrupted_train(train, ctest)
        np.testing.assert_array_equal(out.images[:50], train.images)
        np.testing.assert_array_equal(out.labels[:50], train.labels)

    def test_copies_identical(self):
        train = tiny_dataset(50)
        ctest = corrupt_labels(tiny_dataset(20, seed=9), np.random.default_rng(10))
        out = build_corrupted_train(train, ctest)
        t = 50 // 20 + 1
        for copy in range(t):
            start = 50 + copy * 20
            np.testing.assert_array_equal(out.labels[start:start + 20], ctest.labels)
            np.testing.assert_array_equal(out.images[start:start + 20], ctest.images)

    def test_mismatch_errors(self):
        train = tiny_dataset(10)
        bad_k = LabeledDataset(np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=int), 3)
        with pytest.raises(ConsistencyError):
            build_corrupted_train(train, bad_k)
        bad_shape = LabeledDataset(np.zeros((4, 1, 3, 3)), np.zeros(4, dtype=int), 10)
        with pytest.raises(ConsistencyError):
            build_corrupted_train(train, bad_shape)

    def test_empty_corrupted_test_rejected(self):
        empty = LabeledDataset(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=int), 10)
        with pytest.raises(ValidationError, match="empty"):
            build_corrupted_train(tiny_dataset(10), empty)


class TestSubset:
    def test_full_size_is_permutation(self):
        ds = tiny_dataset(30)
        out = subset(ds, 30, np.random.default_rng(0))
        assert sorted(out.labels.tolist()) == sorted(ds.labels.tolist())
        assert len(out) == 30

    def test_stratified_balance(self):
        ds = tiny_dataset(1000)
        out = subset(ds, 100, np.random.default_rng(1))
        counts = np.bincount(out.labels, minlength=10)
        np.testing.assert_array_equal(counts, 10)

    def test_stratified_remainder(self):
        ds = tiny_dataset(1000)
        out = subset(ds, 103, np.random.default_rng(2))
        counts = np.bincount(out.labels, minlength=10)
        assert counts.sum() == 103
        assert set(counts.tolist()) <= {10, 11}

    def test_same_seed_identical(self):
        ds = tiny_dataset(50)
        a = subset(ds, 20, np.random.default_rng(3))
        b = subset(ds, 20, np.random.default_rng(3))
        np.testing.assert_array_equal(a.images, b.images)

    def test_validation(self):
        ds = tiny_dataset(20)
        with pytest.raises(ValidationError):
            subset(ds, 21, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            subset(ds, 5, np.random.default_rng(0))

    def test_errors_name_the_set_and_size(self):
        labels = [0, 0, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2]  # no class 1
        ds = LabeledDataset(np.zeros((12, 1, 1, 1)), labels, 10, "x-test")
        for n, message in ((10, "class 1 has 0 examples; a class-balanced subset of 10 needs 1"),
                           (13, "subset size 13 outside [1, 12]"),
                           (5, "a class-balanced subset needs n >= 10, got 5")):
            with pytest.raises(ValidationError, match=f"^{re.escape('x-test: ' + message)}$"):
                subset(ds, n, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=r"^unnamed set: subset size 13 outside \[1, 12\]$"):
            subset(LabeledDataset(ds.images, ds.labels, 10), 13, np.random.default_rng(0))


class TestBatches:
    def test_remainder_batch(self):
        ds = tiny_dataset(10)
        sizes = [len(y) for _, y in batches(ds, 3, seed=0, epoch=1)]
        assert sizes == [3, 3, 3, 1]

    def test_partition_property(self):
        ds = tiny_dataset(23)
        got = np.concatenate([y for _, y in batches(ds, 5, seed=1, epoch=2)])
        assert sorted(got.tolist()) == sorted(ds.labels.tolist())

    def test_same_seed_epoch_identical(self):
        ds = tiny_dataset(17)
        a = [y for _, y in batches(ds, 4, seed=2, epoch=3)]
        b = [y for _, y in batches(ds, 4, seed=2, epoch=3)]
        for ya, yb in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_epochs_differ(self):
        ds = tiny_dataset(64)
        a = np.concatenate([y for _, y in batches(ds, 64, seed=3, epoch=1)])
        b = np.concatenate([y for _, y in batches(ds, 64, seed=3, epoch=2)])
        assert not np.array_equal(a, b)

    def test_batch_size_validated(self):
        with pytest.raises(ValidationError, match="batch_size"):
            next(batches(tiny_dataset(4), 0, seed=0, epoch=1))


class TestSynthImages:
    # sha256 of little-endian float64 images then int64 labels, per split; these
    # are the acceptance and benchmark inputs, so they must never drift
    DIGESTS = {
        0: ("fb286369fcbf2b44a6bfe754e9c9b981f6b700c26a551a4ac0a06ba0aba5d7f5",
            "25ede79f5166d9ce8e4b54806752a0e76c4745c4ca2d6de180e641744cfbd632"),
        1: ("50d7a8544c6ffc31796e865f2d3fe37a45d92861aa31c2e959654a062d169334",
            "21563aabf0ac29800f5e61db07c911f4e1148d436e95735c0460b364b9cdd0ab"),
    }

    @pytest.mark.parametrize("data_seed", sorted(DIGESTS))
    def test_acceptance_data_pinned(self, data_seed):
        digests = []
        for ds in synth_images(4000, 1000, data_seed=data_seed):
            h = hashlib.sha256(ds.images.astype("<f8").tobytes())
            h.update(ds.labels.astype("<i8").tobytes())
            digests.append(h.hexdigest())
        assert tuple(digests) == self.DIGESTS[data_seed]
