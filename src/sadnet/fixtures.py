"""Synthetic datasets and tiny on-disk fixtures.

Everything here is deterministic in its seed, so the whole test suite
runs without downloading anything. The synthetic image task is shaped
like the MNIST family (10 classes, 28x28, single channel): smooth class
prototypes under amplitude jitter and per-pixel noise. The fixed
noise level is a deliberate balance: high enough that a 512-unit MLP
can also memorize deliberately mislabeled copies of the test images
(per-sample noise makes every image individually distinguishable), low
enough that clean training generalizes well and can overwrite that
memorization when restarted from such a point.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# the IDX writers live in data; perfbench and the tests also import them from here
from .data import (CIFAR_TEST_FILE, CIFAR_TRAIN_FILES, MNIST_NAMES, LabeledDataset,
                   write_cifar10_file, write_idx_images, write_idx_labels)

SYNTH_CLASSES = 10
SYNTH_HW = 28
SYNTH_NOISE = 0.25
SYNTH_OFFSET = 0.25
BLOB_SPREAD = 0.12


def _class_prototypes(rng: np.random.Generator, k: int, hw: int) -> np.ndarray:
    """Smooth per-class patterns: a handful of signed Gaussian bumps."""
    yy, xx = np.mgrid[0:hw, 0:hw]
    protos = np.zeros((k, hw, hw))
    for c in range(k):
        for _ in range(6):
            cy, cx = rng.uniform(hw * 0.15, hw * 0.85, size=2)
            sigma = rng.uniform(hw * 0.07, hw * 0.18)
            sign = rng.choice([-1.0, 1.0])
            protos[c] += sign * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        lo, hi = protos[c].min(), protos[c].max()
        protos[c] = (protos[c] - lo) / (hi - lo)
    return protos


def synth_images(n_train: int, n_test: int, *, data_seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic 10-class image task at MNIST-family geometry.

    Each image is its class prototype scaled by a U[0.6, 1] amplitude, plus
    N(0, SYNTH_NOISE) pixel noise, darkened by SYNTH_OFFSET and clipped to
    [0, 1]; the offset gives the sparse pixel statistics typical of
    handwritten-digit data.
    """
    rng = np.random.default_rng((data_seed, 404))
    protos = _class_prototypes(rng, SYNTH_CLASSES, SYNTH_HW)

    def draw(n, tag):
        labels = rng.integers(0, SYNTH_CLASSES, size=n)
        # built in place: the output and the noise are the only full-size arrays,
        # and the output is allocated first so that freeing the noise leaves no hole
        images = protos[labels]
        amps = rng.uniform(0.6, 1.0, size=n)
        noise = rng.normal(0.0, SYNTH_NOISE, size=(n, SYNTH_HW, SYNTH_HW))
        images *= amps[:, None, None]
        images += noise
        images -= SYNTH_OFFSET
        np.clip(images, 0.0, 1.0, out=images)
        return LabeledDataset(images[:, None], labels, SYNTH_CLASSES, f"synth-{tag}")

    return draw(n_train, "train"), draw(n_test, "test")


def synth_blobs(n: int, *, k: int, dim: int, seed: int, name: str = "blobs") -> LabeledDataset:
    """Gaussian clusters as (n, 1, 1, dim) images; easy to memorize."""
    rng = np.random.default_rng((seed, 505))
    centers = rng.uniform(0.0, 1.0, size=(k, dim))
    labels = rng.integers(0, k, size=n)
    images = np.clip(centers[labels] + rng.normal(0.0, BLOB_SPREAD, size=(n, dim)), 0.0, 1.0)
    return LabeledDataset(images.reshape(n, 1, 1, dim), labels, k, name)


def write_mnist_fixture(dir_path, n_train: int = 64, n_test: int = 16,
                        seed: int = 0, compress: bool = False) -> dict[str, Path]:
    """Write a tiny random IDX train/test pair using the standard file names."""
    base = Path(dir_path)
    rng = np.random.default_rng((seed, 606))
    paths = {}
    for split, n in (("train", n_train), ("test", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        paths[f"{split}_images"] = write_idx_images(base / MNIST_NAMES[f"{split}_images"], images, compress)
        paths[f"{split}_labels"] = write_idx_labels(base / MNIST_NAMES[f"{split}_labels"], labels, compress)
    return paths


def write_cifar10_fixture(dir_path, n_per_batch: int = 4, n_test: int = 4, seed: int = 0) -> Path:
    """Write tiny CIFAR-10 files: the five train batches and the test batch."""
    base = Path(dir_path)
    rng = np.random.default_rng((seed, 707))
    for fname, n in (dict.fromkeys(CIFAR_TRAIN_FILES, n_per_batch) | {CIFAR_TEST_FILE: n_test}).items():
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_cifar10_file(base / fname, labels, rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8))
    return base
