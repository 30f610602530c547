"""Dataset ingestion, label corruption, and deterministic batching.

Binary containers, read and written here alone:
  IDX      big-endian; magic 0x00000803 (images) / 0x00000801 (labels),
           then the declared dimension sizes as 32-bit integers, then
           raw unsigned bytes.
  CIFAR-10 3073-byte records: one label byte followed by 3072 pixel
           bytes in channel-major R,G,B planes.
Both loaders accept gzip-compressed files (detected by the 0x1f 0x8b
magic). Pixels are scaled by 1/255 into [0, 1]; no standardization.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, FormatError, ValidationError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"
MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class LabeledDataset:
    """Images (N, C, H, W) in [0, 1], integer labels in [0, k)."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str = ""

    def __post_init__(self):
        if isinstance(self.class_count, np.integer):  # e.g. labels.max() + 1
            self.class_count = int(self.class_count)
        if type(self.class_count) is not int:
            raise ValidationError(f"class_count must be an int, got {self.class_count!r}")
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValidationError(f"images must be (N, C, H, W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ConsistencyError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValidationError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return self.images.shape[0]


def _read_bytes(path) -> bytes:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read data file {path}: {exc.strerror}") from exc
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    return raw


def _write_atomic(path: Path, *chunks: bytes) -> Path:
    """Every file sadnet writes goes through here: chunks go to a sibling temporary file renamed
    over path, so path holds its old content or all of the new. Creates path's directory; returns path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_bytes(path: Path, payload: bytes, compress: bool) -> Path:
    """Write payload to path, or gzipped to path + ".gz" with a fixed mtime, so the bytes reproduce."""
    if compress:
        path = path.with_name(path.name + ".gz")
        payload = gzip.compress(payload, mtime=0)
    return _write_atomic(path, payload)


def write_idx_images(path, images_u8: np.ndarray, compress: bool = False) -> Path:
    """Write (N, rows, cols) uint8 images as an IDX file."""
    n, rows, cols = images_u8.shape
    payload = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + images_u8.astype(np.uint8).tobytes()
    return _write_bytes(Path(path), payload, compress)


def write_idx_labels(path, labels, compress: bool = False) -> Path:
    labels = np.asarray(labels, dtype=np.uint8)
    payload = struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + labels.tobytes()
    return _write_bytes(Path(path), payload, compress)


def write_cifar10_file(path, labels, images_u8) -> Path:
    """Write N labels and N uint8 3x32x32 images as CIFAR-10 records."""
    records = np.column_stack([labels, np.reshape(images_u8, (len(labels), CIFAR_RECORD_BYTES - 1))])
    return _write_bytes(Path(path), records.astype(np.uint8).tobytes(), compress=False)


def _idx_header(raw: bytes, path, magic_want: int, ndim: int):
    head = 4 * (1 + ndim)
    if len(raw) < head:
        raise FormatError(f"{path}: truncated IDX header")
    fields = struct.unpack(f">{1 + ndim}I", raw[:head])
    if fields[0] != magic_want:
        raise FormatError(f"{path}: bad IDX magic {fields[0]}, expected {magic_want}")
    return fields[1:], raw[head:]


def _check_labels(labels: np.ndarray, path, class_count: int) -> np.ndarray:
    """Return the labels read from path; one outside [0, class_count) is a FormatError naming path."""
    if labels.max(initial=0) >= class_count:
        raise FormatError(f"{path}: label {labels.max()} outside [0, {class_count})")
    return labels


def load_idx(images_path, labels_path, class_count: int, name: str = "") -> LabeledDataset:
    """Parse an IDX image/label pair into a dataset shaped (N, 1, rows, cols)."""
    raw = _read_bytes(images_path)
    (n, rows, cols), body = _idx_header(raw, images_path, IDX_IMAGE_MAGIC, 3)
    if len(body) != n * rows * cols:
        raise FormatError(f"{images_path}: expected {n * rows * cols} pixel bytes, found {len(body)}")
    images = np.frombuffer(body, dtype=np.uint8).reshape(n, 1, rows, cols) / 255.0

    raw = _read_bytes(labels_path)
    (n_labels,), body = _idx_header(raw, labels_path, IDX_LABEL_MAGIC, 1)
    if len(body) != n_labels:
        raise FormatError(f"{labels_path}: expected {n_labels} label bytes, found {len(body)}")
    if n_labels != n:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    labels = _check_labels(np.frombuffer(body, dtype=np.uint8), labels_path, class_count)
    return LabeledDataset(images, labels, class_count, name or Path(images_path).stem)


def load_mnist(dir_path, name: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the MNIST_NAMES train and test pairs from dir_path, each plain or gzipped,
    as the 10-class sets <name>-train and <name>-test."""
    base = Path(dir_path)

    def load_split(split):
        images, labels = MNIST_NAMES[f"{split}_images"], MNIST_NAMES[f"{split}_labels"]
        for suffix in ("", ".gz"):
            pair = base / (images + suffix), base / (labels + suffix)
            if pair[0].exists() and pair[1].exists():
                return load_idx(*pair, class_count=10, name=f"{name}-{split}")
        raise ValidationError(f"missing {images}[.gz] / {labels}[.gz] under {base}")

    return load_split("train"), load_split("test")


def _load_cifar_file(path):
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES:
        raise FormatError(f"{path}: length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    images = records[:, 1:].reshape(-1, 3, 32, 32) / 255.0
    return images, _check_labels(records[:, 0], path, 10)


def load_cifar10(dir_path) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the 5 train batch files and the test batch from dir_path."""
    base = Path(dir_path)
    if not (base / CIFAR_TEST_FILE).exists() and (base / "cifar-10-batches-bin" / CIFAR_TEST_FILE).exists():
        base = base / "cifar-10-batches-bin"
    images, labels = zip(*(_load_cifar_file(base / fname) for fname in CIFAR_TRAIN_FILES))
    train = LabeledDataset(np.concatenate(images), np.concatenate(labels), 10, "cifar10-train")
    return train, LabeledDataset(*_load_cifar_file(base / CIFAR_TEST_FILE), 10, "cifar10-test")


def corrupt_labels(ds: LabeledDataset, rng: np.random.Generator) -> LabeledDataset:
    """Replace every label with one drawn uniformly from the k-1 wrong classes.

    The original dataset is untouched; the draw happens once, so the
    corrupted labels are fixed thereafter.
    """
    k = ds.class_count
    if k < 2:
        raise ValidationError(f"corruption needs at least 2 classes, got {k}")
    offsets = rng.integers(1, k, size=len(ds))
    new_labels = (ds.labels + offsets) % k
    return LabeledDataset(ds.images, new_labels, k, f"{ds.name}-corrupted")


def build_corrupted_train(train: LabeledDataset, corrupted_test: LabeledDataset) -> LabeledDataset:
    """Append t = floor(train/test) + 1 verbatim copies of the corrupted test set.

    The clean train set stays as the prefix, so perfect accuracy on the
    result implies perfect accuracy on the original train set.
    """
    if train.class_count != corrupted_test.class_count:
        raise ConsistencyError(
            f"class counts differ: {train.class_count} vs {corrupted_test.class_count}")
    if train.images.shape[1:] != corrupted_test.images.shape[1:]:
        raise ConsistencyError(
            f"image shapes differ: {train.images.shape[1:]} vs {corrupted_test.images.shape[1:]}")
    if len(corrupted_test) == 0:
        raise ValidationError("corrupted test set is empty: the test split holds no images")
    t = len(train) // len(corrupted_test) + 1
    images = np.concatenate([train.images] + [corrupted_test.images] * t)
    labels = np.concatenate([train.labels] + [corrupted_test.labels] * t)
    return LabeledDataset(images, labels, train.class_count, f"{train.name}+{t}x{corrupted_test.name}")


def subset(ds: LabeledDataset, n: int, rng: np.random.Generator) -> LabeledDataset:
    """Sample n examples without replacement, balanced across the k classes."""
    name = ds.name or "unnamed set"  # errors name the set, since a run cuts two
    if n < 1 or n > len(ds):
        raise ValidationError(f"{name}: subset size {n} outside [1, {len(ds)}]")
    k = ds.class_count
    if n < k:
        raise ValidationError(f"{name}: a class-balanced subset needs n >= {k}, got {n}")
    base, extra = divmod(n, k)
    # classes granted one extra sample are chosen by the rng, keeping it deterministic
    bonus = set(rng.permutation(k)[:extra].tolist())
    picks = []
    for c in range(k):
        idx = np.flatnonzero(ds.labels == c)
        want = base + (1 if c in bonus else 0)
        if want > len(idx):
            raise ValidationError(f"{name}: class {c} has {len(idx)} examples; "
                                  f"a class-balanced subset of {n} needs {want}")
        picks.append(rng.choice(idx, size=want, replace=False))
    pick = np.concatenate(picks)
    pick = pick[rng.permutation(len(pick))]
    return LabeledDataset(ds.images[pick], ds.labels[pick], ds.class_count, f"{ds.name}-sub{n}")


def batches(ds: LabeledDataset, batch_size: int, seed: int, epoch: int):
    """Yield (images, labels) batches covering the dataset exactly once.

    Order is one permutation per (seed, epoch); the final short batch is
    included.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be positive, got {batch_size}")
    perm = np.random.default_rng((seed, epoch)).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        pick = perm[start:start + batch_size]
        yield ds.images[pick], ds.labels[pick]
