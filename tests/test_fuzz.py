"""Seeded fuzzing of the on-disk parsers: checkpoint headers, IDX and CIFAR-10.

Every mutated file must either load or raise a SadnetError subclass; any
other exception would reach the command line as a raw traceback.
"""

import gzip
import json
import struct

import numpy as np
import pytest

from sadnet.data import load_cifar10, load_idx, write_idx_images, write_idx_labels
from sadnet.errors import SadnetError
from sadnet.experiment import (CHECKPOINT_MAGIC, TrainConfig, checkpoint_of, load_checkpoint,
                               save_checkpoint)
from sadnet.fixtures import write_cifar10_fixture
from sadnet.nn import build_cnn, build_mlp

# values every header field and arch key is retyped to in turn
RETYPES = [None, True, False, 0, -1, 2.5, "8", [], [8], {}, {"kind": "mlp"}]


def escapes(load, cases):
    """One line per case whose load raises an exception that is not a SadnetError."""
    found = []
    for description, prepare in cases:
        prepare()
        try:
            load()
        except SadnetError:
            pass
        except Exception as exc:  # collecting exactly these is the point of the test
            found.append(f"{description}: {type(exc).__name__}: {exc}")
    return found


def byte_mutations(raw: bytes, rng: np.random.Generator, region: int, flips: int):
    """Truncations at every length up to region, then seeded single-bit flips in it."""
    for cut in range(region + 1):
        yield f"truncate to {cut}", raw[:cut]
    for _ in range(flips):
        pos = int(rng.integers(0, region))
        bit = int(rng.integers(0, 8))
        mutated = bytearray(raw)
        mutated[pos] ^= 1 << bit
        yield f"flip byte {pos} bit {bit}", bytes(mutated)


def write_case(path, data):
    return lambda: path.write_bytes(data)


class TestCheckpointFuzz:
    @staticmethod
    def saved(tmp_path, model, name):
        return save_checkpoint(checkpoint_of(model, TrainConfig(), "clean"),
                               tmp_path / name)

    @staticmethod
    def split(raw: bytes):
        start = len(CHECKPOINT_MAGIC) + 8
        (length,) = struct.unpack(">Q", raw[start - 8:start])
        return json.loads(raw[start:start + length]), raw[start + length:]

    @staticmethod
    def assemble(header, payload: bytes) -> bytes:
        body = json.dumps(header).encode()
        return CHECKPOINT_MAGIC + struct.pack(">Q", len(body)) + body + payload

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_header_fields(self, tmp_path, kind):
        model = build_mlp(12, 5, 3) if kind == "mlp" else build_cnn(1, 8, 3)
        path = self.saved(tmp_path, model, "model.ckpt")
        header, payload = self.split(path.read_bytes())
        # older files also carry shapes, seed and flags, which load ignores
        header.update(shapes=[list(s) for s in model.shapes], seed=0, flags={"saturated": False})
        cases = []
        # (container, key) for every top-level field and every arch key
        slots = [(None, key) for key in header]
        slots += [("arch", key) for key in header["arch"]]
        for parent, key in slots:
            variants = [("delete", None)] + [(f"retype to {value!r}", value) for value in RETYPES]
            for label, value in variants:
                mutated = json.loads(json.dumps(header))
                holder = mutated if parent is None else mutated[parent]
                if label == "delete":
                    del holder[key]
                else:
                    holder[key] = value
                cases.append((f"{parent or 'header'}[{key!r}] {label}",
                              write_case(path, self.assemble(mutated, payload))))
        assert len(cases) > 100
        found = escapes(lambda: load_checkpoint(path).to_model(), cases)
        assert found == []

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_header_bytes(self, tmp_path, kind):
        model = build_mlp(12, 5, 3) if kind == "mlp" else build_cnn(1, 8, 3)
        path = self.saved(tmp_path, model, "model.ckpt")
        raw = path.read_bytes()
        region = len(raw) - len(self.split(raw)[1])  # magic, length and header
        rng = np.random.default_rng(11 if kind == "mlp" else 12)
        cases = [(label, write_case(path, data))
                 for label, data in byte_mutations(raw, rng, region, flips=400)]
        found = escapes(lambda: load_checkpoint(path).to_model(), cases)
        assert found == []


class TestIdxFuzz:
    @pytest.fixture
    def pair(self, tmp_path):
        rng = np.random.default_rng(31)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        return (write_idx_images(tmp_path / "images", images),
                write_idx_labels(tmp_path / "labels", [0, 3, 9, 1, 2]))

    @staticmethod
    def loader(images, labels):
        return lambda: load_idx(images, labels, class_count=10)

    def test_image_file(self, pair, tmp_path):
        images, labels = pair
        raw = images.read_bytes()
        n, rows, cols = struct.unpack(">III", raw[4:16])
        body = raw[16:]
        rng = np.random.default_rng(32)
        cases = [(label, write_case(images, data))
                 for label, data in byte_mutations(raw, rng, len(raw), flips=200)]
        for magic in (0, 2049, 2050, 2052, 0xFFFFFFFF):
            cases.append((f"magic {magic}", write_case(
                images, struct.pack(">IIII", magic, n, rows, cols) + body)))
        for dims in ((0, rows, cols), (n - 1, rows, cols), (n + 1, rows, cols),
                     (n, 0, cols), (n, rows, cols + 1), (0xFFFFFFFF, rows, cols),
                     (n, 0xFFFFFFFF, 0xFFFFFFFF)):
            cases.append((f"dims {dims}", write_case(
                images, struct.pack(">IIII", 2051, *dims) + body)))
        zipped = gzip.compress(raw, mtime=0)
        cases += [(f"gzip {label}", write_case(images, data))
                  for label, data in byte_mutations(zipped, rng, len(zipped), flips=100)]
        found = escapes(self.loader(images, labels), cases)
        assert found == []

    def test_label_file(self, pair):
        images, labels = pair
        raw = labels.read_bytes()
        rng = np.random.default_rng(33)
        cases = [(label, write_case(labels, data))
                 for label, data in byte_mutations(raw, rng, len(raw), flips=100)]
        for magic in (0, 2051, 2048):
            cases.append((f"magic {magic}", write_case(labels, struct.pack(">I", magic) + raw[4:])))
        for count in (0, 4, 6, 0xFFFFFFFF):
            cases.append((f"count {count}", write_case(
                labels, struct.pack(">II", 2049, count) + raw[8:])))
        for bad in (10, 200, 255):
            cases.append((f"label {bad}", write_case(labels, raw[:-1] + bytes([bad]))))
        found = escapes(self.loader(images, labels), cases)
        assert found == []


class TestCifarFuzz:
    def test_batch_files(self, tmp_path):
        base = write_cifar10_fixture(tmp_path, seed=0)
        originals = {path: path.read_bytes() for path in base.iterdir()}

        def case(path, data):
            def prepare():
                for original, raw in originals.items():
                    original.write_bytes(raw)
                path.write_bytes(data)
            return prepare

        rng = np.random.default_rng(41)
        cases = []
        for name in ("test_batch.bin", "data_batch_3.bin"):
            path = base / name
            raw = originals[path]
            for cut in sorted({0, 1, 3072, 3073, 3074, len(raw) - 1,
                               *rng.integers(0, len(raw), size=20).tolist()}):
                cases.append((f"{name} truncate to {cut}", case(path, raw[:cut])))
            cases.append((f"{name} extra byte", case(path, raw + b"\0")))
            for record in (0, 1):
                for bad in (10, 128, 255):
                    mutated = bytearray(raw)
                    mutated[record * 3073] = bad
                    cases.append((f"{name} record {record} label {bad}",
                                  case(path, bytes(mutated))))
        found = escapes(lambda: load_cifar10(base), cases)
        assert found == []
