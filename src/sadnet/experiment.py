"""Training runs, sad-point construction, escape runs, and analysis.

A "sad point" is a weight vector that classifies the training set almost
perfectly while scoring near zero on the test set. It is manufactured by
relabeling the test set to deliberately wrong classes, concatenating
enough copies onto the clean train set, and training to saturation on
the result. Metrics during such runs are always evaluated against the
ORIGINAL train/test sets; the corrupted set only drives the gradients
and the stopping rule.

Run artifacts: metrics.jsonl (config header line + one object per
epoch), a metrics.csv mirror with fixed column order, and checkpoints
(init plus the tagged final weights) in the SADNETv1 container.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import nn, optim
from .data import LabeledDataset, batches, build_corrupted_train, corrupt_labels
from .errors import (CheckpointError, ConsistencyError, DivergenceError,
                     FormatError, ValidationError)
from .tensor import norm2

CHECKPOINT_MAGIC = b"SADNETv1\n"

# Independent rng streams per run seed.
_INIT_STREAM = 101
_CORRUPT_STREAM = 202
_BATCH_STREAM = 303


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, _INIT_STREAM))


def corruption_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, _CORRUPT_STREAM))


def batch_seed(seed: int) -> int:
    words = np.random.SeedSequence((seed, _BATCH_STREAM)).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


@dataclass
class TrainConfig:
    model_kind: str = "mlp"
    optimizer: str = "adam"
    lr: float = 0.001
    batch_size: int = 128
    epochs: int = 1
    l2_lambda: float = 0.0
    seed: int = 0
    data_seed: int = 0
    hidden: int = 512
    dataset: str = ""
    train_subset: int | None = None
    test_subset: int | None = None
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if self.model_kind not in ("mlp", "cnn"):
            raise ValidationError(f"model_kind must be 'mlp' or 'cnn', got {self.model_kind!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        for name in ("train_subset", "test_subset"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"{name} must be >= 1 when set, got {value}")
        if self.l2_lambda < 0:
            raise ValidationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.stop_at_train_acc is not None and not 0.0 <= self.stop_at_train_acc <= 1.0:
            raise ValidationError(f"stop_at_train_acc must lie in [0, 1], got {self.stop_at_train_acc}")


@dataclass
class EpochRow:
    """One epoch's clean metrics; the field order is the CSV column order."""

    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    weight_norm: float
    dist_from_init: float
    elapsed_sec: float


@dataclass
class RunRecord:
    config: dict
    run_id: str
    tag: str
    init_hash: str
    init_metrics: dict
    rows: list[EpochRow] = field(default_factory=list)
    run_dir: str | None = None

    def header(self) -> dict:
        return {"type": "config", "run_id": self.run_id, "tag": self.tag,
                "init_hash": self.init_hash, "config": self.config,
                "init_metrics": self.init_metrics}

    def _jsonl(self, drop: tuple[str, ...] = ()) -> str:
        lines = [_canon_json(self.header())]
        for row in self.rows:
            values = {k: v for k, v in asdict(row).items() if k not in drop}
            lines.append(_canon_json({"type": "epoch", **values}))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        return self._jsonl()

    def deterministic_payload(self) -> bytes:
        """JSONL payload with wall-clock timing stripped; byte-identical
        across runs of the same config on the same platform."""
        return self._jsonl(drop=("elapsed_sec",)).encode()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(f.name for f in fields(EpochRow))
        writer.writerows(astuple(row) for row in self.rows)
        return buf.getvalue()


@dataclass
class Checkpoint:
    """One weight vector in canonical parameter order plus the shapes it splits into."""

    arch: dict
    theta: np.ndarray
    shapes: list[tuple]
    seed: int
    config: dict
    tag: str
    flags: dict = field(default_factory=dict)

    @property
    def params(self) -> list[np.ndarray]:
        return nn.split(self.theta, self.shapes)

    def to_model(self, expect_kind: str | None = None) -> nn.Model:
        if expect_kind is not None and self.arch.get("kind") != expect_kind:
            raise CheckpointError(
                f"checkpoint holds a {self.arch.get('kind')!r} model, expected {expect_kind!r}")
        model = nn.build_from_descriptor(self.arch, self.shapes)
        model.theta[...] = self.theta
        return model


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def checkpoint_of(model: nn.Model, cfg: TrainConfig, tag: str, flags: dict | None = None) -> Checkpoint:
    return Checkpoint(dict(model.arch), model.theta.copy(), list(model.shapes), cfg.seed,
                      asdict(cfg), tag, flags or {})


def run_id_for(config: dict, tag: str) -> str:
    digest = hashlib.sha256(_canon_json({"config": config, "tag": tag}).encode()).hexdigest()
    return digest[:12]


def _params_hash(flat: np.ndarray) -> str:
    return hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()[:16]


def new_model(cfg: TrainConfig, ds: LabeledDataset) -> nn.Model:
    """Build the configured architecture for ds and Xavier-init it from cfg.seed."""
    n, c, h, w = ds.images.shape
    if cfg.model_kind == "mlp":
        model = nn.build_mlp(c * h * w, cfg.hidden, ds.class_count)
    else:
        if h != w:
            raise ValidationError(f"cnn needs square images, got {h}x{w}")
        model = nn.build_cnn(c, h, ds.class_count)
    nn.init_xavier_uniform(model, init_rng(cfg.seed))
    return model


def evaluate(model: nn.Model, ds: LabeledDataset) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over ds; leaves model.grad as it was."""
    loss, hits = nn.full_pass(model, ds.images, ds.labels, grad=False)
    return loss, hits / len(ds)


def train(model: nn.Model, train_ds: LabeledDataset, eval_train: LabeledDataset,
          eval_test: LabeledDataset, cfg: TrainConfig, out_dir=None,
          tag: str = "clean", on_epoch=None) -> tuple[Checkpoint, RunRecord]:
    """Run cfg.epochs of minibatch training, recording metrics per epoch.

    Metrics rows are evaluated on eval_train/eval_test (the clean sets, even when
    train_ds is corrupted). Early stop triggers when accuracy on train_ds itself
    reaches cfg.stop_at_train_acc. With cfg.epochs == 0 no step is taken: rows stay
    empty and the returned weights are the start weights. The returned checkpoint's
    'saturated' flag records whether the last clean metrics meet accuracy >= 0.98 on
    eval_train and <= 2/k on eval_test. With out_dir, the run directory gets the
    metrics and the init and final checkpoints. A step is one nn.full_pass, so a batch
    above nn.PASS_BATCH examples steps on its mean gradient summed over slices. A
    non-finite loss or metric is never recorded: it raises DivergenceError carrying
    the record so far, and nothing is written.
    """
    for ds in (train_ds, eval_train, eval_test):
        if ds.class_count != model.class_count:
            raise ConsistencyError(
                f"dataset {ds.name!r} has {ds.class_count} classes, model expects {model.class_count}")

    state = optim.OptimizerState(cfg.optimizer, cfg.lr)
    init_cp = checkpoint_of(model, cfg, "init")
    config = asdict(cfg)
    record = RunRecord(config=config, run_id=run_id_for(config, tag), tag=tag,
                       init_hash=_params_hash(init_cp.theta), init_metrics={})

    def finite(what: str, values) -> None:
        # The one divergence rule: a run never records a non-finite value. Updates need
        # no guard: an Adam step is at most lr*(1-b1)/sqrt((1-b2)*(1-b1**2/b2)) ~ 7.27*lr.
        if not all(map(math.isfinite, values)):
            raise DivergenceError(f"non-finite {what}", record)

    def measure() -> tuple:
        # clean losses, accuracies, norms; finite() judges them, so numpy warnings are off
        with np.errstate(over="ignore", invalid="ignore"):
            return (*evaluate(model, eval_train), *evaluate(model, eval_test),
                    norm2(model.theta), norm2(model.theta - init_cp.theta))

    finite("init metrics", init := measure())
    record.init_metrics = dict(zip(("train_loss", "train_acc", "test_loss", "test_acc", "weight_norm"), init))

    shuffle_seed = batch_seed(cfg.seed)
    target = cfg.stop_at_train_acc
    start_time = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        hits = 0
        for xb, yb in batches(train_ds, cfg.batch_size, shuffle_seed, epoch):
            with np.errstate(over="ignore", invalid="ignore"):
                loss, batch_hits = nn.full_pass(model, xb, yb, grad=True)
            finite(f"loss at epoch {epoch}", (loss,))
            hits += batch_hits
            nn.add_l2_gradients(model, cfg.l2_lambda)
            optim.step(model, state)
        row = EpochRow(epoch, *measure(), time.perf_counter() - start_time)
        finite(f"metrics at epoch {epoch}", astuple(row))
        record.rows.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if target is not None:
            if train_ds is eval_train:
                reached = row.train_acc >= target
            else:
                # full evaluation is only worth it once the online epoch accuracy is close
                reached = hits / len(train_ds) >= target - 0.01 and evaluate(model, train_ds)[1] >= target
            if reached:
                break

    last = asdict(record.rows[-1]) if record.rows else record.init_metrics
    saturated = bool(last["train_acc"] >= 0.98 and last["test_acc"] <= 2.0 / model.class_count)
    cp = checkpoint_of(model, cfg, tag, flags={"saturated": saturated})
    if out_dir:
        record.run_dir = str(persist_run(out_dir, record, {"init": init_cp, tag: cp}))
    return cp, record


def construct_sad_point(train_ds: LabeledDataset, test_ds: LabeledDataset,
                        cfg: TrainConfig, out_dir=None, on_epoch=None,
                        default_stop: float | None = 0.995) -> tuple[Checkpoint, RunRecord]:
    """Corrupt the test labels, fold t copies into the train set, train to
    saturation, and return the resulting weights tagged 'sad'.

    Unless cfg sets its own stop_at_train_acc, training stops once
    corrupted-train accuracy reaches default_stop (pass None to always
    run the full epoch budget, which minimizes more deeply). An
    unsaturated run (see train's 'saturated' flag) is returned, not raised.
    """
    if train_ds.class_count != test_ds.class_count:
        raise ConsistencyError("train/test class counts differ")
    corrupted_test = corrupt_labels(test_ds, corruption_rng(cfg.seed))
    corrupted_train = build_corrupted_train(train_ds, corrupted_test)
    if cfg.stop_at_train_acc is None and default_stop is not None:
        cfg = replace(cfg, stop_at_train_acc=default_stop)
    return train(new_model(cfg, train_ds), corrupted_train, train_ds, test_ds, cfg, out_dir,
                 tag="sad", on_epoch=on_epoch)


def escape_run(sad: Checkpoint, train_ds: LabeledDataset, test_ds: LabeledDataset,
               cfg: TrainConfig, out_dir=None, on_epoch=None) -> tuple[Checkpoint, RunRecord]:
    """Restart training from a sad point on the clean train set.

    dist_from_init in the returned record is measured from the sad
    weights. epochs == 0 returns the starting weights unchanged.
    """
    return train(sad.to_model(expect_kind=cfg.model_kind), train_ds, train_ds, test_ds, cfg,
                 out_dir, tag="escaped", on_epoch=on_epoch)


def clean_gradient_norm(checkpoint: Checkpoint, clean_train: LabeledDataset) -> float:
    """Norm of the full-batch cross-entropy gradient on the clean train set."""
    model = checkpoint.to_model()
    nn.full_pass(model, clean_train.images, clean_train.labels, grad=True)
    return norm2(model.grad)


@dataclass
class DistanceReport:
    """Per-run distances plus cohort aggregates, with CSV serialization."""

    entries: list[dict]
    cohorts: dict[str, dict]

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "distance_summary.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "tag", "distance", "final_norm"])
            for i, e in enumerate(self.entries):
                writer.writerow([i, e["tag"], e["distance"], e["final_norm"]])
        with (out / "distance_cohorts.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tag", "mean_distance", "std_distance", "runs"])
            for tag, stats in sorted(self.cohorts.items()):
                writer.writerow([tag, stats["mean"], stats["std"], stats["n"]])
        for i, e in enumerate(self.entries):
            with (out / f"weights_hist_{i}_{e['tag']}.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_left", "bin_right", "count"])
                edges, counts = e["hist_edges"], e["hist_counts"]
                for j in range(len(counts)):
                    writer.writerow([edges[j], edges[j + 1], int(counts[j])])
        return out


def distance_report(pairs: list[tuple[Checkpoint, Checkpoint]]) -> DistanceReport:
    """Distances from init and weight histograms for (init, final) pairs.

    Histograms use 64 uniform bins over each run's observed weight range;
    cohorts aggregate by the final checkpoint's tag.
    """
    entries = []
    for init_cp, final_cp in pairs:
        if init_cp.arch != final_cp.arch:
            raise CheckpointError(
                f"pair mixes architectures: {init_cp.arch} vs {final_cp.arch}")
        w0, w1 = init_cp.theta, final_cp.theta
        counts, edges = np.histogram(w1, bins=64)
        entries.append({
            "tag": final_cp.tag,
            "distance": norm2(w1 - w0),
            "final_norm": norm2(w1),
            "hist_edges": edges,
            "hist_counts": counts,
        })
    cohorts = {}
    for tag in sorted({e["tag"] for e in entries}):
        dists = np.array([e["distance"] for e in entries if e["tag"] == tag])
        cohorts[tag] = {"mean": float(dists.mean()), "std": float(dists.std()), "n": len(dists)}
    return DistanceReport(entries, cohorts)


def save_checkpoint(cp: Checkpoint, path) -> Path:
    """SADNETv1 container: magic, length-prefixed JSON header, raw <f8 buffers."""
    payload = np.ascontiguousarray(cp.theta, dtype="<f8").tobytes()
    header = {
        "arch": cp.arch,
        "shapes": [list(s) for s in cp.shapes],
        "seed": cp.seed,
        "tag": cp.tag,
        "config": cp.config,
        "flags": cp.flags,
        "checksum": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = _canon_json(header).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, CHECKPOINT_MAGIC, struct.pack(">Q", len(header_bytes)),
                  header_bytes, payload)
    return path


def _write_atomic(path: Path, *chunks: bytes) -> None:
    """Write chunks to a sibling temporary file, then rename it over path,
    so that path holds either its old content or all of the new."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_HEADER_TYPES = {"arch": dict, "shapes": list, "seed": int, "config": dict, "tag": str,
                 "checksum": str}


def _check_header(path, header) -> None:
    """Raise FormatError unless header has every field load_checkpoint reads,
    with shapes a list of lists of non-negative integers."""
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise FormatError(f"{path}: header lacks {key!r}")
        if not isinstance(header[key], kind) or isinstance(header[key], bool):
            raise FormatError(f"{path}: header {key!r} is not a {kind.__name__}")
    if not isinstance(header.get("flags", {}), dict):
        raise FormatError(f"{path}: header 'flags' is not a dict")
    for shape in header["shapes"]:
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise FormatError(f"{path}: header shape {shape!r} is not a list of non-negative integers")


def load_checkpoint(path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise FormatError(f"{path}: not a SADNETv1 checkpoint")
    offset = len(CHECKPOINT_MAGIC)
    if len(raw) < offset + 8:
        raise FormatError(f"{path}: truncated header length")
    (header_len,) = struct.unpack(">Q", raw[offset:offset + 8])
    offset += 8
    if len(raw) < offset + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset:offset + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt header: {exc}") from exc
    offset += header_len
    _check_header(path, header)
    payload = raw[offset:]
    if hashlib.sha256(payload).hexdigest() != header["checksum"]:
        raise FormatError(f"{path}: payload checksum mismatch")
    shapes = [tuple(s) for s in header["shapes"]]
    need = sum(math.prod(s) for s in shapes) * 8
    if len(payload) != need:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, shapes need {need}")
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Checkpoint(header["arch"], theta, shapes, header["seed"], header["config"],
                      header["tag"], header.get("flags", {}))


def persist_run(out_dir, record: RunRecord, checkpoints: dict[str, Checkpoint]) -> Path:
    """Write metrics.jsonl/metrics.csv and the given checkpoints under
    out_dir/<run_id>/."""
    run_dir = Path(out_dir) / record.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(run_dir / "metrics.jsonl", record.to_jsonl().encode())
    _write_atomic(run_dir / "metrics.csv", record.to_csv().encode())
    for name, cp in checkpoints.items():
        save_checkpoint(cp, run_dir / f"{name}.ckpt")
    return run_dir
