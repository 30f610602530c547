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
import re
import struct
import time
import typing
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import nn, optim
from .data import (LabeledDataset, _write_atomic, batches, build_corrupted_train, corrupt_labels,
                   load_cifar10, load_mnist, subset)
from .errors import (CheckpointError, ConsistencyError, DivergenceError,
                     FormatError, ValidationError)
from .fixtures import synth_images
from .tensor import norm2

CHECKPOINT_MAGIC = b"SADNETv1\n"
# a tag names files (<tag>.ckpt, analyze's histograms), so it must not hold a path
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_-]+")
_FINAL_TAGS = ("clean", "sad", "escaped")  # of train, construct_sad_point and escape_run

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


# The sets load_datasets builds; a library caller may give its own sets any name.
DATASETS = ("mnist", "fashion-mnist", "cifar10", "synth")
_SUBSET_STREAM = 808


def load_datasets(cfg: TrainConfig, data_dir) -> tuple[LabeledDataset, LabeledDataset]:
    """cfg.dataset's train and test sets at cfg's subset sizes: synth is drawn at them (4000/1000
    when unset), a real set is read from data_dir and cut by a class-balanced draw seeded by
    (cfg.data_seed, 808), so runs that differ only in seed see the same examples."""
    n_train, n_test = cfg.train_subset, cfg.test_subset
    if cfg.dataset == "synth":
        return synth_images(n_train or 4000, n_test or 1000, data_seed=cfg.data_seed)
    if cfg.dataset not in DATASETS:
        raise ValidationError(f"dataset must be one of {', '.join(DATASETS)}, got {cfg.dataset!r}")
    if data_dir is None:
        raise ValidationError(f"dataset {cfg.dataset!r} is read from files, but no data_dir was given")
    data_dir = Path(data_dir)
    if not data_dir.exists():
        raise ValidationError(f"data dir not found: {data_dir}")
    train_ds, test_ds = (load_cifar10(data_dir) if cfg.dataset == "cifar10"
                         else load_mnist(data_dir, cfg.dataset))
    rng = np.random.default_rng((cfg.data_seed, _SUBSET_STREAM))
    if n_train:
        train_ds = subset(train_ds, n_train, rng)
    if n_test:
        test_ds = subset(test_ds, n_test, rng)
    return train_ds, test_ds


def field_type(hint) -> type:
    """int, float or str from a TrainConfig field's annotation, with X | None unwrapped. Any other
    type is refused: the CLI would read a bool flag's "False" as bool("False"), which is True."""
    for typ in (int, float, str):
        if hint in (typ, typ | None):
            return typ
    raise TypeError(f"a TrainConfig field needs an int, float or str type, got {hint}")


@dataclass
class TrainConfig:
    """One run's settings; the CLI makes one flag per field, taking its "choices" metadata."""

    model_kind: str = field(default="mlp", metadata={"choices": nn.MODEL_KINDS})
    optimizer: str = field(default="adam", metadata={"choices": optim.KINDS})
    lr: float = 0.001
    batch_size: int = 128
    epochs: int = 1
    l2_lambda: float = 0.0
    seed: int = 0
    data_seed: int = 0
    hidden: int = 512
    # any name in the library; the CLI takes only the sets load_datasets builds
    dataset: str = field(default="", metadata={"choices": DATASETS})
    train_subset: int | None = None
    test_subset: int | None = None
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        for name, hint in typing.get_type_hints(TrainConfig).items():
            if isinstance(value := getattr(self, name), np.generic):  # a numpy scalar becomes the value it holds
                setattr(self, name, value := value.item())
            typ = field_type(hint)  # a bool is no number; an int in a float field stays as given
            if isinstance(value, bool) or not isinstance(value, hint | int if typ is float else hint):
                raise ValidationError(f"{name} must be {typ.__name__}, got {value!r}")
        if self.model_kind not in nn.MODEL_KINDS:
            kinds = " or ".join(map(repr, nn.MODEL_KINDS))
            raise ValidationError(f"model_kind must be {kinds}, got {self.model_kind!r}")
        if self.optimizer not in optim.KINDS:
            kinds = " or ".join(map(repr, optim.KINDS))
            raise ValidationError(f"optimizer must be {kinds}, got {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        for name in ("epochs", "seed", "data_seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        for name in ("train_subset", "test_subset"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValidationError(f"{name} must be >= 1 when set, got {value}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValidationError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
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
    rows: list[EpochRow] = field(default_factory=list, init=False)
    run_dir: str | None = field(default=None, init=False)

    def header(self) -> dict:
        return {"type": "config", "run_id": self.run_id, "tag": self.tag,
                "init_hash": self.init_hash, "config": self.config,
                "init_metrics": self.init_metrics}

    def to_jsonl(self, drop: tuple[str, ...] = ()) -> str:
        lines = [_canon_json(self.header())]
        for row in self.rows:
            values = {k: v for k, v in asdict(row).items() if k not in drop}
            lines.append(_canon_json({"type": "epoch", **values}))
        return "\n".join(lines) + "\n"

    def deterministic_payload(self) -> bytes:
        """JSONL payload with wall-clock timing stripped; byte-identical
        across runs of the same config on the same platform."""
        return self.to_jsonl(drop=("elapsed_sec",)).encode()

    def to_csv(self) -> str:
        return _csv([f.name for f in fields(EpochRow)], map(astuple, self.rows))


def _csv(header: list[str], rows) -> str:
    """A header line and rows, in the csv module's default dialect."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


@dataclass
class Checkpoint:
    """One weight vector in canonical parameter order; arch alone fixes its layout."""

    arch: dict
    theta: np.ndarray
    config: dict
    tag: str
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _PLAIN_NAME.fullmatch(self.tag):
            raise CheckpointError(f"tag {self.tag!r} is not a plain name")
        need = _param_count(self.arch)
        if self.theta.size != need:
            raise CheckpointError(f"theta holds {self.theta.size} values, arch needs {need}")

    @property
    def params(self) -> list[np.ndarray]:
        return nn.split(self.theta, _param_shapes(self.arch))

    def to_model(self) -> nn.Model:
        """The model arch describes, holding a copy of theta."""
        model = nn.build_from_descriptor(self.arch)
        model.theta[...] = self.theta
        return model


def _param_shapes(arch: dict) -> list[tuple]:
    return [s for layer in nn.layers_of(arch)[0] for s in layer.param_shapes]


def _param_count(arch: dict) -> int:
    return sum(math.prod(s) for s in _param_shapes(arch))


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def checkpoint_of(model: nn.Model, cfg: TrainConfig, tag: str, flags: dict | None = None) -> Checkpoint:
    return Checkpoint(dict(model.arch), model.theta.copy(), asdict(cfg), tag, flags or {})


def run_id_for(config: dict, tag: str, init_hash: str) -> str:
    """Run directory name: runs of one config and tag from different start weights differ."""
    digest = hashlib.sha256(_canon_json({"config": config, "tag": tag, "init_hash": init_hash}).encode()).hexdigest()
    return digest[:12]


def _params_hash(flat: np.ndarray) -> str:
    return hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()[:16]


def _build(cfg: TrainConfig, ds: LabeledDataset) -> nn.Model:
    """The configured architecture for ds, weights zero."""
    n, c, h, w = ds.images.shape
    if cfg.model_kind == "mlp":
        return nn.build_mlp(c * h * w, cfg.hidden, ds.class_count)
    if h != w:
        raise ValidationError(f"cnn needs square images, got {h}x{w}")
    return nn.build_cnn(c, h, ds.class_count)


def new_model(cfg: TrainConfig, ds: LabeledDataset) -> nn.Model:
    """Build the configured architecture for ds and Xavier-init it from cfg.seed."""
    model = _build(cfg, ds)
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
    train_ds is corrupted). A run on eval_train stops once its row's train accuracy reaches
    cfg.stop_at_train_acc; a sad-point run stops only once both the epoch's running accuracy
    (each step's hits, before its update) is at least that target - 0.01 and the end-of-epoch
    accuracy on train_ds reaches the target. With cfg.epochs == 0 no step is taken: rows stay
    empty and the returned weights are the start weights. The returned checkpoint's
    'saturated' flag records whether the last clean metrics meet accuracy >= 0.98 on
    eval_train and <= 2/k on eval_test. With out_dir, the run directory gets the
    metrics and the init and final checkpoints. A step is one nn.full_pass, so a batch
    above nn.PASS_BATCH examples steps on its mean gradient summed over slices. A
    non-finite loss or metric is never recorded: it raises DivergenceError carrying
    the record so far, and nothing is written.
    """
    if not _PLAIN_NAME.fullmatch(tag):
        raise ValidationError(f"tag {tag!r} is not a plain name")
    for ds in (train_ds, eval_train, eval_test):
        if ds.class_count != model.class_count:
            raise ConsistencyError(
                f"dataset {ds.name!r} has {ds.class_count} classes, model expects {model.class_count}")

    state = optim.OptimizerState(cfg.optimizer, cfg.lr)
    init_cp = checkpoint_of(model, cfg, "init")
    config = asdict(cfg)
    init_hash = _params_hash(init_cp.theta)
    record = RunRecord(config=config, run_id=run_id_for(config, tag, init_hash), tag=tag,
                       init_hash=init_hash, init_metrics={})

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
                # both gates decide when a sad-point run stops, not only what it costs
                reached = hits / len(train_ds) >= target - 0.01 and evaluate(model, train_ds)[1] >= target
            if reached:
                break

    last = asdict(record.rows[-1]) if record.rows else record.init_metrics
    saturated = bool(last["train_acc"] >= 0.98 and last["test_acc"] <= 2.0 / model.class_count)
    cp = checkpoint_of(model, cfg, tag, flags={"saturated": saturated})
    if out_dir:
        record.run_dir = str(persist_run(out_dir, record, [init_cp, cp]))
    return cp, record


def construct_sad_point(train_ds: LabeledDataset, test_ds: LabeledDataset,
                        cfg: TrainConfig, out_dir=None, on_epoch=None,
                        default_stop: float | None = 0.995) -> tuple[Checkpoint, RunRecord]:
    """Corrupt the test labels, fold t copies into the train set, train to
    saturation, and return the resulting weights tagged 'sad'.

    Unless cfg sets its own stop_at_train_acc, training stops at default_stop under
    train's two-gate rule (pass None to always run the full epoch budget, which
    minimizes more deeply). An unsaturated run (see train's 'saturated' flag) is
    returned, not raised.
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

    A sad arch other than the one cfg makes for train_ds is a CheckpointError. dist_from_init
    is measured from the sad weights. epochs == 0 returns the starting weights unchanged.
    """
    model = _build(cfg, train_ds)
    if sad.arch != model.arch:
        raise CheckpointError(f"checkpoint holds {sad.arch}, config makes {model.arch}")
    model.theta[...] = sad.theta
    return train(model, train_ds, train_ds, test_ds, cfg, out_dir, tag="escaped", on_epoch=on_epoch)


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
        tables = {
            "distance_summary.csv": (["index", "tag", "distance", "final_norm"], [
                (i, e["tag"], e["distance"], e["final_norm"]) for i, e in enumerate(self.entries)]),
            "distance_cohorts.csv": (["tag", "mean_distance", "std_distance", "runs"], [
                (tag, s["mean"], s["std"], s["n"]) for tag, s in sorted(self.cohorts.items())]),
        }
        for i, e in enumerate(self.entries):
            edges = e["hist_edges"]
            rows = zip(edges[:-1], edges[1:], map(int, e["hist_counts"]))
            tables[f"weights_hist_{i}_{e['tag']}.csv"] = (["bin_left", "bin_right", "count"], rows)
        for name, (header, rows) in tables.items():
            _write_atomic(out / name, _csv(header, rows).encode())
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
        "tag": cp.tag,
        "config": cp.config,
        "flags": cp.flags,
        "checksum": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = _canon_json(header).encode()
    return _write_atomic(Path(path), CHECKPOINT_MAGIC, struct.pack(">Q", len(header_bytes)),
                         header_bytes, payload)


_HEADER_TYPES = {"arch": dict, "config": dict, "tag": str, "checksum": str}


def _check_header(path, header) -> None:
    """Raise FormatError unless header has every field load_checkpoint reads."""
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise FormatError(f"{path}: header lacks {key!r}")
        if not isinstance(header[key], kind):
            raise FormatError(f"{path}: header {key!r} is not a {kind.__name__}")
    if not isinstance(header.get("flags", {}), dict):
        raise FormatError(f"{path}: header 'flags' is not a dict")
    if not _PLAIN_NAME.fullmatch(header["tag"]):
        raise FormatError(f"{path}: header 'tag' {header['tag']!r} is not a plain name")


def load_checkpoint(path) -> Checkpoint:
    """Read a SADNETv1 file; the shapes and seed that older headers carry are ignored."""
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
    # the arch's layers must hold the payload exactly, checked before theta is allocated
    need = _param_count(header["arch"]) * 8
    if len(payload) != need:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, arch needs {need}")
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Checkpoint(header["arch"], theta, header["config"], header["tag"],
                      header.get("flags", {}))


def persist_run(out_dir, record: RunRecord, checkpoints: list[Checkpoint]) -> Path:
    """Write metrics.jsonl/metrics.csv and each checkpoint as <tag>.ckpt under
    out_dir/<run_id>/."""
    run_dir = Path(out_dir) / record.run_id
    _write_atomic(run_dir / "metrics.jsonl", record.to_jsonl().encode())
    _write_atomic(run_dir / "metrics.csv", record.to_csv().encode())
    for cp in checkpoints:
        save_checkpoint(cp, run_dir / f"{cp.tag}.ckpt")
    return run_dir


def run_pairs(runs_dir) -> list[tuple[Checkpoint, Checkpoint]]:
    """(init, final) checkpoints of the run directories under runs_dir, in name order: a
    directory's init.ckpt pairs with each of its clean.ckpt, sad.ckpt and escaped.ckpt, in turn."""
    runs_dir = Path(runs_dir)
    if not runs_dir.is_dir():
        raise ValidationError(f"runs dir not found: {runs_dir}")
    paths = [(run / "init.ckpt", run / f"{tag}.ckpt") for run in sorted(runs_dir.iterdir()) for tag in _FINAL_TAGS]
    pairs = [(load_checkpoint(init), load_checkpoint(final)) for init, final in paths
             if init.exists() and final.exists()]
    if not pairs:
        raise ValidationError(f"no (init, final) checkpoint pairs under {runs_dir}")
    return pairs
