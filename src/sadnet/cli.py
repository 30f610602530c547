"""Command-line entry point: every experiment as a reproducible subcommand.

Subcommands: train (clean baseline), sadpoint (corruption pipeline),
escape (restart from a checkpoint on clean data), analyze (distances and
weight histograms over saved runs), gradcheck (finite-difference suite),
fixtures (tiny synthetic data files for tests).

Options resolve as: explicit flag > config file (key=value lines) >
built-in default. All randomness flows from --seed; --data-seed pins the
dataset draw/subset so different run seeds train on identical data.
Exit codes: 0 success, 1 validation error, 2 runtime/format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .data import load_cifar10, load_idx, subset
from .errors import SadnetError, ShapeError, ValidationError
from .experiment import (TrainConfig, construct_sad_point, distance_report,
                         escape_run, load_checkpoint, new_model, train)
from .fixtures import MNIST_NAMES, synth_images, write_cifar10_fixture, write_mnist_fixture
from .gradcheck import REL_TOLERANCE, gradcheck_suite

_SUBSET_STREAM = 808

# name -> (type, default); a None default means "required by some subcommands"
_OPTIONS = {
    "dataset": (str, "synth"),
    "data_dir": (str, None),
    "model": (str, "mlp"),
    "optimizer": (str, "adam"),
    "lr": (float, 0.001),
    "batch_size": (int, 128),
    "epochs": (int, None),
    "l2": (float, 0.0),
    "seed": (int, 0),
    "data_seed": (int, 0),
    "hidden": (int, 512),
    "train_subset": (int, None),
    "test_subset": (int, None),
    "stop_at_train_acc": (float, None),
    "out_dir": (str, "runs"),
}

_EPOCH_DEFAULTS = {"train": 30, "sadpoint": 200, "escape": 50}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_common(parser: _Parser):
    parser.add_argument("--config", help="key=value file; explicit flags win")
    parser.add_argument("--dataset", choices=["mnist", "fashion-mnist", "cifar10", "synth"])
    parser.add_argument("--data-dir", dest="data_dir")
    parser.add_argument("--model", choices=["mlp", "cnn"])
    parser.add_argument("--optimizer", choices=["adam", "sgd"])
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--l2", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--data-seed", dest="data_seed", type=int)
    parser.add_argument("--hidden", type=int)
    parser.add_argument("--train-subset", dest="train_subset", type=int)
    parser.add_argument("--test-subset", dest="test_subset", type=int)
    parser.add_argument("--stop-at-train-acc", dest="stop_at_train_acc", type=float)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--progress", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="sadnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("train", "sadpoint", "escape"):
        _add_common(sub.add_parser(name))
    escape = sub.choices["escape"]
    escape.add_argument("--from-checkpoint", dest="from_checkpoint")

    analyze = sub.add_parser("analyze")
    analyze.add_argument("--runs-dir", dest="runs_dir", required=True)
    analyze.add_argument("--out-dir", dest="out_dir", default="analysis")

    gradcheck = sub.add_parser("gradcheck")
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument("--models", type=int, default=20)

    fixtures = sub.add_parser("fixtures")
    fixtures.add_argument("--out-dir", dest="out_dir", default="fixtures")
    fixtures.add_argument("--seed", type=int, default=0)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_options(ns) -> dict:
    """Merge flag > config file > default for the training subcommands."""
    from_file = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    unknown = set(from_file) - set(_OPTIONS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, (typ, default) in _OPTIONS.items():
        flag_value = getattr(ns, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
        elif name in from_file:
            try:
                resolved[name] = typ(from_file[name])
            except ValueError:
                raise ValidationError(
                    f"config key {name}: {from_file[name]!r} is not a {typ.__name__}") from None
        else:
            resolved[name] = default
    if resolved["data_dir"] is None:
        resolved["data_dir"] = os.environ.get("SADNET_DATA_DIR")
    if resolved["epochs"] is None:
        resolved["epochs"] = _EPOCH_DEFAULTS[ns.subcommand]
    return resolved


def _find_idx_pair(data_dir: Path, images_name: str, labels_name: str):
    for suffix in ("", ".gz"):
        images = data_dir / (images_name + suffix)
        labels = data_dir / (labels_name + suffix)
        if images.exists() and labels.exists():
            return images, labels
    raise ValidationError(f"missing {images_name}[.gz] / {labels_name}[.gz] under {data_dir}")


def _load_datasets(opts: dict):
    name = opts["dataset"]
    n_train = opts["train_subset"]
    n_test = opts["test_subset"]
    if name == "synth":
        return synth_images(n_train or 4000, n_test or 1000, data_seed=opts["data_seed"])
    if opts["data_dir"] is None:
        raise ValidationError("--data-dir (or SADNET_DATA_DIR) is required for real datasets")
    data_dir = Path(opts["data_dir"])
    if not data_dir.exists():
        raise ValidationError(f"data dir not found: {data_dir}")
    if name in ("mnist", "fashion-mnist"):
        train_ds = load_idx(*_find_idx_pair(data_dir, MNIST_NAMES["train_images"],
                                            MNIST_NAMES["train_labels"]),
                            name=f"{name}-train", class_count=10)
        test_ds = load_idx(*_find_idx_pair(data_dir, MNIST_NAMES["test_images"],
                                           MNIST_NAMES["test_labels"]),
                           name=f"{name}-test", class_count=10)
    else:
        train_ds, test_ds = load_cifar10(data_dir)
    rng = np.random.default_rng((opts["data_seed"], _SUBSET_STREAM))
    if n_train:
        train_ds = subset(train_ds, n_train, rng, stratified=True)
    if n_test:
        test_ds = subset(test_ds, n_test, rng, stratified=True)
    return train_ds, test_ds


def _config_from(opts: dict) -> TrainConfig:
    return TrainConfig(
        model_kind=opts["model"], optimizer=opts["optimizer"], lr=opts["lr"],
        batch_size=opts["batch_size"], epochs=opts["epochs"], l2_lambda=opts["l2"],
        seed=opts["seed"], data_seed=opts["data_seed"], hidden=opts["hidden"],
        dataset=opts["dataset"], train_subset=opts["train_subset"],
        test_subset=opts["test_subset"], stop_at_train_acc=opts["stop_at_train_acc"],
    )


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def show(row):
        print(f"epoch {row.epoch}: train_acc {row.train_acc:.4f} "
              f"test_acc {row.test_acc:.4f}", file=sys.stderr)
    return show


def _summarize(record, tag: str):
    last = record.rows[-1] if record.rows else None
    if last is None:
        print(f"{tag}: no epochs run")
        return
    print(f"{tag}: epochs {last.epoch} train_acc {last.train_acc:.4f} "
          f"test_acc {last.test_acc:.4f} dist_from_init {last.dist_from_init:.3f}")
    if record.run_dir:
        print(f"run dir: {record.run_dir}")


def _cmd_train(ns) -> int:
    opts = _resolve_options(ns)
    if opts["epochs"] < 1:
        raise ValidationError("train requires --epochs >= 1")
    train_ds, test_ds = _load_datasets(opts)
    cfg = _config_from(opts)
    model = new_model(cfg, train_ds)
    _, record = train(model, train_ds, train_ds, test_ds, cfg, out_dir=opts["out_dir"],
                      tag="clean", on_epoch=_progress_printer(ns.progress))
    _summarize(record, "clean")
    return 0


def _cmd_sadpoint(ns) -> int:
    opts = _resolve_options(ns)
    if opts["epochs"] < 1:
        raise ValidationError("sadpoint requires --epochs >= 1")
    train_ds, test_ds = _load_datasets(opts)
    cfg = _config_from(opts)
    cp, record = construct_sad_point(train_ds, test_ds, cfg, out_dir=opts["out_dir"],
                                     on_epoch=_progress_printer(ns.progress))
    _summarize(record, "sad")
    print(f"saturated: {cp.flags.get('saturated')}")
    return 0


def _cmd_escape(ns) -> int:
    opts = _resolve_options(ns)
    if not ns.from_checkpoint:
        raise ValidationError("escape requires --from-checkpoint")
    if opts["epochs"] < 0:
        raise ValidationError("escape requires --epochs >= 0")
    cp = load_checkpoint(ns.from_checkpoint)
    train_ds, test_ds = _load_datasets(opts)
    cfg = _config_from(opts)
    _, record = escape_run(cp, train_ds, test_ds, cfg, out_dir=opts["out_dir"],
                           on_epoch=_progress_printer(ns.progress))
    _summarize(record, "escaped")
    return 0


def _cmd_analyze(ns) -> int:
    runs_dir = Path(ns.runs_dir)
    if not runs_dir.is_dir():
        raise ValidationError(f"runs dir not found: {runs_dir}")
    pairs = []
    for run_dir in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
        init_path = run_dir / "init.ckpt"
        if not init_path.exists():
            continue
        for tag in ("clean", "sad", "escaped"):
            final_path = run_dir / f"{tag}.ckpt"
            if final_path.exists():
                pairs.append((load_checkpoint(init_path), load_checkpoint(final_path)))
    if not pairs:
        raise ValidationError(f"no (init, final) checkpoint pairs under {runs_dir}")
    report = distance_report(pairs)
    out = report.write(ns.out_dir)
    for tag, stats in sorted(report.cohorts.items()):
        print(f"{tag}: mean dist {stats['mean']:.3f} +/- {stats['std']:.3f} over {stats['n']} runs")
    print(f"analysis written to {out}")
    return 0


def _cmd_gradcheck(ns) -> int:
    worst, details = gradcheck_suite(ns.seed, n_models=ns.models)
    for d in details:
        print(f"{d['model']}: {d['params']} params, l2 {d['l2']}, max rel err {d['max_rel_err']:.3e}")
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < REL_TOLERANCE else 2


def _cmd_fixtures(ns) -> int:
    out = Path(ns.out_dir)
    idx_paths = write_mnist_fixture(out / "mnist", seed=ns.seed)
    write_mnist_fixture(out / "mnist-gz", seed=ns.seed, compress=True)
    cifar_dir = write_cifar10_fixture(out / "cifar10", seed=ns.seed)
    print(f"idx fixtures: {idx_paths['train_images'].parent}")
    print(f"cifar fixtures: {cifar_dir}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sadpoint": _cmd_sadpoint,
    "escape": _cmd_escape,
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
    "fixtures": _cmd_fixtures,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.subcommand](ns)
    except (ValidationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except SadnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
