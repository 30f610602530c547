"""Command-line entry point: every experiment as a reproducible subcommand.

Subcommands: train (clean baseline), sadpoint (corruption pipeline),
escape (restart from a checkpoint on clean data), analyze (distances and
weight histograms over saved runs), gradcheck (finite-difference suite),
fixtures (tiny synthetic data files for tests).

Options resolve as: explicit flag > config file (key=value lines, each
read as the flag --key=value) > default. All randomness flows from --seed;
--data-seed pins the dataset draw/subset so different run seeds train on
identical data. Exit codes: 0 success, 1 validation error, 2 runtime/format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .data import load_cifar10, load_mnist, subset
from .errors import SadnetError, ShapeError, ValidationError
from .experiment import (TrainConfig, construct_sad_point, distance_report,
                         escape_run, load_checkpoint, new_model, train)
from .fixtures import synth_images, write_cifar10_fixture, write_mnist_fixture
from .gradcheck import REL_TOLERANCE, gradcheck_suite

_SUBSET_STREAM = 808

# name -> (type, choices); each name is a config-file key and, with dashes, a
# flag. An option neither given nor defaulted below is left to TrainConfig.
_OPTIONS = {
    "dataset": (str, ("mnist", "fashion-mnist", "cifar10", "synth")),
    "data_dir": (str, None),
    "model": (str, ("mlp", "cnn")),
    "optimizer": (str, ("adam", "sgd")),
    "lr": (float, None),
    "batch_size": (int, None),
    "epochs": (int, None),
    "l2": (float, None),
    "seed": (int, None),
    "data_seed": (int, None),
    "hidden": (int, None),
    "train_subset": (int, None),
    "test_subset": (int, None),
    "stop_at_train_acc": (float, None),
    "out_dir": (str, None),
}

# option names that differ from their TrainConfig field; data_dir and out_dir
# say where data and runs live and are not part of the config
_CONFIG_FIELDS = {"model": "model_kind", "l2": "l2_lambda"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_training(parser: _Parser, epochs: int):
    parser.add_argument("--config", help="key=value file; explicit flags win")
    for name, (typ, choices) in _OPTIONS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=typ, choices=choices)
    parser.add_argument("--progress", action="store_true")
    parser.set_defaults(dataset="synth", out_dir="runs", data_dir=os.environ.get("SADNET_DATA_DIR"),
                        epochs=epochs)


def build_parser() -> _Parser:
    parser = _Parser(prog="sadnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, epochs in (("train", 30), ("sadpoint", 200), ("escape", 50)):
        _add_training(sub.add_parser(name), epochs)
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


def _read_config_file(path: str) -> list[str]:
    """The file's key=value lines as --key=value flags, in file order; the = form
    keeps a value such as -1 from being read as a flag."""
    flags = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8 text") from None
    unknown = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            unknown.add(key)
        flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return flags


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any work, an out-dir whose deepest existing path is not a directory."""
    existing = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"out dir {out_dir}: {existing} is not a directory")


def _config_from(ns) -> TrainConfig:
    """The run's config from the options given; TrainConfig supplies every other value."""
    return TrainConfig(**{_CONFIG_FIELDS.get(name, name): getattr(ns, name) for name in _OPTIONS
                          if name not in ("data_dir", "out_dir") and getattr(ns, name) is not None})


def _load_datasets(cfg: TrainConfig, data_dir: str | None):
    n_train, n_test = cfg.train_subset, cfg.test_subset
    if cfg.dataset == "synth":
        return synth_images(n_train or 4000, n_test or 1000, data_seed=cfg.data_seed)
    if data_dir is None:
        raise ValidationError("--data-dir (or SADNET_DATA_DIR) is required for real datasets")
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


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def show(row):
        print(f"epoch {row.epoch}: train_acc {row.train_acc:.4f} "
              f"test_acc {row.test_acc:.4f}", file=sys.stderr)
    return show


def _summarize(record, tag: str):
    if record.rows:
        last = record.rows[-1]
        print(f"{tag}: epochs {last.epoch} train_acc {last.train_acc:.4f} "
              f"test_acc {last.test_acc:.4f} dist_from_init {last.dist_from_init:.3f}")
    else:
        print(f"{tag}: no epochs run")
    if record.run_dir:
        print(f"run dir: {record.run_dir}")


def _cmd_train(ns) -> int:
    _check_out_dir(ns.out_dir)
    if ns.epochs < 1:
        raise ValidationError("train requires --epochs >= 1")
    cfg = _config_from(ns)
    train_ds, test_ds = _load_datasets(cfg, ns.data_dir)
    model = new_model(cfg, train_ds)
    _, record = train(model, train_ds, train_ds, test_ds, cfg, out_dir=ns.out_dir,
                      tag="clean", on_epoch=_progress_printer(ns.progress))
    _summarize(record, "clean")
    return 0


def _cmd_sadpoint(ns) -> int:
    _check_out_dir(ns.out_dir)
    if ns.epochs < 1:
        raise ValidationError("sadpoint requires --epochs >= 1")
    cfg = _config_from(ns)
    train_ds, test_ds = _load_datasets(cfg, ns.data_dir)
    cp, record = construct_sad_point(train_ds, test_ds, cfg, out_dir=ns.out_dir,
                                     on_epoch=_progress_printer(ns.progress))
    _summarize(record, "sad")
    print(f"saturated: {cp.flags.get('saturated')}")
    return 0


def _cmd_escape(ns) -> int:
    _check_out_dir(ns.out_dir)
    if not ns.from_checkpoint:
        raise ValidationError("escape requires --from-checkpoint")
    cfg = _config_from(ns)
    cp = load_checkpoint(ns.from_checkpoint)
    train_ds, test_ds = _load_datasets(cfg, ns.data_dir)
    _, record = escape_run(cp, train_ds, test_ds, cfg, out_dir=ns.out_dir,
                           on_epoch=_progress_printer(ns.progress))
    _summarize(record, "escaped")
    return 0


def _cmd_analyze(ns) -> int:
    runs_dir = Path(ns.runs_dir)
    if not runs_dir.is_dir():
        raise ValidationError(f"runs dir not found: {runs_dir}")
    _check_out_dir(ns.out_dir)
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
    if ns.seed < 0:
        raise ValidationError(f"fixtures seed must be >= 0, got {ns.seed}")
    _check_out_dir(ns.out_dir)
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
        if getattr(ns, "config", None):
            # file lines go ahead of the command line's flags, and argparse keeps the last value
            ns = parser.parse_args([ns.subcommand, *_read_config_file(ns.config), *argv[1:]])
        return _COMMANDS[ns.subcommand](ns)
    except (ValidationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (SadnetError, OSError) as exc:  # an OSError here comes from writing a result
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
