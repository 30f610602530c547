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
import dataclasses
import os
import sys
import typing
from pathlib import Path

from .errors import SadnetError, ShapeError, ValidationError
from .experiment import (TrainConfig, construct_sad_point, distance_report, escape_run, field_type,
                         load_checkpoint, load_datasets, new_model, run_pairs, train)
from .fixtures import write_cifar10_fixture, write_mnist_fixture
from .gradcheck import REL_TOLERANCE, gradcheck_suite

# TrainConfig fields whose flag, and config-file key, has another name
_FLAG_NAMES = {"model_kind": "model", "l2_lambda": "l2"}
# options that say where data and runs live, outside the config
_PLACES = ("data_dir", "out_dir")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _settings() -> list[tuple[str, str, type, tuple | None]]:
    """(flag name, field name, type, choices) per TrainConfig field, in field order;
    the flag name is also the config-file key."""
    hints = typing.get_type_hints(TrainConfig)
    return [(_FLAG_NAMES.get(f.name, f.name), f.name, field_type(hints[f.name]), f.metadata.get("choices"))
            for f in dataclasses.fields(TrainConfig)]


def _add_training(parser: _Parser, epochs: int):
    parser.add_argument("--config", help="key=value file; explicit flags win")
    for flag, _, typ, choices in _settings():
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag, type=typ, choices=choices)
    for place in _PLACES:
        parser.add_argument("--" + place.replace("_", "-"), dest=place)
    parser.add_argument("--progress", action="store_true")
    # an option neither given nor defaulted here is left to TrainConfig
    parser.set_defaults(dataset="synth", out_dir="runs", data_dir=os.environ.get("SADNET_DATA_DIR"),
                        epochs=epochs)


def build_parser() -> _Parser:
    parser = _Parser(prog="sadnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # run follows an error with the failing subcommand's usage
    for name, epochs in (("train", 30), ("sadpoint", 48), ("escape", 50)):
        _add_training(sub.add_parser(name), epochs)
    escape = sub.choices["escape"]
    escape.add_argument("--from-checkpoint", dest="from_checkpoint", required=True)

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
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8 text") from None
    keys = {flag for flag, *_ in _settings()}.union(_PLACES)
    unknown = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
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
    given = {name: getattr(ns, flag) for flag, name, *_ in _settings()}
    return TrainConfig(**{name: value for name, value in given.items() if value is not None})


def _print_progress(row):
    print(f"epoch {row.epoch}: train_acc {row.train_acc:.4f} "
          f"test_acc {row.test_acc:.4f}", file=sys.stderr)


def _summarize(record):
    if record.rows:
        last = record.rows[-1]
        print(f"{record.tag}: epochs {last.epoch} train_acc {last.train_acc:.4f} "
              f"test_acc {last.test_acc:.4f} dist_from_init {last.dist_from_init:.3f}")
    else:
        print(f"{record.tag}: no epochs run")
    if record.run_dir:
        print(f"run dir: {record.run_dir}")


def _cmd_run(ns) -> int:
    """train, sadpoint or escape: one run of the config the options give, on its datasets."""
    _check_out_dir(ns.out_dir)
    cfg = _config_from(ns)
    sad = load_checkpoint(ns.from_checkpoint) if ns.subcommand == "escape" else None
    train_ds, test_ds = load_datasets(cfg, ns.data_dir)
    on_epoch = _print_progress if ns.progress else None
    if sad is not None:
        _, record = escape_run(sad, train_ds, test_ds, cfg, out_dir=ns.out_dir, on_epoch=on_epoch)
    elif ns.subcommand == "sadpoint":
        _, record = construct_sad_point(train_ds, test_ds, cfg, out_dir=ns.out_dir, on_epoch=on_epoch)
    else:
        _, record = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg,
                          out_dir=ns.out_dir, on_epoch=on_epoch)
    _summarize(record)
    return 0


def _cmd_analyze(ns) -> int:
    _check_out_dir(ns.out_dir)
    report = distance_report(run_pairs(ns.runs_dir))
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


_COMMANDS = {"train": _cmd_run, "sadpoint": _cmd_run, "escape": _cmd_run,
             "analyze": _cmd_analyze, "gradcheck": _cmd_gradcheck, "fixtures": _cmd_fixtures}


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
        # every option belongs to a subcommand, so argv[0] names the subcommand if any does
        failed = parser.subcommands.get(argv[0] if argv else None, parser)
        print(failed.format_usage(), file=sys.stderr, end="")
        return 1
    except (SadnetError, OSError, MemoryError) as exc:  # OSError: writing a result; MemoryError: sizing arrays
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
