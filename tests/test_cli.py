"""End-to-end CLI tests on tiny synthetic datasets."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from sadnet import cli, experiment
from sadnet.cli import _FLAG_NAMES, _config_from, _read_config_file, build_parser, run
from sadnet.data import MNIST_NAMES, load_cifar10, load_idx, write_idx_images, write_idx_labels
from sadnet.experiment import (CHECKPOINT_MAGIC, TrainConfig, checkpoint_of, load_checkpoint,
                               save_checkpoint)
from sadnet.fixtures import write_mnist_fixture
from sadnet.nn import build_cnn, build_mlp
from test_acceptance import BASELINE_EPOCHS, ESCAPE_EPOCHS, SAD_EPOCHS


def tiny_args(subcommand, out_dir, **extra):
    args = [subcommand, "--dataset", "synth", "--train-subset", "60",
            "--test-subset", "20", "--hidden", "16", "--batch-size", "16",
            "--out-dir", str(out_dir), "--seed", "1"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def find_run_dir(out_dir):
    dirs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(dirs) >= 1
    return dirs[0]


def rewrite_header(ckpt, mutate):
    """Replace a checkpoint's JSON header with mutate(header); the payload,
    and so its checksum, stays intact."""
    raw = ckpt.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack(">Q", raw[start - 8:start])
    header = json.dumps(mutate(json.loads(raw[start:start + length]))).encode()
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack(">Q", len(header)) + header
                     + raw[start + length:])


class TestValidation:
    def test_zero_epochs_write_the_start_metrics(self, tmp_path, capsys):
        # the same rule as escape's: 0 epochs records the start and writes both checkpoints
        assert run(tiny_args("train", tmp_path, epochs=0)) == 0
        run_dir = find_run_dir(tmp_path)
        [line] = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert "init_metrics" in json.loads(line)
        assert (run_dir / "init.ckpt").exists() and (run_dir / "clean.ckpt").exists()
        assert capsys.readouterr().out.splitlines()[0] == "clean: no epochs run"

    def test_negative_epochs_rejected(self, tmp_path, capsys):
        code = run(tiny_args("train", tmp_path, epochs=-1))
        assert code == 1
        err = capsys.readouterr().err
        assert "epochs" in err
        assert "usage" in err

    def test_usage_line_is_the_failing_subcommands(self, capsys):
        assert run(["analyze"]) == 1
        error, usage = capsys.readouterr().err.splitlines()
        assert error == "error: the following arguments are required: --runs-dir"
        assert usage.startswith("usage: sadnet analyze") and "--runs-dir" in usage

    def test_unknown_dataset(self, tmp_path, capsys):
        code = run(["train", "--dataset", "imagenet", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        code = run(["train", "--no-such-flag", "1"])
        assert code == 1

    def test_missing_data_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SADNET_DATA_DIR", raising=False)
        code = run(["train", "--dataset", "mnist", "--epochs", "1",
                    "--out-dir", str(tmp_path)])
        assert code == 1
        assert "data" in capsys.readouterr().err.lower()

    # 0 is rejected, not read as "unset", and nothing is written
    @pytest.mark.parametrize("option,value", [("hidden", -5), ("hidden", 0),
                                              ("train_subset", -5), ("train_subset", 0),
                                              ("test_subset", 0)])
    def test_bad_size_rejected(self, tmp_path, capsys, option, value):
        code = run(tiny_args("train", tmp_path, epochs=1, **{option: value}))
        assert code == 1
        assert option in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option,value", [("lr", "nan"), ("l2", "inf")])
    def test_non_finite_rate_rejected(self, tmp_path, capsys, option, value):
        code = run(tiny_args("train", tmp_path, epochs=1, **{option: value}))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {option}")
        assert list(tmp_path.iterdir()) == []

    def test_config_file_value_outside_choices(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset=imagenet\n")
        code = run(["train", "--config", str(cfg_file), "--data-dir", str(tmp_path / "fx" / "cifar10"),
                    "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "imagenet" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"], ["train", "--data-seed", "-2"],
        ["gradcheck", "--seed", "-1"], ["fixtures", "--seed", "-1"],
    ], ids=["train-seed", "train-data-seed", "gradcheck-seed", "fixtures-seed"])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        if argv[0] == "train":
            argv = tiny_args("train", tmp_path, epochs=1) + argv[1:]
        elif argv[0] == "fixtures":
            argv = argv + ["--out-dir", str(tmp_path / "fx")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "seed must be >= 0" in err.splitlines()[0]
        assert list(tmp_path.iterdir()) == []

    # a config line is read as its flag, so both get argparse's or TrainConfig's one check
    @pytest.mark.parametrize("option,value", [("lr", "abc"), ("dataset", "imagenet"),
                                              ("epochs", "2.5"), ("seed", "-1"), ("hidden", "0")])
    def test_config_line_fails_like_its_flag(self, tmp_path, capsys, option, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{option}={value}\n")
        out = tmp_path / "runs"
        results = []
        for extra in (["--config", str(cfg_file)], [f"--{option}", value]):
            code = run(["train", "--out-dir", str(out), *extra])
            err = capsys.readouterr().err
            results.append((code, next(l for l in err.splitlines() if l.startswith("error:"))))
        assert results[0] == results[1]
        assert results[0][0] == 1 and option in results[0][1]
        assert not out.exists()

    def test_escape_requires_checkpoint(self, tmp_path, capsys):
        code = run(tiny_args("escape", tmp_path, epochs=1))
        assert code == 1
        assert "from-checkpoint" in capsys.readouterr().err


class TestOptions:
    # the CLI's own defaults are the dataset and the epoch budgets, which are the acceptance
    # campaigns'; TrainConfig holds the rest, so no flag means no stop
    @pytest.mark.parametrize("subcommand,epochs", [("train", BASELINE_EPOCHS), ("sadpoint", SAD_EPOCHS),
                                                   ("escape", ESCAPE_EPOCHS)])
    def test_unset_options_take_train_config_defaults(self, subcommand, epochs):
        extra = ["--from-checkpoint", "sad.ckpt"] if subcommand == "escape" else []
        ns = build_parser().parse_args([subcommand, *extra])
        assert _config_from(ns) == TrainConfig(epochs=epochs, dataset="synth")

    # so a new setting needs no CLI edit, and no flag holds a setting the config header misses:
    # each field has one flag of its type on every training subcommand, and one config key
    def test_one_option_per_train_config_field(self, tmp_path):
        parser = build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        hints = typing.get_type_hints(TrainConfig)
        for subcommand in ("train", "sadpoint", "escape"):
            actions = subcommands[subcommand]._actions
            lines, want = [], {}
            for f in dataclasses.fields(TrainConfig):
                flag = _FLAG_NAMES.get(f.name, f.name)
                (action,) = [a for a in actions if a.dest == flag]
                assert action.option_strings == ["--" + flag.replace("_", "-")]
                assert action.type in (int, float, str)
                assert hints[f.name] in (action.type, action.type | None)
                assert action.choices == f.metadata.get("choices")
                # a value other than the default that every field of its type accepts
                value = action.choices[-1] if action.choices else action.type("3" if action.type is int else "0.5")
                lines.append(f"{flag}={value}")
                want[f.name] = value
            others = {"help", "config", "progress", "from_checkpoint", "data_dir", "out_dir"}
            assert len({a.dest for a in actions} - others) == len(want)
            cfg_file = tmp_path / f"{subcommand}.cfg"
            cfg_file.write_text("".join(line + "\n" for line in lines))
            extra = ["--from-checkpoint", "sad.ckpt"] if subcommand == "escape" else []
            ns = parser.parse_args([subcommand, *_read_config_file(str(cfg_file)), *extra])
            assert _config_from(ns) == TrainConfig(**want)

    def test_field_of_other_type_refused(self, monkeypatch):
        @dataclasses.dataclass
        class WithSwitch:
            lr: float = 0.1
            switch: bool = False

        monkeypatch.setattr(cli, "TrainConfig", WithSwitch)
        with pytest.raises(TypeError, match="bool"):
            build_parser()


class TestOutDir:
    # a file where the out dir or one of its parents should be is refused before
    # any data is read, so nothing is trained for nothing and nothing is written
    @pytest.mark.parametrize("subcommand", ["train", "sadpoint", "escape", "analyze", "fixtures"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_dir_blocked_by_file_exits_1(self, tmp_path, capsys, subcommand, below):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        if subcommand == "analyze":
            argv = ["analyze", "--runs-dir", str(tmp_path), "--out-dir", str(out)]
        elif subcommand == "fixtures":
            argv = ["fixtures", "--out-dir", str(out)]
        else:
            extra = {"from_checkpoint": tmp_path / "absent.ckpt"} if subcommand == "escape" else {}
            argv = tiny_args(subcommand, out, epochs=1, **extra)
        assert run(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and f"{blocker} is not a directory" in errors[0]
        assert list(tmp_path.iterdir()) == [blocker]

    def test_failed_write_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(experiment, "_write_atomic", fail)
        assert run(tiny_args("train", tmp_path, epochs=1)) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


class TestFixturesCommand:
    def test_writes_loadable_files(self, tmp_path, capsys):
        code = run(["fixtures", "--out-dir", str(tmp_path)])
        assert code == 0
        train = load_idx(tmp_path / "mnist" / "train-images-idx3-ubyte",
                         tmp_path / "mnist" / "train-labels-idx1-ubyte", class_count=10)
        assert len(train) == 64
        gz = load_idx(tmp_path / "mnist-gz" / "train-images-idx3-ubyte.gz",
                      tmp_path / "mnist-gz" / "train-labels-idx1-ubyte.gz", class_count=10)
        np.testing.assert_array_equal(gz.images, train.images)
        ctrain, ctest = load_cifar10(tmp_path / "cifar10")
        assert len(ctrain) == 20

    def test_mnist_fixture_usable_for_training(self, tmp_path):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        code = run(["train", "--dataset", "mnist", "--data-dir", str(tmp_path / "fx" / "mnist"),
                    "--epochs", "1", "--hidden", "8", "--batch-size", "16",
                    "--out-dir", str(tmp_path / "runs")])
        assert code == 0


class TestGradcheckCommand:
    def test_reports_small_error(self, capsys):
        code = run(["gradcheck", "--seed", "7", "--models", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        reported = float(out.strip().rsplit(" ", 1)[-1])
        assert reported < 1e-6

    @pytest.mark.parametrize("models", ["0", "-3"])
    def test_no_models_exits_1(self, capsys, models):
        assert run(["gradcheck", "--models", models]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gradcheck needs at least 1 model")
        assert "max relative error" not in captured.out


class TestEntryPoint:
    # cli.main is what the installed `sadnet` script runs; the other tests call cli.run
    @staticmethod
    def sadnet(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-m", "sadnet.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_validation_error_exits_1(self):
        out = self.sadnet("gradcheck", "--models", "0")
        assert out.returncode == 1
        assert [line for line in out.stderr.splitlines() if line.startswith("error:")] == [
            "error: gradcheck needs at least 1 model, got 0"]

    def test_fixtures_exits_0(self, tmp_path):
        out = self.sadnet("fixtures", "--out-dir", str(tmp_path / "fx"))
        assert out.returncode == 0, out.stderr
        assert len(load_cifar10(tmp_path / "fx" / "cifar10")[0]) == 20


class TestTrainCommand:
    # an overflow in the forward pass, or in the L2 term and the update
    @pytest.mark.parametrize("diverge", [dict(optimizer="sgd", lr=1e100), dict(l2=1e308)],
                             ids=["forward", "l2"])
    def test_divergence_exits_2(self, tmp_path, capsys, diverge):
        # no numpy warning reaches stderr ahead of the one error line
        code = run(tiny_args("train", tmp_path, epochs=1, **diverge))
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite loss at epoch 1\n"

    def test_allocation_failure_exits_2(self, tmp_path, capsys):
        # ~5.6 PiB of weights lies beyond any 64-bit address space, so it is refused at once
        code = run(tiny_args("train", tmp_path / "runs", epochs=1, hidden=10**12))
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_writes_run_artifacts(self, tmp_path, capsys):
        code = run(tiny_args("train", tmp_path, epochs=2))
        assert code == 0
        run_dir = find_run_dir(tmp_path)
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "config"
        assert header["config"]["dataset"] == "synth"
        assert len(lines) == 3
        assert (run_dir / "init.ckpt").exists()
        assert (run_dir / "clean.ckpt").exists()
        assert "clean:" in capsys.readouterr().out

    def test_deterministic_across_processes(self, tmp_path):
        assert run(tiny_args("train", tmp_path / "a", epochs=2)) == 0
        assert run(tiny_args("train", tmp_path / "b", epochs=2)) == 0
        a = find_run_dir(tmp_path / "a")
        b = find_run_dir(tmp_path / "b")
        assert a.name == b.name  # same config -> same run id
        rows_a = [json.loads(l) for l in (a / "metrics.jsonl").read_text().splitlines()]
        rows_b = [json.loads(l) for l in (b / "metrics.jsonl").read_text().splitlines()]
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("elapsed_sec", None)
            rb.pop("elapsed_sec", None)
        assert rows_a == rows_b
        np.testing.assert_array_equal(load_checkpoint(a / "clean.ckpt").theta,
                                      load_checkpoint(b / "clean.ckpt").theta)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "dataset=synth\ntrain-subset=60\ntest-subset=20\nhidden=16\n"
            "batch-size=16\nepochs=2\nseed=5\n# comment line\n")
        code = run(["train", "--config", str(cfg_file), "--epochs", "1",
                    "--out-dir", str(tmp_path / "runs")])
        assert code == 0
        run_dir = find_run_dir(tmp_path / "runs")
        header = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert header["config"]["epochs"] == 1  # flag beat the file
        assert header["config"]["seed"] == 5    # file beat the default

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("momentum=0.9\n")
        assert run(["train", "--config", str(cfg_file), "--epochs", "1"]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr=abc\n")
        assert run(["train", "--config", str(cfg_file), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lr" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path / "absent.cfg"), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.cfg" in err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"lr=\xff\xfe\n")
        assert run(["train", "--config", str(cfg_file), "--epochs", "1"]) == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_config_file_with_byte_order_mark(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfepochs=1\nl2=0.001\n")
        assert run(tiny_args("train", tmp_path / "runs") + ["--config", str(cfg_file)]) == 0
        header = json.loads((find_run_dir(tmp_path / "runs") / "metrics.jsonl").read_text().splitlines()[0])
        assert header["config"]["epochs"] == 1 and header["config"]["l2_lambda"] == 0.001

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nseed 3\n")
        assert run(["train", "--config", str(cfg_file), "--out-dir", str(tmp_path / "runs")]) == 1
        assert f"{cfg_file}:2: expected key=value, got 'seed 3'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # the set and the size at fault are named, not only the class that falls short
    def test_subset_larger_than_a_class_names_set_and_size(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        code = run(["train", "--dataset", "mnist", "--data-dir", str(tmp_path / "fx" / "mnist"),
                    "--test-subset", "10", "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: mnist-test: class 1 has 0 examples; a class-balanced subset of 10 needs 1" in err
        assert not (tmp_path / "runs").exists()

    def test_progress_prints_each_epoch(self, tmp_path, capsys):
        assert run(tiny_args("train", tmp_path, epochs=2) + ["--progress"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["epoch 1", "epoch 2"]
        assert all(" train_acc " in line and " test_acc " in line for line in lines)

    def test_missing_cifar_batch(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        (tmp_path / "fx" / "cifar10" / "data_batch_2.bin").unlink()
        code = run(["train", "--dataset", "cifar10", "--data-dir", str(tmp_path / "fx" / "cifar10"),
                    "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "data_batch_2.bin" in capsys.readouterr().err

    def test_missing_mnist_labels(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        mnist = tmp_path / "fx" / "mnist"
        (mnist / "t10k-labels-idx1-ubyte").unlink()
        code = run(["train", "--dataset", "mnist", "--data-dir", str(mnist), "--epochs", "1",
                    "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        assert (f"error: missing t10k-images-idx3-ubyte[.gz] / t10k-labels-idx1-ubyte[.gz] "
                f"under {mnist}\n") in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # the last IDX label byte, or the first CIFAR record's label byte
    @pytest.mark.parametrize("dataset,name,offset,bad", [
        ("mnist", "t10k-labels-idx1-ubyte", -1, 200), ("cifar10", "test_batch.bin", 0, 77),
    ], ids=["mnist", "cifar10"])
    def test_label_outside_ten_classes_exits_2(self, tmp_path, capsys, dataset, name, offset, bad):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        path = tmp_path / "fx" / dataset / name
        raw = bytearray(path.read_bytes())
        raw[offset] = bad
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        code = run(["train", "--dataset", dataset, "--data-dir", str(tmp_path / "fx" / dataset),
                    "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert f"{name}: label {bad} outside" in capsys.readouterr().err

    def test_corrupt_gzip_exits_2(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        mnist = tmp_path / "fx" / "mnist-gz"
        gz = next(mnist.glob("train-images*.gz"))
        gz.write_bytes(gz.read_bytes()[:-12])
        code = run(["train", "--dataset", "mnist", "--data-dir", str(mnist), "--epochs", "1",
                    "--out-dir", str(tmp_path / "runs")])
        assert code == 2
        assert "gzip" in capsys.readouterr().err

    def test_env_var_data_dir(self, tmp_path, monkeypatch):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        monkeypatch.setenv("SADNET_DATA_DIR", str(tmp_path / "fx" / "mnist"))
        code = run(["train", "--dataset", "mnist", "--epochs", "1", "--hidden", "8",
                    "--batch-size", "16", "--out-dir", str(tmp_path / "runs")])
        assert code == 0


class TestPipelineCommands:
    def test_sadpoint_then_escape_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run(tiny_args("sadpoint", out, epochs=150, lr=0.003, stop_at_train_acc=0.995))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sad:" in stdout
        run_dir = find_run_dir(out)
        sad_path = run_dir / "sad.ckpt"
        assert sad_path.exists()
        final_row = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
        assert final_row["test_acc"] <= 0.15

        code = run(tiny_args("escape", out, epochs=30, lr=0.003,
                             **{"from_checkpoint": sad_path}))
        assert code == 0
        assert "escaped:" in capsys.readouterr().out

        code = run(["analyze", "--runs-dir", str(out), "--out-dir", str(tmp_path / "analysis")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sad:" in stdout
        assert (tmp_path / "analysis" / "distance_summary.csv").exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_sadpoint_sets_no_stop(self, tmp_path):
        # with no --stop-at-train-acc the run takes every epoch and its header records no stop
        assert run(tiny_args("sadpoint", tmp_path, epochs=6, lr=0.003)) == 0
        lines = (find_run_dir(tmp_path) / "metrics.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["config"]["stop_at_train_acc"] is None
        assert [json.loads(line)["epoch"] for line in lines[1:]] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("runs,message", [("absent", "runs dir not found"),
                                              ("empty", "no (init, final) checkpoint pairs under")])
    def test_analyze_without_pairs_exits_1(self, tmp_path, capsys, runs, message):
        (tmp_path / "empty").mkdir()
        code = run(["analyze", "--runs-dir", str(tmp_path / runs), "--out-dir", str(tmp_path / "analysis")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "analysis").exists()

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[-3] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
        code = run(tiny_args("escape", out, epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        code = run(tiny_args("escape", tmp_path, epochs=1,
                             **{"from_checkpoint": tmp_path / "absent.ckpt"}))
        assert code == 1
        assert "absent.ckpt" in capsys.readouterr().err

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"
        rewrite_header(ckpt, lambda header: [header])
        capsys.readouterr()
        code = run(tiny_args("escape", out, epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "not an object" in capsys.readouterr().err
        code = run(["analyze", "--runs-dir", str(out), "--out-dir", str(tmp_path / "analysis")])
        assert code == 2
        assert "not an object" in capsys.readouterr().err

    def test_analyze_refuses_a_nan_weight_exits_2(self, tmp_path, capsys):
        # sadnet never writes one, but a rewritten file with a valid checksum can hold it
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"
        cp = load_checkpoint(ckpt)
        cp.theta[0] = np.nan
        save_checkpoint(cp, ckpt)
        capsys.readouterr()
        code = run(["analyze", "--runs-dir", str(out), "--out-dir", str(tmp_path / "analysis")])
        assert code == 2
        assert f"error: {ckpt}: payload holds a NaN or infinite weight" in capsys.readouterr().err

    # the header checksum covers only the payload, so the builder must check arch itself
    @pytest.mark.parametrize("key,value", [("input_dim", None), ("hidden", "8"), ("hidden", -1)],
                             ids=["input_dim-missing", "hidden-string", "hidden-negative"])
    def test_malformed_arch_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"

        def mutate(header):
            if value is None:
                del header["arch"][key]
            else:
                header["arch"][key] = value
            return header
        rewrite_header(ckpt, mutate)
        capsys.readouterr()
        code = run(tiny_args("escape", out, epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert f"error: {ckpt}: " in (err := capsys.readouterr().err)
        assert f"{key!r} must be a positive integer" in err
        code = run(["analyze", "--runs-dir", str(out), "--out-dir", str(tmp_path / "analysis")])
        assert code == 2
        assert f"error: {ckpt}: " in capsys.readouterr().err

    def test_arch_larger_than_shapes_exits_2(self, tmp_path, capsys):
        ckpt = save_checkpoint(checkpoint_of(build_mlp(12, 5, 3), TrainConfig(), "clean"),
                               tmp_path / "model.ckpt")
        rewrite_header(ckpt, lambda h: {**h, "arch": {**h["arch"], "hidden": 10**12}})
        code = run(tiny_args("escape", tmp_path / "runs", epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "arch needs" in capsys.readouterr().err

    def test_unknown_arch_kind_exits_2(self, tmp_path, capsys):
        ckpt = save_checkpoint(checkpoint_of(build_mlp(12, 5, 3), TrainConfig(), "clean"),
                               tmp_path / "model.ckpt")
        rewrite_header(ckpt, lambda h: {**h, "arch": {**h["arch"], "kind": "resnet"}})
        code = run(tiny_args("escape", tmp_path / "runs", epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "unknown architecture kind: 'resnet'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sadpoint_on_empty_test_set_exits_1(self, tmp_path, capsys):
        write_mnist_fixture(tmp_path / "mnist", seed=0)
        write_idx_images(tmp_path / "mnist" / MNIST_NAMES["test_images"], np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "mnist" / MNIST_NAMES["test_labels"], np.zeros(0, dtype=np.uint8))
        code = run(["sadpoint", "--dataset", "mnist", "--data-dir", str(tmp_path / "mnist"),
                    "--epochs", "1", "--hidden", "8", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "empty" in errors[0]

    def test_escape_with_other_hidden_width_exits_2(self, tmp_path, capsys):
        # a 16-wide checkpoint escaped at the default width of 512
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"
        capsys.readouterr()
        assert run(["escape", "--dataset", "synth", "--train-subset", "60", "--test-subset", "20",
                    "--epochs", "1", "--out-dir", str(out), "--from-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "config makes" in err and "'hidden': 16" in err and "'hidden': 512" in err
        assert [p.name for p in out.iterdir()] == [ckpt.parent.name]

    # the synth set is 1x28x28 with 10 classes and tiny_args asks for an MLP of width 16
    @pytest.mark.parametrize("model", [lambda: build_cnn(1, 28, 10), lambda: build_mlp(12, 16, 10),
                                       lambda: build_mlp(784, 16, 3)],
                             ids=["kind", "input-size", "class-count"])
    def test_escape_with_other_arch_exits_2(self, tmp_path, capsys, model):
        ckpt = save_checkpoint(checkpoint_of(model(), TrainConfig(), "sad"), tmp_path / "sad.ckpt")
        code = run(tiny_args("escape", tmp_path / "runs", epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "config makes" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # the header checksum covers only the payload, and analyze names files after the tag
    def test_analyze_refuses_tag_holding_a_path(self, tmp_path, capsys):
        out = tmp_path / "a" / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        rewrite_header(find_run_dir(out) / "clean.ckpt",
                       lambda h: {**h, "tag": "x/../../../escaped_file"})
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run(["analyze", "--runs-dir", str(out), "--out-dir", str(tmp_path / "a" / "analysis")])
        assert code == 2
        assert "clean.ckpt: header 'tag'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_zero_epoch_escape_prints_run_dir(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(tiny_args("train", out, epochs=1)) == 0
        ckpt = find_run_dir(out) / "clean.ckpt"
        capsys.readouterr()
        assert run(tiny_args("escape", out, epochs=0, **{"from_checkpoint": ckpt})) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "escaped: no epochs run"
        assert lines[1].startswith("run dir: ")
        assert (Path(lines[1][len("run dir: "):]) / "escaped.ckpt").exists()
