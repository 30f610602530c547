"""End-to-end CLI tests on tiny synthetic datasets."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from sadnet.cli import run
from sadnet.data import load_cifar10, load_idx
from sadnet.experiment import (CHECKPOINT_MAGIC, TrainConfig, checkpoint_of, load_checkpoint,
                               save_checkpoint)
from sadnet.nn import build_mlp


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
    def test_zero_epochs_rejected(self, tmp_path, capsys):
        code = run(tiny_args("train", tmp_path, epochs=0))
        assert code == 1
        err = capsys.readouterr().err
        assert "epochs" in err
        assert "usage" in err

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

    def test_config_file_value_outside_choices(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dataset=imagenet\n")
        code = run(["train", "--config", str(cfg_file), "--data-dir", str(tmp_path / "fx" / "cifar10"),
                    "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "imagenet" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_escape_requires_checkpoint(self, tmp_path, capsys):
        code = run(tiny_args("escape", tmp_path, epochs=1))
        assert code == 1
        assert "from-checkpoint" in capsys.readouterr().err


class TestFixturesCommand:
    def test_writes_loadable_files(self, tmp_path, capsys):
        code = run(["fixtures", "--out-dir", str(tmp_path)])
        assert code == 0
        train = load_idx(tmp_path / "mnist" / "train-images-idx3-ubyte",
                         tmp_path / "mnist" / "train-labels-idx1-ubyte")
        assert len(train) == 64
        gz = load_idx(tmp_path / "mnist-gz" / "train-images-idx3-ubyte.gz",
                      tmp_path / "mnist-gz" / "train-labels-idx1-ubyte.gz")
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


class TestTrainCommand:
    def test_divergence_exits_2(self, tmp_path, capsys):
        # no numpy warning reaches stderr ahead of the one error line
        code = run(tiny_args("train", tmp_path, epochs=1, optimizer="sgd", lr=1e100))
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite loss at epoch 1\n"

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

    def test_missing_cifar_batch(self, tmp_path, capsys):
        assert run(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
        (tmp_path / "fx" / "cifar10" / "data_batch_2.bin").unlink()
        code = run(["train", "--dataset", "cifar10", "--data-dir", str(tmp_path / "fx" / "cifar10"),
                    "--epochs", "1", "--out-dir", str(tmp_path / "runs")])
        assert code == 1
        assert "data_batch_2.bin" in capsys.readouterr().err

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
        code = run(tiny_args("sadpoint", out, epochs=150, lr=0.003))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sad:" in stdout
        assert "saturated: True" in stdout
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
        assert f"{key!r} must be a positive integer" in capsys.readouterr().err

    def test_arch_larger_than_shapes_exits_2(self, tmp_path, capsys):
        ckpt = save_checkpoint(checkpoint_of(build_mlp(12, 5, 3), TrainConfig(), "clean"),
                               tmp_path / "model.ckpt")
        rewrite_header(ckpt, lambda h: {**h, "arch": {**h["arch"], "hidden": 10**12}})
        code = run(tiny_args("escape", tmp_path / "runs", epochs=1, **{"from_checkpoint": ckpt}))
        assert code == 2
        assert "do not match" in capsys.readouterr().err

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
