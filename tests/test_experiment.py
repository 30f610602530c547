"""Training loop, pipelines, checkpoints, metrics, and analysis tests.

Memorization runs here use tiny blob datasets so the whole module stays
fast; the full-size campaigns live in the acceptance suite.
"""

import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
import pytest

from sadnet import experiment, tensor
from sadnet.data import LabeledDataset, build_corrupted_train, corrupt_labels, load_mnist, subset
from sadnet.errors import (CheckpointError, ConsistencyError, DivergenceError,
                           FormatError, SadnetError, ValidationError)
from sadnet.experiment import (CHECKPOINT_MAGIC, Checkpoint, TrainConfig, checkpoint_of,
                               clean_gradient_norm, construct_sad_point,
                               corruption_rng, distance_report, escape_run,
                               evaluate, load_checkpoint, load_datasets, new_model,
                               run_id_for, run_pairs, save_checkpoint, train)
from sadnet.fixtures import synth_blobs, synth_images, write_mnist_fixture
from sadnet.nn import build_mlp, init_xavier_uniform


@pytest.fixture(scope="module")
def blob_pair():
    train_ds = synth_blobs(60, k=2, dim=32, seed=0)
    test_ds = synth_blobs(30, k=2, dim=32, seed=1)
    return train_ds, test_ds


def blob_config(**kw):
    defaults = dict(model_kind="mlp", optimizer="adam", lr=0.003, batch_size=16,
                    epochs=5, seed=7, hidden=64)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValidationError):
            TrainConfig(stop_at_train_acc=1.5)
        with pytest.raises(ValidationError):
            TrainConfig(model_kind="resnet")
        for field, value in (("hidden", 0), ("train_subset", 0), ("test_subset", -5),
                             ("lr", math.nan), ("lr", math.inf),
                             ("l2_lambda", math.nan), ("l2_lambda", math.inf),
                             ("seed", -1), ("data_seed", -2), ("optimizer", "rmsprop"),
                             ("batch_size", 0)):
            with pytest.raises(ValidationError, match=field):
                TrainConfig(**{field: value})

    def test_cnn_refuses_non_square_images(self):
        ds = LabeledDataset(np.zeros((2, 1, 4, 6)), [0, 1], 2)
        with pytest.raises(ValidationError, match="square images, got 4x6"):
            new_model(blob_config(model_kind="cnn"), ds)

    @pytest.mark.parametrize("field,value", [("batch_size", 2.5), ("hidden", "8"), ("epochs", True),
                                             ("lr", "0.1"), ("seed", None)])
    def test_value_of_wrong_type(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_int_in_float_field_stays_as_given(self):
        # so a config header that records lr=1 keeps its bytes, and its run id
        cfg = TrainConfig(lr=1, stop_at_train_acc=1)
        assert type(cfg.lr) is int and type(cfg.stop_at_train_acc) is int

    def test_numpy_scalars_train_like_python_numbers(self, blob_pair):
        train_ds, test_ds = blob_pair
        runs = []
        for cfg in (blob_config(seed=1, hidden=8, lr=0.003),
                    blob_config(seed=np.int64(1), hidden=np.int32(8), lr=np.float64(0.003))):
            assert type(cfg.seed) is int and type(cfg.hidden) is int and type(cfg.lr) is float
            runs.append(train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)[1])
        assert runs[0].run_id == runs[1].run_id
        assert runs[0].deterministic_payload() == runs[1].deterministic_payload()

    def test_numpy_class_count_trains(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=12)
        ds = LabeledDataset(rng.uniform(size=(12, 1, 1, 4)), labels, labels.max() + 1)
        cfg = blob_config(epochs=1, hidden=4)
        cp, rec = train(new_model(cfg, ds), ds, ds, ds, cfg, out_dir=tmp_path)
        assert load_checkpoint(tmp_path / rec.run_id / "clean.ckpt").arch == cp.arch

    def test_run_id_deterministic(self):
        cfg = blob_config()
        assert run_id_for(asdict(cfg), "clean", "a1") == run_id_for(asdict(cfg), "clean", "a1")
        assert run_id_for(asdict(cfg), "clean", "a1") != run_id_for(asdict(cfg), "sad", "a1")

    def test_escape_run_id_names_start_weights(self, blob_pair, tmp_path):
        # two escapes with one config from different sad points must not share a directory
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=0)
        starts = [checkpoint_of(new_model(blob_config(seed=seed), train_ds), cfg, "sad") for seed in (1, 2)]
        ids = [escape_run(cp, train_ds, test_ds, cfg, out_dir=tmp_path)[1].run_id for cp in starts]
        assert ids[0] != ids[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ids)
        assert escape_run(starts[0], train_ds, test_ds, cfg)[1].run_id == ids[0]


class TestTrain:
    def test_zero_epochs_returns_start_weights(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=0)
        model = new_model(cfg, train_ds)
        w0 = model.theta.copy()
        cp, rec = train(model, train_ds, train_ds, test_ds, cfg, out_dir=tmp_path)
        assert rec.rows == []
        np.testing.assert_array_equal(cp.theta, w0)
        run_dir = tmp_path / rec.run_id
        np.testing.assert_array_equal(load_checkpoint(run_dir / "init.ckpt").theta, w0)
        np.testing.assert_array_equal(load_checkpoint(run_dir / "clean.ckpt").theta, w0)

    def test_single_epoch_single_row(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=1)
        cp, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        assert len(rec.rows) == 1
        assert rec.rows[0].epoch == 1

    def test_init_loss_near_ln_k(self, blob_pair):
        # loose bound: blob inputs are small-dim and uncentered, so the tiny
        # net's logits spread more at init than the wide image MLP's do
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=1)
        _, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        assert abs(rec.init_metrics["train_loss"] - math.log(2)) < 0.35 * math.log(2)

    def test_blob_memorization(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=50)
        cp, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        assert rec.rows[-1].train_acc == 1.0

    def test_determinism(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=3)
        cp1, rec1 = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        cp2, rec2 = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        np.testing.assert_array_equal(cp1.theta, cp2.theta)
        assert rec1.deterministic_payload() == rec2.deterministic_payload()

    def test_early_stop(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=100, stop_at_train_acc=0.9)
        _, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        # epoch 2's row already reaches the target, but its running accuracy is not yet within 0.01
        assert rec.rows[1].train_acc == 1.0
        assert rec.rows[-1].epoch == 3
        assert rec.rows[-1].train_acc >= 0.9

    def test_rows_strictly_increasing_and_bounded(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=4)
        _, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        epochs = [r.epoch for r in rec.rows]
        assert epochs == sorted(set(epochs))
        for r in rec.rows:
            assert 0.0 <= r.train_acc <= 1.0
            assert 0.0 <= r.test_acc <= 1.0

    def test_class_count_mismatch(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config()
        model = new_model(cfg, train_ds)
        other = synth_blobs(12, k=3, dim=32, seed=3)
        with pytest.raises(ConsistencyError):
            train(model, other, other, test_ds, cfg)

    # a tag becomes a file name, so one holding a path is refused before any step or write
    def test_tag_holding_a_path_refused_before_any_write(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=1)
        with pytest.raises(SadnetError, match="not a plain name"):
            train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg,
                  out_dir=tmp_path / "runs", tag="../../escaped_file")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_loss_raises_with_record(self, blob_pair):
        # SGD at lr 1e100 overflows the logits within the first epoch
        train_ds, test_ds = blob_pair
        cfg = blob_config(optimizer="sgd", lr=1e100)
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 1") as info:
            train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        record = info.value.record
        assert record.run_id == run_id_for(asdict(cfg), "clean", record.init_hash)
        assert record.header()["config"] == asdict(cfg)
        assert math.isfinite(record.init_metrics["train_loss"])
        assert record.rows == []

    def test_overflowing_l2_term_raises(self, blob_pair):
        # 2 * 1e308 * W is infinite, so the update is NaN: no numpy warning, a DivergenceError
        train_ds, test_ds = blob_pair
        cfg = blob_config(l2_lambda=1e308)
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 1"):
            train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)

    def test_last_step_divergence_records_nothing_non_finite(self, blob_pair, tmp_path):
        # one step per epoch: the losses the step sees stay finite, the epoch's metrics do not
        train_ds, test_ds = blob_pair
        cfg = blob_config(optimizer="sgd", lr=1e200, batch_size=64, epochs=1)
        with pytest.raises(DivergenceError, match="non-finite metrics at epoch 1") as info:
            train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg, out_dir=tmp_path)
        assert info.value.record.rows == []
        for path in tmp_path.rglob("*"):
            if path.is_file():
                assert b"NaN" not in path.read_bytes() and b"Infinity" not in path.read_bytes()

    def test_infinite_weight_norm_with_finite_losses_raises(self):
        train_ds = synth_blobs(40, k=2, dim=32, seed=0)
        test_ds = synth_blobs(20, k=2, dim=32, seed=1)
        cfg = TrainConfig(optimizer="sgd", lr=1e100, batch_size=8, epochs=1, hidden=16)
        with pytest.raises(DivergenceError, match="non-finite metrics at epoch 1") as info:
            train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
        assert info.value.record.rows == []


class TestEvaluate:
    def test_uniform_model(self, blob_pair):
        train_ds, _ = blob_pair
        model = build_mlp(32, 4, 2)  # zero weights -> uniform prediction
        loss, acc = evaluate(model, train_ds)
        assert loss == pytest.approx(math.log(2), rel=1e-9)
        # all logits tie, so every prediction is the lowest class index
        frac_class0 = float((train_ds.labels == 0).mean())
        assert acc == pytest.approx(frac_class0)

    def test_saturated_single_example(self):
        ds = LabeledDataset(np.ones((1, 1, 1, 4)), np.array([1]), 2)
        model = build_mlp(4, 2, 2)
        model.layers[-1].b[...] = [-500.0, 500.0]
        loss, acc = evaluate(model, ds)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(np.zeros((0, 1, 1, 4)), np.zeros(0, dtype=int), 2)
        model = build_mlp(4, 2, 2)
        with pytest.raises(ValidationError):
            evaluate(model, ds)

    def test_weighted_decomposition_identity(self, blob_pair):
        train_ds, test_ds = blob_pair
        ctest = corrupt_labels(test_ds, np.random.default_rng(0))
        ctrain = build_corrupted_train(train_ds, ctest)
        cfg = blob_config(epochs=6)
        model = new_model(cfg, train_ds)
        _, _ = train(model, ctrain, train_ds, test_ds, cfg)
        t = len(train_ds) // len(test_ds) + 1
        _, acc_total = evaluate(model, ctrain)
        _, acc_train = evaluate(model, train_ds)
        _, acc_ctest = evaluate(model, ctest)
        n_total = len(train_ds) + t * len(ctest)
        hits = acc_train * len(train_ds) + t * acc_ctest * len(ctest)
        assert acc_total * n_total == pytest.approx(hits, abs=1e-9)


class TestSadPointAndEscape:
    def test_binary_blobs_sad_point(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=200)
        cp, rec = construct_sad_point(train_ds, test_ds, cfg)
        assert cp.tag == "sad"
        last = rec.rows[-1]
        assert last.train_acc >= 0.98
        # k = 2: every test label flipped and memorized -> near zero accuracy
        assert last.test_acc <= 0.1

    def test_sad_corrupted_set_reconstructible(self, blob_pair):
        # the corruption draw depends only on cfg.seed, so bookkeeping
        # against the exact corrupted set is possible after the fact
        train_ds, test_ds = blob_pair
        a = corrupt_labels(test_ds, corruption_rng(7))
        b = corrupt_labels(test_ds, corruption_rng(7))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_corrupted_block_accuracy_bookkeeping(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=200)
        cp, _ = construct_sad_point(train_ds, test_ds, cfg)
        model = cp.to_model()
        ctest = corrupt_labels(test_ds, corruption_rng(cfg.seed))
        logits = model.forward(ctest.images, cache=False)
        pred = logits.argmax(axis=1)
        acc_corrupted = float((pred == ctest.labels).mean())
        agree_original = float((pred == test_ds.labels).mean())
        # binary classes: prediction matches either the flipped label or the original
        assert acc_corrupted == pytest.approx(1.0 - agree_original)

    def test_escape_zero_epochs_identity(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=200)
        sad_cp, _ = construct_sad_point(train_ds, test_ds, cfg)
        esc_cp, esc_rec = escape_run(sad_cp, train_ds, test_ds, blob_config(epochs=0))
        np.testing.assert_array_equal(esc_cp.theta, sad_cp.theta)
        assert esc_cp.tag == "escaped"
        assert esc_rec.rows == []

    def test_escape_from_non_finite_checkpoint_raises(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=0)
        start = checkpoint_of(new_model(cfg, train_ds), cfg, "sad")
        start.theta[0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite init metrics") as info:
            escape_run(start, train_ds, test_ds, cfg, out_dir=tmp_path)
        assert info.value.record.init_metrics == {}
        assert list(tmp_path.iterdir()) == []

    def test_sad_run_directory_has_one_config(self, blob_pair, tmp_path):
        # with the default stop, init.ckpt holds the config the run trained with
        train_ds, test_ds = blob_pair
        _, rec = construct_sad_point(train_ds, test_ds, blob_config(epochs=3), out_dir=tmp_path)
        run_dir = tmp_path / rec.run_id
        header = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[0])
        init_config = load_checkpoint(run_dir / "init.ckpt").config
        assert init_config == load_checkpoint(run_dir / "sad.ckpt").config == header["config"]
        assert init_config["stop_at_train_acc"] == 0.995

    def test_escape_measures_distance_from_sad_point(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=200)
        sad_cp, _ = construct_sad_point(train_ds, test_ds, cfg)
        esc_cp, esc_rec = escape_run(sad_cp, train_ds, test_ds, blob_config(epochs=2))
        moved = float(np.linalg.norm(esc_cp.theta - sad_cp.theta))
        assert esc_rec.rows[-1].dist_from_init == pytest.approx(moved, rel=1e-9)

    def test_escape_architecture_mismatch(self, tmp_path):
        # 8x8 images, which both kinds take, so only the arch rule can refuse the kind
        def square(k, hw):
            blobs = synth_blobs(24, k=k, dim=hw * hw, seed=k)
            return LabeledDataset(blobs.images.reshape(-1, 1, hw, hw), blobs.labels, k)
        ds = square(2, 8)
        cp = checkpoint_of(new_model(blob_config(), ds), blob_config(), "sad")
        for cfg, other in ((blob_config(model_kind="cnn"), ds), (blob_config(hidden=17), ds),
                           (blob_config(), square(2, 10)), (blob_config(), square(3, 8))):
            with pytest.raises(CheckpointError, match="config makes"):
                escape_run(cp, other, other, cfg, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_sad_point_refuses_class_count_mismatch(self, blob_pair, tmp_path):
        other = synth_blobs(12, k=3, dim=32, seed=3)
        with pytest.raises(ConsistencyError, match="class counts differ"):
            construct_sad_point(blob_pair[0], other, blob_config(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_full_corrupted_accuracy_implies_full_clean_accuracy(self, blob_pair):
        # the clean train set is the verbatim prefix of the corrupted one
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=300, stop_at_train_acc=1.0)
        cp, _ = construct_sad_point(train_ds, test_ds, cfg)
        ctrain = build_corrupted_train(train_ds, corrupt_labels(test_ds, corruption_rng(cfg.seed)))
        assert evaluate(cp.to_model(), ctrain)[1] == 1.0
        _, clean_acc = evaluate(cp.to_model(), train_ds)
        assert clean_acc == 1.0

    def test_monotone_memorization_pressure(self, blob_pair):
        # corrupted-train accuracy at saturation >= accuracy after epoch 1;
        # the one-epoch run replays the exact same init and batch order
        train_ds, test_ds = blob_pair
        ctest = corrupt_labels(test_ds, corruption_rng(7))
        ctrain = build_corrupted_train(train_ds, ctest)
        one = blob_config(epochs=1)
        model1 = new_model(one, train_ds)
        train(model1, ctrain, train_ds, test_ds, one, tag="sad")
        _, acc_epoch1 = evaluate(model1, ctrain)
        full = blob_config(epochs=200, stop_at_train_acc=0.995)
        model2 = new_model(full, train_ds)
        cp, rec = train(model2, ctrain, train_ds, test_ds, full, tag="sad")
        assert rec.rows[-1].epoch < 200
        assert evaluate(cp.to_model(), ctrain)[1] >= acc_epoch1

    def test_sad_run_stops_only_when_running_accuracy_is_close_too(self, blob_pair):
        # the corrupted set is fully memorized after epoch 2, yet that epoch's running
        # accuracy is below target - 0.01, so the run goes on to epoch 3
        train_ds, test_ds = blob_pair
        ctrain = build_corrupted_train(train_ds, corrupt_labels(test_ds, corruption_rng(7)))
        cfg = blob_config(epochs=200, stop_at_train_acc=0.995)
        model = new_model(cfg, train_ds)
        end_of_epoch = []
        _, rec = train(model, ctrain, train_ds, test_ds, cfg, tag="sad",
                       on_epoch=lambda row: end_of_epoch.append(evaluate(model, ctrain)[1]))
        assert end_of_epoch[1] == 1.0
        assert rec.rows[-1].epoch == 3

    def test_cnn_sad_point_and_escape_deterministic(self):
        train_ds, test_ds = synth_images(24, 12, data_seed=3)

        def pipeline():
            cfg = TrainConfig(model_kind="cnn", lr=0.003, batch_size=16, epochs=2, seed=5)
            sad_cp, sad_rec = construct_sad_point(train_ds, test_ds, cfg, default_stop=None)
            _, esc_rec = escape_run(sad_cp, train_ds, test_ds, cfg)
            return sad_rec, esc_rec

        first, second = pipeline(), pipeline()
        for rec in first:
            assert len(rec.rows) == 2
            values = list(rec.init_metrics.values())
            values += [v for row in rec.rows for v in astuple(row)]
            assert all(math.isfinite(v) for v in values)
        for a, b in zip(first, second):
            assert a.deterministic_payload() == b.deterministic_payload()

    def test_cnn_payload_is_the_same_at_one_and_two_workers(self, monkeypatch):
        train_ds, test_ds = synth_images(24, 12, data_seed=3)
        cfg = TrainConfig(model_kind="cnn", lr=0.003, batch_size=16, epochs=2, seed=5)
        payloads = []
        for workers in (1, 2):
            monkeypatch.setattr(tensor, "WORKERS", workers)
            _, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
            payloads.append(rec.deterministic_payload())
        assert payloads[0] == payloads[1]

    def test_mlp_payload_is_the_same_at_one_and_two_workers(self, monkeypatch):
        # the 784-512-10 MLP: its first layer's products are cut into column panels
        train_ds, test_ds = synth_images(24, 12, data_seed=3)
        cfg = TrainConfig(batch_size=16, epochs=2, seed=5)
        payloads = []
        for workers in (1, 2):
            monkeypatch.setattr(tensor, "WORKERS", workers)
            _, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)
            payloads.append(rec.deterministic_payload())
        assert payloads[0] == payloads[1]

    def test_payload_is_the_same_at_one_and_two_blas_threads(self):
        # each child asks for a BLAS thread count before importing sadnet, which pins one;
        # the weights are hashed too, since 2 epochs move the metrics less than their last digit
        script = (
            "import hashlib, os\n"
            "import sadnet\n"
            "from sadnet import tensor\n"
            "from sadnet.experiment import TrainConfig, new_model, train\n"
            "from sadnet.fixtures import synth_images\n"
            "tensor.WORKERS = min(tensor.WORKERS, 2)\n"
            "print(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', "
            "'MKL_NUM_THREADS')))\n"
            "train_ds, test_ds = synth_images(256, 64, data_seed=3)\n"
            "cfg = TrainConfig(epochs=2, seed=5)\n"
            "cp, rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg)\n"
            "print(hashlib.sha256(rec.deterministic_payload() + cp.theta.tobytes()).hexdigest())\n")
        src = str(Path(experiment.__file__).resolve().parents[1])
        outputs = []
        for threads in ("2", "1"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout.splitlines())
        assert outputs[0][0] == outputs[1][0] == "1 1 1"
        assert outputs[0][1] == outputs[1][1]


class TestLoadDatasets:
    def test_synth_is_synth_images(self):
        cfg = TrainConfig(dataset="synth", data_seed=3, train_subset=50, test_subset=20)
        got = load_datasets(cfg, None)
        for a, b in zip(got, synth_images(50, 20, data_seed=3)):
            np.testing.assert_array_equal(a.images, b.images)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.name == b.name

    def test_real_set_is_the_class_balanced_draw(self, tmp_path):
        write_mnist_fixture(tmp_path, n_train=100, n_test=40)
        cfg = TrainConfig(dataset="fashion-mnist", data_seed=2, train_subset=20, test_subset=10)
        full_train, full_test = load_mnist(tmp_path, "fashion-mnist")
        rng = np.random.default_rng((2, 808))
        want = subset(full_train, 20, rng), subset(full_test, 10, rng)
        for a, b in zip(load_datasets(cfg, tmp_path), want):
            np.testing.assert_array_equal(a.images, b.images)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.name == b.name

    def test_unknown_name_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="acceptance"):
            load_datasets(TrainConfig(dataset="acceptance"), tmp_path)

    def test_missing_data_dir_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="data dir not found"):
            load_datasets(TrainConfig(dataset="mnist"), tmp_path / "absent")

    def test_real_set_needs_data_dir(self):
        with pytest.raises(ValidationError, match="dataset 'mnist' is read from files, but no data_dir"):
            load_datasets(TrainConfig(dataset="mnist"), None)


class TestGradientNorm:
    def test_saturated_single_sample_near_zero(self):
        ds = LabeledDataset(np.ones((1, 1, 1, 4)), np.array([1]), 2)
        model = build_mlp(4, 2, 2)
        model.layers[-1].b[...] = [-40.0, 40.0]
        cp = checkpoint_of(model, TrainConfig(hidden=2), "sad")
        assert clean_gradient_norm(cp, ds) < 1e-3

    def test_duplication_invariance(self, blob_pair):
        train_ds, _ = blob_pair
        cfg = blob_config()
        model = new_model(cfg, train_ds)
        cp = checkpoint_of(model, cfg, "init")
        doubled = LabeledDataset(np.concatenate([train_ds.images] * 2),
                                 np.concatenate([train_ds.labels] * 2),
                                 train_ds.class_count)
        a = clean_gradient_norm(cp, train_ds)
        b = clean_gradient_norm(cp, doubled)
        assert a == pytest.approx(b, rel=1e-9)


class TestDistanceReport:
    def test_identical_pair_zero_distance(self, blob_pair):
        train_ds, _ = blob_pair
        cfg = blob_config()
        model = new_model(cfg, train_ds)
        cp = checkpoint_of(model, cfg, "clean")
        report = distance_report([(cp, cp)])
        assert report.entries[0]["distance"] == 0.0

    def test_histogram_partition(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=2)
        model = new_model(cfg, train_ds)
        init_cp = checkpoint_of(model, cfg, "init")
        final_cp, _ = train(model, train_ds, train_ds, test_ds, cfg)
        report = distance_report([(init_cp, final_cp)])
        entry = report.entries[0]
        assert entry["hist_counts"].sum() == final_cp.theta.size
        assert len(entry["hist_counts"]) == 64

    def test_cohort_stats_and_write(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        pairs = []
        for seed in (1, 2):
            cfg = blob_config(epochs=2, seed=seed)
            model = new_model(cfg, train_ds)
            init_cp = checkpoint_of(model, cfg, "init")
            final_cp, _ = train(model, train_ds, train_ds, test_ds, cfg)
            pairs.append((init_cp, final_cp))
        report = distance_report(pairs)
        assert report.cohorts["clean"]["n"] == 2
        out = report.write(tmp_path / "analysis")
        assert (out / "distance_summary.csv").exists()
        assert (out / "distance_cohorts.csv").exists()
        hist = (out / "weights_hist_0_clean.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        assert len(hist) == 65

    def test_architecture_mismatch(self, blob_pair):
        train_ds, _ = blob_pair
        a = checkpoint_of(new_model(blob_config(), train_ds), blob_config(), "init")
        b = checkpoint_of(new_model(blob_config(hidden=32), train_ds), blob_config(hidden=32), "clean")
        with pytest.raises(CheckpointError):
            distance_report([(a, b)])


class TestRunPairs:
    def test_pairs_in_directory_name_order(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=1)
        sad, sad_rec = construct_sad_point(train_ds, test_ds, cfg, out_dir=tmp_path)
        _, clean_rec = train(new_model(cfg, train_ds), train_ds, train_ds, test_ds, cfg, out_dir=tmp_path)
        _, escape_rec = escape_run(sad, train_ds, test_ds, cfg, out_dir=tmp_path)
        (tmp_path / "notes.ckpt").write_bytes(b"")  # a file, not a run directory
        save_checkpoint(sad, tmp_path / "no-init" / "sad.ckpt")  # no init.ckpt to pair with
        records = sorted((sad_rec, clean_rec, escape_rec), key=lambda rec: rec.run_id)
        pairs = run_pairs(tmp_path)
        assert [final.tag for _, final in pairs] == [rec.tag for rec in records]
        for (init, final), rec in zip(pairs, records):
            run_dir = tmp_path / rec.run_id
            np.testing.assert_array_equal(init.theta, load_checkpoint(run_dir / "init.ckpt").theta)
            np.testing.assert_array_equal(final.theta, load_checkpoint(run_dir / f"{rec.tag}.ckpt").theta)

    def test_init_pairs_with_each_final_in_tag_order(self, blob_pair, tmp_path):
        model = new_model(blob_config(), blob_pair[0])
        for tag in ("escaped", "init", "other", "sad", "clean"):
            save_checkpoint(checkpoint_of(model, blob_config(), tag), tmp_path / "run" / f"{tag}.ckpt")
        assert [(init.tag, final.tag) for init, final in run_pairs(tmp_path)] == [
            ("init", "clean"), ("init", "sad"), ("init", "escaped")]

    def test_missing_or_pairless_runs_dir(self, tmp_path):
        with pytest.raises(ValidationError, match="runs dir not found"):
            run_pairs(tmp_path / "absent")
        (tmp_path / "run").mkdir()
        with pytest.raises(ValidationError, match=r"no \(init, final\) checkpoint pairs under"):
            run_pairs(tmp_path)


class TestCheckpointIO:
    def test_round_trip_bits(self, blob_pair, tmp_path):
        train_ds, _ = blob_pair
        cfg = blob_config()
        model = new_model(cfg, train_ds)
        cp = checkpoint_of(model, cfg, "clean")
        path = save_checkpoint(cp, tmp_path / "model.ckpt")
        loaded = load_checkpoint(path)
        assert loaded.tag == "clean"
        assert loaded.arch == cp.arch
        for a, b in zip(loaded.params, cp.params):
            np.testing.assert_array_equal(a, b)

    def test_single_byte_corruption_detected(self, blob_pair, tmp_path):
        train_ds, _ = blob_pair
        cfg = blob_config()
        cp = checkpoint_of(new_model(cfg, train_ds), cfg, "clean")
        path = save_checkpoint(cp, tmp_path / "model.ckpt")
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
            load_checkpoint(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(ValidationError, match="absent.ckpt"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + bytes(64))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_persisted_run_directory(self, blob_pair, tmp_path):
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=2)
        model = new_model(cfg, train_ds)
        cp, rec = train(model, train_ds, train_ds, test_ds, cfg, out_dir=tmp_path, tag="clean")
        run_dir = tmp_path / rec.run_id
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "init.ckpt").exists()
        assert (run_dir / "clean.ckpt").exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "config"
        assert header["config"]["seed"] == cfg.seed
        assert len(lines) == 1 + len(rec.rows)
        csv_lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc,weight_norm,dist_from_init,elapsed_sec"

    def test_init_checkpoint_matches_reconstruction(self, blob_pair, tmp_path):
        # the init checkpoint on disk equals a fresh model built from the same seed
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=1)
        model = new_model(cfg, train_ds)
        w_init = model.theta.copy()
        _, rec = train(model, train_ds, train_ds, test_ds, cfg, out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / rec.run_id / "init.ckpt")
        np.testing.assert_array_equal(loaded.theta, w_init)
        np.testing.assert_array_equal(new_model(cfg, train_ds).theta, w_init)

    @pytest.mark.parametrize("module,attr", [(experiment.struct, "pack"),
                                             (os, "replace")],
                             ids=["pack", "replace"])
    def test_failed_write_keeps_old_checkpoint(self, blob_pair, tmp_path, monkeypatch,
                                               module, attr):
        train_ds, _ = blob_pair
        old = checkpoint_of(new_model(blob_config(), train_ds), blob_config(), "clean")
        path = save_checkpoint(old, tmp_path / "model.ckpt")
        new = checkpoint_of(new_model(blob_config(seed=8), train_ds), blob_config(seed=8), "clean")

        def fail(*args):
            raise OSError("write failed")
        monkeypatch.setattr(module, attr, fail)
        with pytest.raises(OSError, match="write failed"):
            save_checkpoint(new, path)
        monkeypatch.undo()
        np.testing.assert_array_equal(load_checkpoint(path).theta, old.theta)
        assert list(tmp_path.iterdir()) == [path]

    def test_header_not_an_object(self, blob_pair, tmp_path):
        path = self._rewrite_header(blob_pair, tmp_path, lambda h: [h])
        with pytest.raises(FormatError, match="not an object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["arch", "config", "tag"])
    def test_header_missing_field(self, blob_pair, tmp_path, key):
        path = self._rewrite_header(blob_pair, tmp_path,
                                    lambda h: {k: v for k, v in h.items() if k != key})
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)

    # analyze names its files after the tag, so a tag that is a path is refused
    @pytest.mark.parametrize("tag", ["../x", "a/b", ""])
    def test_tag_not_a_plain_name(self, blob_pair, tmp_path, tag):
        path = self._rewrite_header(blob_pair, tmp_path, lambda h: {**h, "tag": tag})
        with pytest.raises(FormatError, match=r"model\.ckpt: header 'tag'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tag", ["a/b", "..", ""])
    def test_checkpoint_refuses_tag_holding_a_path(self, tag):
        with pytest.raises(CheckpointError, match="not a plain name"):
            checkpoint_of(build_mlp(4, 3, 2), blob_config(), tag)

    # the checksum covers only the payload, so an arch whose layers do not hold
    # the payload, however large, must be refused before anything is allocated
    @pytest.mark.parametrize("hidden", [10**12, 6])
    def test_arch_disagreeing_with_payload(self, tmp_path, hidden):
        path = save_checkpoint(checkpoint_of(build_mlp(12, 5, 3), blob_config(), "clean"),
                               tmp_path / "model.ckpt")
        self._mutate_header(path, lambda h: {**h, "arch": {**h["arch"], "hidden": hidden}})
        with pytest.raises(FormatError, match="arch needs"):
            load_checkpoint(path)

    # a Checkpoint built in memory has no file to name, so it refuses the mismatch itself
    @pytest.mark.parametrize("use", [
        lambda cp, ds: cp.to_model(),
        lambda cp, ds: escape_run(cp, ds, ds, TrainConfig(hidden=3)),
    ], ids=["to_model", "escape_run"])
    def test_theta_not_fitting_arch(self, use):
        ds = LabeledDataset(np.zeros((2, 1, 1, 4)), np.array([0, 1]), 2)
        with pytest.raises(CheckpointError, match="theta holds 5 values, arch needs 23"):
            use(Checkpoint(build_mlp(4, 3, 2).arch, np.zeros(5), {}, "sad"), ds)

    def test_header_with_shapes_seed_and_flags_loads(self, blob_pair, tmp_path):
        # files written before the header dropped its shapes, seed and flags still load
        train_ds, test_ds = blob_pair
        cfg = blob_config(epochs=2)
        cp = checkpoint_of(new_model(cfg, train_ds), cfg, "sad")
        path = save_checkpoint(cp, tmp_path / "sad.ckpt")
        self._mutate_header(path, lambda h: {**h, "seed": cfg.seed, "flags": {"saturated": True},
                                             "shapes": [list(p.shape) for p in cp.params]})
        old = load_checkpoint(path)
        for a, b in zip(old.params, cp.params, strict=True):
            np.testing.assert_array_equal(a, b)
        escapes = [escape_run(start, train_ds, test_ds, cfg)[1] for start in (old, cp)]
        assert escapes[0].deterministic_payload() == escapes[1].deterministic_payload()

    def test_header_holds_exactly_the_fields_load_reads(self, blob_pair, tmp_path):
        cfg = blob_config()
        path = save_checkpoint(checkpoint_of(new_model(cfg, blob_pair[0]), cfg, "sad"), tmp_path / "sad.ckpt")
        written = {}
        self._mutate_header(path, lambda h: written.update(h) or h)
        assert written.keys() == experiment._HEADER_TYPES.keys()

    @staticmethod
    def _rewrite_header(blob_pair, tmp_path, mutate):
        """Save a valid checkpoint, then replace its header with mutate(header);
        the payload, and so its checksum, stays intact."""
        train_ds, _ = blob_pair
        cfg = blob_config()
        path = save_checkpoint(checkpoint_of(new_model(cfg, train_ds), cfg, "clean"),
                               tmp_path / "model.ckpt")
        TestCheckpointIO._mutate_header(path, mutate)
        return path

    @staticmethod
    def _mutate_header(path, mutate):
        raw = path.read_bytes()
        offset = len(CHECKPOINT_MAGIC)
        (length,) = struct.unpack(">Q", raw[offset:offset + 8])
        header = json.loads(raw[offset + 8:offset + 8 + length])
        new_header = json.dumps(mutate(header)).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack(">Q", len(new_header))
                         + new_header + raw[offset + 8 + length:])
