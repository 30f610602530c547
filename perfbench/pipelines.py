"""The benchmark's workloads: sadnet's sad-point pipeline at three shapes.

Every workload runs the paper's pipeline through sadnet's public functions:
`construct_sad_point` (corrupt the test labels, fold t copies into the train
set, train on the result), then `escape_run` (train on with the clean train
set). The shapes are chosen so that a different layer dominates in each; see
README.md for why each workload exists and which metrics it should move.

The sad point is trained for a fixed epoch budget (`default_stop=None`), as
in the acceptance campaigns: with the default 0.995 stop the run ends around
epoch 7 with a clean-train gradient norm of 0.25-0.30 of its init value,
which fails the pinned < 0.05 acceptance threshold.

Every sadnet call goes through a module attribute (`E.train`, never a
from-import) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sadnet import data, fixtures, gradcheck
from sadnet import experiment as E

# Pinned acceptance thresholds (tests/test_acceptance.py, criteria 4, 7 and 8).
SAD_TRAIN_ACC = 0.99
SAD_TEST_ACC = 0.15
ESCAPE_TEST_ACC = 0.90
GRAD_NORM_RATIO = 0.05
GRADCHECK_TOLERANCE = gradcheck.REL_TOLERANCE
# The gradcheck pre-flight runs the pinned acceptance suite (criterion 1),
# not one drawn from the workload seed: for 11 of seeds 1-119 a central
# difference with h = 1e-5 straddles a ReLU or max-pool switch and misses
# the analytic gradient by up to 150% (with h = 1e-7 they agree).
GRADCHECK_SEED = 2026


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: data shape, model and epoch budgets."""

    name: str
    model_kind: str
    n_train: int
    n_test: int
    sad_epochs: int
    escape_epochs: int
    via_idx: bool = False      # data reaches sadnet as IDX files read by load_idx
    acceptance: bool = False   # persist, reload, gradient norms, distances, thresholds

    @property
    def copies(self) -> int:
        """t = floor(train / test) + 1 corrupted test copies."""
        return self.n_train // self.n_test + 1

    @property
    def corrupted_size(self) -> int:
        return self.n_train + self.copies * self.n_test

    @property
    def examples_stepped(self) -> int:
        return self.corrupted_size * self.sad_epochs + self.n_train * self.escape_epochs

    def config(self, seed: int, epochs: int) -> E.TrainConfig:
        return E.TrainConfig(model_kind=self.model_kind, epochs=epochs, seed=seed,
                             data_seed=seed, dataset=self.name)


WORKLOADS = {w.name: w for w in (
    # 4000/1000 -> corrupted set 9000 (t = 5); MLP 784-512-10, Adam, batch 128.
    Workload("mlp_sad_escape", "mlp", 4000, 1000, sad_epochs=20, escape_epochs=20,
             acceptance=True),
    # LeNet-style CNN; 256/128 -> corrupted set 640 (t = 3), five full batches of 128.
    Workload("cnn_train", "cnn", 256, 128, sad_epochs=1, escape_epochs=1),
    # MNIST sizes 60k/10k -> corrupted set 130k (t = 7), read back from IDX files.
    Workload("mlp_fullsize", "mlp", 60000, 10000, sad_epochs=1, escape_epochs=1,
             via_idx=True),
)}


@dataclass
class Setup:
    train: data.LabeledDataset
    test: data.LabeledDataset
    init_params: list[np.ndarray]


@dataclass
class PassResult:
    sad_s: float
    escape_s: float
    wall_s: float
    epochs_to_sad: int
    digest: str               # of both records' deterministic payloads
    failures: list[str] = field(default_factory=list)


def make_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Inputs derived from the seed alone, made once per run and not timed.

    The IDX workload quantizes the synthetic set to uint8 and writes it in
    the MNIST file layout; the others generate their data inside setup.
    The files are written by a forked child, so that generating them (over
    1 GB at MNIST size) stays out of this process's peak RSS.
    """
    if not w.via_idx:
        return {}
    paths = {split: (work / f"{split}-images-idx3-ubyte", work / f"{split}-labels-idx1-ubyte")
             for split in ("train", "test")}
    child = multiprocessing.get_context("fork").Process(
        target=_write_idx_inputs, args=(w, seed, paths))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"writing the IDX inputs failed with exit code {child.exitcode}")
    return paths


def _write_idx_inputs(w: Workload, seed: int, paths: dict) -> None:
    train, test = fixtures.synth_images(w.n_train, w.n_test, data_seed=seed)
    for split, ds in (("train", train), ("test", test)):
        pixels = np.rint(ds.images[:, 0] * 255.0).astype(np.uint8)
        fixtures.write_idx_images(paths[split][0], pixels)
        fixtures.write_idx_labels(paths[split][1], ds.labels)


def setup(w: Workload, seed: int, inputs: dict) -> Setup:
    """Data generation or load plus model build: the part `setup_s` times."""
    if w.via_idx:
        train = data.load_idx(*inputs["train"], name="train", class_count=10)
        test = data.load_idx(*inputs["test"], name="test", class_count=10)
    else:
        train, test = fixtures.synth_images(w.n_train, w.n_test, data_seed=seed)
    model = E.new_model(w.config(seed, w.sad_epochs), train)
    return Setup(train, test, [p.copy() for p in model.parameters()])


def run_pass(w: Workload, seed: int, s: Setup, work: Path) -> PassResult:
    """The timed body: sad point, escape and, at acceptance scale, the analysis."""
    t0 = time.perf_counter()
    sad_cp, sad_rec = E.construct_sad_point(s.train, s.test, w.config(seed, w.sad_epochs),
                                            out_dir=work if w.acceptance else None,
                                            default_stop=None)
    t1 = time.perf_counter()
    if w.acceptance:
        init_cp = E.load_checkpoint(Path(sad_rec.run_dir) / "init.ckpt")
        sad_start = E.load_checkpoint(Path(sad_rec.run_dir) / "sad.ckpt")
    else:
        sad_start = sad_cp
    t2 = time.perf_counter()
    esc_cp, esc_rec = E.escape_run(sad_start, s.train, s.test, w.config(seed, w.escape_epochs))
    t3 = time.perf_counter()
    if w.acceptance:
        ratio = (E.clean_gradient_norm(sad_start, s.train)
                 / E.clean_gradient_norm(init_cp, s.train))
        report = E.distance_report([(init_cp, sad_start), (init_cp, esc_cp)])
    t4 = time.perf_counter()

    failures = _finite_failures("sad", sad_rec) + _finite_failures("escape", esc_rec)
    if w.acceptance:
        failures += _acceptance_failures(s, sad_cp, sad_rec, init_cp, sad_start, esc_rec,
                                         ratio, report)
    digest = hashlib.sha256(sad_rec.deterministic_payload()
                            + esc_rec.deterministic_payload()).hexdigest()
    return PassResult(t1 - t0, t3 - t2, t4 - t0, epochs_to_sad(sad_rec), digest, failures)


def epochs_to_sad(record: E.RunRecord) -> int:
    """First epoch whose clean metrics meet the sad thresholds; 0 if none does."""
    for row in record.rows:
        if row.train_acc >= SAD_TRAIN_ACC and row.test_acc <= SAD_TEST_ACC:
            return row.epoch
    return 0


def _finite_failures(label: str, record: E.RunRecord) -> list[str]:
    values = list(record.init_metrics.values())
    for row in record.rows:
        values += [row.train_loss, row.train_acc, row.test_loss, row.test_acc,
                   row.weight_norm, row.dist_from_init]
    if not record.rows or not all(math.isfinite(v) for v in values):
        return [f"{label}: missing or non-finite metrics"]
    return []


def _same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _acceptance_failures(s: Setup, sad_cp, sad_rec, init_cp, sad_loaded, esc_rec,
                         ratio: float, report) -> list[str]:
    out = []
    last = sad_rec.rows[-1]
    if not (last.train_acc >= SAD_TRAIN_ACC and last.test_acc <= SAD_TEST_ACC):
        out.append(f"sad point train {last.train_acc:.4f} test {last.test_acc:.4f} "
                   f"misses train >= {SAD_TRAIN_ACC}, test <= {SAD_TEST_ACC}")
    escaped = esc_rec.rows[-1].test_acc
    if not escaped >= ESCAPE_TEST_ACC:
        out.append(f"escaped test accuracy {escaped:.4f} < {ESCAPE_TEST_ACC}")
    if not ratio < GRAD_NORM_RATIO:
        out.append(f"clean-train gradient norm ratio sad/init {ratio:.4f} >= {GRAD_NORM_RATIO}")
    if not _same(sad_loaded.params, sad_cp.params):
        out.append("sad checkpoint does not reload bit-identically")
    if not _same(init_cp.params, s.init_params):
        out.append("persisted init weights differ from a fresh build of the same config")
    distances = [e["distance"] for e in report.entries]
    if not all(math.isfinite(d) and d > 0 for d in distances):
        out.append(f"distances from init not finite and positive: {distances}")
    return out


def run_checks(w: Workload, seed: int, s: Setup) -> list[str]:
    """Untimed checks made once per run, outside every pass."""
    if w.model_kind == "cnn":
        # pre-flight: a broken conv kernel fails the finite-difference suite
        worst, details = gradcheck.gradcheck_suite(seed=GRADCHECK_SEED, n_models=20)
        if not any(d["model"] == "gradcheck-cnn" for d in details):
            return ["gradcheck drew no conv model"]
        if not worst < GRADCHECK_TOLERANCE:
            return [f"gradcheck max relative error {worst:.3e} >= {GRADCHECK_TOLERANCE}"]
    if w.via_idx:
        corrupted = data.build_corrupted_train(
            s.train, data.corrupt_labels(s.test, E.corruption_rng(seed)))
        if len(corrupted) != w.corrupted_size:
            return [f"corrupted set holds {len(corrupted)} examples, "
                    f"expected train + t * test = {w.corrupted_size}"]
    return []
