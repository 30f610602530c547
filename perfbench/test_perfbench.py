"""Smoke tests of the benchmark at tiny sizes.

Run with:  python3 -m pytest perfbench -q

They check that every metric named in BENCHMARK.json is emitted, that every
name uses only [A-Za-z0-9_.-], and that traced and untraced runs reach the
same output-check verdicts on identical run records.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.import_sadnet()

import pipelines  # noqa: E402  (needs sadnet on sys.path)
import spans  # noqa: E402
from sadnet import tensor  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Tiny versions of each workload: same code paths, about a second a pass.
# At this size the MLP sad point is too shallow for the acceptance
# thresholds, so mlp_sad_escape is expected to miss them, identically
# with and without tracing.
TINY = {
    "mlp_sad_escape": dict(n_train=400, n_test=100, sad_epochs=4, escape_epochs=2),
    "cnn_train": dict(n_train=16, n_test=8, sad_epochs=1, escape_epochs=1),
    "mlp_fullsize": dict(n_train=300, n_test=100, sad_epochs=1, escape_epochs=1),
}
THRESHOLD_MISSES = ("sad point train", "escaped test accuracy", "clean-train gradient norm")


def tiny(name):
    return dataclasses.replace(pipelines.WORKLOADS[name], **TINY[name])


def run_tiny(name, trace, tmp_path, seed=3):
    work = tmp_path / f"work-{name}-{trace}"
    work.mkdir()
    return run.run_workload(tiny(name), seed, 0.0, trace, work, work / "spans.jsonl")


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in BENCH["workloads"]] == list(pipelines.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == spans.PER_LAYER
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_metric_and_workload_names_are_clean():
    names = ([w["name"] for w in BENCH["workloads"]] + [m["name"] for m in BENCH["end_to_end"]]
             + [m["name"] for m in BENCH["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_runs_agree(name, tmp_path):
    plain = run_tiny(name, False, tmp_path)
    traced = run_tiny(name, True, tmp_path)

    assert set(plain["metrics"]) == {m for m, _ in run.END_TO_END}
    assert set(traced["metrics"]) == {m for m, _ in spans.PER_LAYER}
    for value in list(plain["metrics"].values()) + list(traced["metrics"].values()):
        assert value == value and abs(value) != float("inf")
    assert all(plain["metrics"][m] > 0 for m, _ in run.END_TO_END)

    # the tracer must not change what the program computes
    digests = {p["digest"] for p in plain["passes"] + traced["passes"]}
    assert len(digests) == 1
    problems = {p for ps in plain["failures"].values() for p in ps}
    assert problems == {p for ps in traced["failures"].values() for p in ps}
    if name == "mlp_sad_escape":
        assert all(p.startswith(THRESHOLD_MISSES) for p in problems), problems
    else:
        assert plain["failed"] == traced["failed"] == 0, (plain["failures"], traced["failures"])


def test_layer_metrics_follow_the_workload(tmp_path):
    cnn = run_tiny("cnn_train", True, tmp_path)["metrics"]
    assert cnn["tensor.conv2d_batch.s"] > 0 and cnn["nn.conv3.backward.s"] > 0
    assert cnn["tensor.conv.gflop"] > 0 and cnn["optim.steps"] == 2
    mlp = run_tiny("mlp_fullsize", True, tmp_path)["metrics"]
    assert mlp["tensor.conv2d_batch.s"] == 0 and mlp["tensor.matmul.calls"] > 0
    assert mlp["data.load_idx.s"] > 0
    assert mlp["data.corrupted_set.bytes"] == (300 + 4 * 100) * (784 * 8 + 8)


def test_broken_conv_kernel_fails_the_run(tmp_path, monkeypatch):
    good = tensor.conv2d_backward_batch

    def broken(x, kernels, pad, dout):
        dx, dk, db = good(x, kernels, pad, dout)
        return dx, dk * 1.01, db
    monkeypatch.setattr(tensor, "conv2d_backward_batch", broken)
    record = run_tiny("cnn_train", False, tmp_path)
    assert record["failed"] == record["attempted"] >= 1
    assert any("gradcheck" in p for p in record["failures"]["run"])


def test_checkout_without_sources_exits_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in run.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cnn_train",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
