"""sadnet benchmark: one workload, one seed, for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload mlp_sad_escape --seed 1 --seconds 40 --trace 0

The run makes its inputs from --seed, times set-up several times, then
repeats the timed body while another pass still fits in --seconds (always
one pass, never cut short), checks every output, and prints each metric
with its unit.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of one traced pass with --trace 1. A failed check or an exception
counts against `failed`, and the exit code is then 1; a checkout without
sadnet's sources exits 2 without a result.

The BLAS thread count is pinned through the environment before numpy is
imported. Files the run writes (IDX inputs,
checkpoints, traced spans) go under .perfbench/ in the repository root;
work files are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy is imported: one BLAS thread is the steadiest choice on
# a shared 2-core box, and no slower for these matrix sizes.
RUNTIME_ENV = {var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS}
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds, and its median reported, so that millisecond set-ups
# are not left to one noisy sample.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("sad_s", "s"), ("escape_s", "s"),
    ("train_examples_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


def import_sadnet() -> None:
    """Pin RUNTIME_ENV, then import sadnet from the checkout's src/."""
    os.environ.update(RUNTIME_ENV)
    src = ROOT / "src"
    if not (src / "sadnet" / "__init__.py").is_file():
        raise FileNotFoundError(f"sadnet sources not found under {src}")
    sys.path.insert(0, str(src))
    import sadnet
    if Path(sadnet.__file__).resolve().parent != (src / "sadnet").resolve():
        raise ImportError(f"imported sadnet from {sadnet.__file__}, not from {src}")


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "runtime_env": {var: os.environ.get(var) for var in RUNTIME_ENV},
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(w, seed: int, seconds: float, trace: bool, work: Path,
                 spans_path: Path) -> dict:
    """Run one workload and return its results record (without provenance).

    An operation is one pass of the timed body; it fails when it raises,
    misses an output check, or produces run records that differ from the
    first pass's (every pass, traced or not, has the same inputs). A failed
    run-level check (gradcheck pre-flight, corrupted-set size) fails every
    pass of the run.
    """
    import pipelines as P
    from spans import Tracer

    attempts, passes, failures = [], [], {}
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    def one_pass(s, run_id):
        attempts.append(run_id)
        try:
            p = P.run_pass(w, seed, s, work / run_id)
        except Exception as exc:  # a raising pass is a failed operation, not a crash
            failures[run_id] = [f"{type(exc).__name__}: {exc}"]
            return None
        if passes and p.digest != passes[0].digest:
            p.failures.append("run records differ from the first pass's")
        passes.append(p)
        if p.failures:
            failures[run_id] = p.failures
        return p

    inputs = P.make_inputs(w, seed, work)
    if trace:
        # The untraced pass runs first, so that it and not the traced pass
        # takes the first-pass warm-up; it is the baseline for trace.overhead_s.
        s = P.setup(w, seed, inputs)
        untraced = one_pass(s, f"{w.name}-{seed}-untraced")
        s = None  # free the untraced set-up before the traced one is built
        tracer = Tracer()
        traced_id = f"{w.name}-{seed}-traced"
        tracer.install()
        try:
            tracer.run_id = f"{w.name}-{seed}-setup"
            s = P.setup(w, seed, inputs)
            tracer.run_id = traced_id
            traced = one_pass(s, traced_id)
        finally:
            tracer.uninstall()
        record["spans"] = os.path.relpath(tracer.write(spans_path), ROOT)
        if traced and untraced:
            record["metrics"] = tracer.layer_metrics(traced.wall_s, untraced.wall_s,
                                                     traced.epochs_to_sad)
    else:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            s = None  # free the previous set-up before the next is built
            t0 = time.perf_counter()
            s = P.setup(w, seed, inputs)
            setup_times.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while True:
            p = one_pass(s, f"{w.name}-{seed}-pass{len(attempts) + 1}")
            if len(attempts) == 1:
                # later passes only add allocator growth, and their number depends on speed
                rss_mb = peak_rss_mb()
            if p is None or p.failures or time.perf_counter() - start + p.wall_s > seconds:
                break
        if passes:
            record["metrics"] = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "sad_s": statistics.median(p.sad_s for p in passes),
                "escape_s": statistics.median(p.escape_s for p in passes),
                "train_examples_per_s": statistics.median(
                    w.examples_stepped / (p.sad_s + p.escape_s) for p in passes),
                "peak_rss_mb": rss_mb,
            }
        record["setup_times_s"] = setup_times

    run_failures = P.run_checks(w, seed, s)
    if run_failures:
        failures["run"] = run_failures
    record.update(passes=[vars(p) for p in passes], failures=failures,
                  attempted=len(attempts),
                  failed=len(attempts) if run_failures else len(failures))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the full results record as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_sadnet()
    except (OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import pipelines
    from spans import PER_LAYER

    if args.workload not in pipelines.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(pipelines.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        record = run_workload(pipelines.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work,
                              OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    except Exception as exc:  # input or set-up failed: the run's one operation failed
        traceback.print_exc()
        record = {"workload": args.workload, "seed": args.seed, "attempted": 1, "failed": 1,
                  "failures": {"setup": [f"{type(exc).__name__}: {exc}"]}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"] = provenance()
    record["fail_ratio"] = record["failed"] / record["attempted"]

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record.get("metrics", {}).items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    for run_id, problems in record["failures"].items():
        for problem in problems:
            print(f"FAILED {run_id}: {problem}", file=sys.stderr)
    if args.record:
        with args.record.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    correct = record["failed"] == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
