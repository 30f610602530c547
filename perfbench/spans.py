"""Span tracer that wraps sadnet's public functions from outside the package.

`Tracer.install()` replaces module and class attributes (for example
`sadnet.optim.step` or `sadnet.nn.Dense.forward`) with wrappers that record
one span per call: name, start, end, parent span and run id. Spans stay in
memory and are written out once the run ends. `uninstall()` restores every
original attribute. An untraced run never installs anything.

The wrappers replace the attribute each caller looks up at call time:
`sadnet.experiment` calls `batches`, `evaluate` and `train` through its own
module globals, the layers call `sadnet.tensor` kernels through the module,
so patching those attributes reaches every call the pipeline makes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

from sadnet import data, experiment, fixtures, nn, optim, tensor

# Per-layer metrics: (name, unit), computed in `Tracer.layer_metrics` from
# the spans of the traced set-up and pass.
PER_LAYER = [
    ("optim.step.s", "s"), ("optim.step.ms_p50", "ms"), ("optim.steps", "count"),
    ("optim.share", "ratio"),
    ("tensor.conv2d_batch.s", "s"), ("tensor.conv2d_backward_batch.s", "s"),
    ("tensor.maxpool2d_batch.s", "s"), ("tensor.maxpool2d_backward_batch.s", "s"),
    ("tensor.matmul.calls", "count"), ("tensor.matmul.s", "s"),
    ("tensor.conv.gflop", "GFLOP"), ("tensor.conv.gflop_per_s", "GFLOP/s"),
    ("nn.dense.forward.s", "s"), ("nn.dense.backward.s", "s"),
    ("nn.conv1.forward.s", "s"), ("nn.conv1.backward.s", "s"),
    ("nn.conv2.forward.s", "s"), ("nn.conv2.backward.s", "s"),
    ("nn.conv3.forward.s", "s"), ("nn.conv3.backward.s", "s"),
    ("nn.relu.s", "s"), ("nn.maxpool.s", "s"), ("nn.cross_entropy.s", "s"),
    ("data.batches.gather.s", "s"), ("data.batches.count", "count"),
    ("data.build_corrupted_train.s", "s"), ("data.corrupted_set.bytes", "B"),
    ("data.load_idx.s", "s"),
    ("experiment.evaluate.s", "s"), ("experiment.evaluate.calls", "count"),
    ("experiment.evaluate.share", "ratio"), ("experiment.epochs_to_sad", "count"),
    ("experiment.train.self_s", "s"), ("experiment.persist_run.s", "s"),
    ("experiment.checkpoint.save_s", "s"), ("experiment.checkpoint.load_s", "s"),
    ("experiment.checkpoint.bytes", "B"), ("experiment.clean_gradient_norm.s", "s"),
    ("experiment.distance_report.s", "s"),
    ("fixtures.synth_images.s", "s"),
    ("trace.overhead_s", "s"),
]

_LAYER_KIND = {nn.Dense: "dense", nn.ReLU: "relu", nn.Conv2d: "conv", nn.MaxPool2d: "maxpool"}


class Tracer:
    """Records spans around sadnet calls while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._conv_names = weakref.WeakKeyDictionary()

    def call(self, name: str, fn, /, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _timed(self, owner, attr: str, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(out, *args)
                return out
            return wrapper
        self._patch(owner, attr, make)

    def _layer_method(self, cls, method: str):
        kind = _LAYER_KIND[cls]

        def make(fn):
            def wrapper(layer, *args, **kwargs):
                label = self._conv_names.get(layer, "conv") if kind == "conv" else kind
                return self.call(f"nn.{label}.{method}", fn, layer, *args, **kwargs)
            return wrapper
        self._patch(cls, method, make)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        count = self.counts

        def conv_flop(x, kernels, *_):
            # 2 flops per multiply-add: B * O * oh * ow output pixels, C * kh * kw taps each
            return 2 * x.shape[0] * kernels.shape[0] * x.shape[1] * kernels.shape[2] * kernels.shape[3]

        def count_conv(out, x, kernels, *_):
            count["conv_flop"] += conv_flop(x, kernels) * out.shape[2] * out.shape[3]

        def count_conv_backward(out, x, kernels, pad, dout):
            # dkernels and dx each cost one forward pass worth of multiply-adds
            count["conv_flop"] += 2 * conv_flop(x, kernels) * dout.shape[2] * dout.shape[3]

        def count_corrupted(out, *_):
            count["corrupted_bytes"] += out.images.nbytes + out.labels.nbytes

        def count_saved(path, *_):
            count["checkpoint_bytes"] += Path(path).stat().st_size

        self._timed(fixtures, "synth_images", "fixtures.synth_images")
        self._timed(data, "load_idx", "data.load_idx")
        self._timed(experiment, "build_corrupted_train", "data.build_corrupted_train",
                    count_corrupted)
        for attr in ("construct_sad_point", "escape_run", "train", "evaluate",
                     "clean_gradient_norm", "distance_report", "persist_run",
                     "load_checkpoint"):
            self._timed(experiment, attr, f"experiment.{attr}")
        self._timed(experiment, "save_checkpoint", "experiment.save_checkpoint", count_saved)
        self._timed(optim, "step", "optim.step")
        self._timed(nn, "cross_entropy", "nn.cross_entropy")
        self._timed(tensor, "matmul", "tensor.matmul")
        self._timed(tensor, "conv2d_batch", "tensor.conv2d_batch", count_conv)
        self._timed(tensor, "conv2d_backward_batch", "tensor.conv2d_backward_batch",
                    count_conv_backward)
        self._timed(tensor, "maxpool2d_batch", "tensor.maxpool2d_batch")
        self._timed(tensor, "maxpool2d_backward_batch", "tensor.maxpool2d_backward_batch")
        for cls in _LAYER_KIND:
            self._layer_method(cls, "forward")
            self._layer_method(cls, "backward")

        def gather(fn):
            # one span per batch handed out, so the permutation and the fancy-index
            # copy are timed without the training step that consumes the batch
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call("data.batches.gather", next, it)
                    except StopIteration:
                        return
                    count["batches"] += 1
                    yield item
            return wrapper
        self._patch(experiment, "batches", gather)

        def name_convs(fn):
            # conv layers are named by their position in the stack: conv1, conv2, conv3
            def wrapper(*args, **kwargs):
                model = fn(*args, **kwargs)
                convs = [layer for layer in model.layers if isinstance(layer, nn.Conv2d)]
                for i, layer in enumerate(convs, 1):
                    self._conv_names[layer] = f"conv{i}"
                return model
            return wrapper
        self._patch(nn, "build_cnn", name_convs)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path) -> Path:
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
        return path

    def layer_metrics(self, pass_wall_s: float, untraced_wall_s: float,
                      epochs_to_sad: int) -> dict[str, float]:
        """Per-layer metrics from every recorded span.

        Each `.s` is the time inside the named call, summed over calls. Kernel,
        optimizer, loss and data calls wrap no other traced call, so that is
        their self time; an `nn.<layer>` time includes the tensor kernels the
        layer calls, and `experiment.train.self_s` is train's duration minus
        every traced call beneath it. Shares are of the traced pass's wall
        time `pass_wall_s` (set-up makes no optimizer step or evaluation).
        """
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        step_ms = [1e3 * (end - start) for name, start, end, *_ in self.spans
                   if name == "optim.step"]
        train_self = sum(end - start - child[i] for i, (name, start, end, *_)
                         in enumerate(self.spans) if name == "experiment.train")
        conv_s = total["tensor.conv2d_batch"] + total["tensor.conv2d_backward_batch"]
        gflop = self.counts["conv_flop"] / 1e9

        m = {
            "optim.step.s": total["optim.step"],
            "optim.step.ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "optim.steps": calls["optim.step"],
            "optim.share": total["optim.step"] / pass_wall_s,
            "tensor.matmul.calls": calls["tensor.matmul"],
            "tensor.conv.gflop": gflop,
            "tensor.conv.gflop_per_s": gflop / conv_s if conv_s else 0.0,
            "nn.relu.s": total["nn.relu.forward"] + total["nn.relu.backward"],
            "nn.maxpool.s": total["nn.maxpool.forward"] + total["nn.maxpool.backward"],
            "data.batches.count": self.counts["batches"],
            "data.corrupted_set.bytes": self.counts["corrupted_bytes"],
            "experiment.evaluate.calls": calls["experiment.evaluate"],
            "experiment.evaluate.share": total["experiment.evaluate"] / pass_wall_s,
            "experiment.epochs_to_sad": epochs_to_sad,
            "experiment.train.self_s": train_self,
            "experiment.checkpoint.save_s": total["experiment.save_checkpoint"],
            "experiment.checkpoint.load_s": total["experiment.load_checkpoint"],
            "experiment.checkpoint.bytes": self.counts["checkpoint_bytes"],
            "trace.overhead_s": pass_wall_s - untraced_wall_s,
        }
        for name, _ in PER_LAYER:
            if name not in m:
                if not name.endswith(".s"):
                    raise KeyError(f"no rule computes per-layer metric {name}")
                m[name] = total[name[:-2]]  # the time inside span "<name>"
        return {name: float(m[name]) for name, _ in PER_LAYER}
