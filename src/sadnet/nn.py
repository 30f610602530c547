"""Layers with explicit forward/backward passes, model builders, loss.

Models emit raw logits; softmax lives inside the cross-entropy loss so
the logit gradient has the closed form (softmax - onehot) / batch.
Parameter order is fixed everywhere: layer order, weights before biases.
A Model keeps every parameter in one float64 vector `theta` and every
gradient in one vector `grad`; each layer's params/grads are views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ShapeError, StateError, ValidationError


class Layer:
    """Base layer: parameter shapes, the parameter/gradient views the
    holding Model binds to them, and cached forward state."""

    kind = "?"

    def __init__(self, *param_shapes: tuple):
        self.param_shapes = param_shapes
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self._cache = None

    def forward(self, x, *, cache):
        raise NotImplementedError

    def backward(self, delta, *, need_dx):
        """Fill self.grads from the output gradient delta and return the input
        gradient. need_dx is false when nothing reads that input gradient (the
        model's first layer); a layer with parameters then returns None."""
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise StateError(f"{self.kind}: backward called before forward")
        return self._cache


class Dense(Layer):
    kind = "dense"

    w = property(lambda self: self.params[0])
    b = property(lambda self: self.params[1])

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__((in_dim, out_dim), (out_dim,))

    def forward(self, x, *, cache):
        out = T.matmul(x, self.w)
        out += self.b
        self._cache = x if cache else None
        return out

    def backward(self, delta, *, need_dx):
        x = self._take_cache()
        self.grads[0][...] = T.matmul(x.T, delta)
        self.grads[1][...] = delta.sum(axis=0)
        return T.matmul(delta, self.w.T) if need_dx else None


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, *, cache):
        self._cache = x if cache else None
        return T.relu(x)

    def backward(self, delta, *, need_dx):
        return T.relu_backward(delta, self._take_cache())


class Conv2d(Layer):
    kind = "conv"

    kernels = property(lambda self: self.params[0])
    bias = property(lambda self: self.params[1])

    def __init__(self, in_channels: int, out_channels: int, kernel_hw: int, pad: int):
        super().__init__((out_channels, in_channels, kernel_hw, kernel_hw), (out_channels,))
        self.pad = pad

    def forward(self, x, *, cache):
        out = T.conv2d_batch(x, self.kernels, self.bias, self.pad)
        self._cache = x if cache else None
        return out

    def backward(self, delta, *, need_dx):
        # dx is dropped, not skipped: the one conv backward kernel returns dx, dk and db
        x = self._take_cache()
        dx, dk, db = T.conv2d_backward_batch(x, self.kernels, self.pad, delta)
        self.grads[0][...] = dk
        self.grads[1][...] = db
        return dx if need_dx else None


class MaxPool2d(Layer):
    kind = "maxpool"

    def __init__(self, window: int):
        super().__init__()
        self.window = window

    def forward(self, x, *, cache):
        out, idx = T.maxpool2d_batch(x, self.window)
        self._cache = (idx, x.shape) if cache else None
        return out

    def backward(self, delta, *, need_dx):
        idx, in_shape = self._take_cache()
        return T.maxpool2d_backward_batch(idx, delta, self.window, in_shape)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, *, cache):
        self._cache = x.shape if cache else None
        return np.ascontiguousarray(x.reshape(x.shape[0], -1))

    def backward(self, delta, *, need_dx):
        return delta.reshape(self._take_cache())


def split(vec: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive slices of vec, one per shape."""
    views = []
    offset = 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(vec[offset:offset + n].reshape(shape))
        offset += n
    return views


class Model:
    """Ordered layer stack mapping a batch to (batch, class_count) logits.

    Building it allocates `theta` and `grad` zeroed and binds each layer's
    params/grads to views of them.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple, class_count: int, arch: dict):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.class_count = class_count
        self.arch = arch
        self.grads_ready = False
        self.shapes = [s for layer in layers for s in layer.param_shapes]
        self.theta = np.zeros(sum(math.prod(s) for s in self.shapes))
        self.grad = np.zeros(self.theta.size)
        params = iter(split(self.theta, self.shapes))
        grads = iter(split(self.grad, self.shapes))
        for layer in layers:
            layer.params = [next(params) for _ in layer.param_shapes]
            layer.grads = [next(grads) for _ in layer.param_shapes]

    def prepare_batch(self, batch: np.ndarray) -> np.ndarray:
        """Reshape (B, ...) input to the model's input shape when sizes agree."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[1:] == self.input_shape:
            return batch
        want = math.prod(self.input_shape)
        if math.prod(batch.shape[1:]) == want:
            return batch.reshape(batch.shape[0], *self.input_shape)
        raise ShapeError(f"batch shape {batch.shape[1:]} incompatible with model input {self.input_shape}")

    def forward(self, batch: np.ndarray, cache: bool = True) -> np.ndarray:
        out = self.prepare_batch(batch)
        for layer in self.layers:
            out = layer.forward(out, cache=cache)
        return out

    def backward(self, logit_gradient: np.ndarray) -> None:
        """Fill grad from the logits' gradient. The first layer gets
        need_dx=False: nothing reads the gradient of the model's input."""
        delta = logit_gradient
        for layer in reversed(self.layers):
            delta = layer.backward(delta, need_dx=layer is not self.layers[0])
        self.grads_ready = True

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]


@dataclass
class LossValue:
    """Mean cross-entropy (nats) and its gradient w.r.t. the logits."""

    mean_loss: float
    logit_gradient: np.ndarray


PROB_FLOOR = 1e-12  # keeps -log finite once memorization saturates


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> LossValue:
    """Mean -log softmax(logits)[label] over the batch, with clipped probs."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValidationError(f"labels must lie in [0, {k})")
    probs = T.softmax(logits, axis=1)
    picked = np.clip(probs[np.arange(b), labels], PROB_FLOOR, None)
    mean_loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return LossValue(mean_loss, grad)


PASS_BATCH = 512  # examples per forward pass over a set


def full_pass(model: Model, images: np.ndarray, labels: np.ndarray, *,
              grad: bool) -> tuple[float, int]:
    """Mean cross-entropy and argmax hit count (ties go to the lowest class)
    over a set, in slices of PASS_BATCH examples. With grad, model.grad is
    left holding the set's mean gradient: backward's own for one slice, else
    each slice's gradient times its size, summed and divided by n."""
    n = len(labels)
    if n == 0:
        raise ValidationError("cannot pass over an empty set")
    loss_sum, hits = 0.0, 0
    total = np.zeros_like(model.grad) if grad and n > PASS_BATCH else None
    for start in range(0, n, PASS_BATCH):
        yb = labels[start:start + PASS_BATCH]
        logits = model.forward(images[start:start + PASS_BATCH], cache=grad)
        loss = cross_entropy(logits, yb)
        loss_sum += loss.mean_loss * len(yb)
        hits += int((logits.argmax(axis=1) == yb).sum())
        if grad:
            model.backward(loss.logit_gradient)
        if total is not None:
            total += model.grad * len(yb)
    if total is not None:
        np.divide(total, n, out=model.grad)
    return loss_sum / n, hits


def _l2_weights(model: Model, lam: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, weight gradient) of each layer with parameters, biases excluded; none at lam 0."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"l2 lambda must be finite and >= 0, got {lam}")
    return [(layer.params[0], layer.grads[0]) for layer in model.layers if layer.params] if lam else []


def l2_penalty(model: Model, lam: float) -> float:
    """lam * sum of squared weight entries (biases excluded)."""
    total = 0.0
    for w, _ in _l2_weights(model, lam):
        total += float(np.sum(w * w))
    return lam * total


def add_l2_gradients(model: Model, lam: float) -> None:
    """Add 2*lam*W to each weight gradient in place (biases untouched)."""
    for w, g in _l2_weights(model, lam):
        g += 2.0 * lam * w


def init_xavier_uniform(model: Model, rng: np.random.Generator) -> None:
    """Sample weights U[-a, a] with a = sqrt(6 / (fan_in + fan_out)); zero biases.

    Dense fans are the matrix dims; conv fans are C_in*kh*kw and C_out*kh*kw.
    """
    for layer in model.layers:
        if not layer.params:
            continue
        w = layer.params[0]
        if layer.kind == "dense":
            fan_in, fan_out = w.shape
        elif layer.kind == "conv":
            o, c, kh, kw = w.shape
            fan_in, fan_out = c * kh * kw, o * kh * kw
        else:
            raise ValidationError(f"no fan rule for layer kind {layer.kind}")
        a = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-a, a, size=w.shape)
        layer.params[1][...] = 0.0


def _mlp(input_dim: int, hidden: int, k: int) -> tuple:
    layers = [Dense(input_dim, hidden), ReLU(), Dense(hidden, k)]
    arch = {"kind": "mlp", "input_dim": input_dim, "hidden": hidden, "class_count": k}
    return layers, (input_dim,), k, arch


def _cnn(input_channels: int, input_hw: int, k: int) -> tuple:
    if input_hw % 4:
        raise ShapeError(f"input_hw must be divisible by 4, got {input_hw}")
    layers = [
        Conv2d(input_channels, 16, 5, pad=2), ReLU(), MaxPool2d(2),
        Conv2d(16, 32, 5, pad=2), ReLU(), MaxPool2d(2),
        Conv2d(32, 64, 5, pad=2), ReLU(),
        Flatten(), Dense(64 * (input_hw // 4) ** 2, 84), ReLU(), Dense(84, k),
    ]
    arch = {"kind": "cnn", "input_channels": input_channels, "input_hw": input_hw, "class_count": k}
    return layers, (input_channels, input_hw, input_hw), k, arch


def build_mlp(input_dim: int, hidden: int, k: int) -> Model:
    """Fully connected net: dense(input->hidden), relu, dense(hidden->k)."""
    return Model(*_mlp(input_dim, hidden, k))


def build_cnn(input_channels: int, input_hw: int, k: int) -> Model:
    """LeNet-style stack: three 5x5 conv blocks (16/32/64 filters, pad 2 keeps
    the spatial size), max pooling after the first two, then dense 84 -> k.

    input_hw must be divisible by 4 so both pools land on even extents.
    """
    return Model(*_cnn(input_channels, input_hw, k))


_BUILDERS = {
    "mlp": (_mlp, ("input_dim", "hidden", "class_count")),
    "cnn": (_cnn, ("input_channels", "input_hw", "class_count")),
}
MODEL_KINDS = tuple(_BUILDERS)


def layers_of(arch: dict) -> tuple:
    """The builder's (layers, input shape, class count, arch) for a checkpoint's arch,
    allocating no parameter. Its kind must be known and its sizes positive integers
    the builder accepts, else CheckpointError: the checksum covers only the payload."""
    kind = arch.get("kind")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise CheckpointError(f"unknown architecture kind: {kind!r}")
    builder, keys = _BUILDERS[kind]
    sizes = [arch.get(key) for key in keys]
    for key, size in zip(keys, sizes):
        if type(size) is not int or size < 1:
            raise CheckpointError(
                f"{kind} architecture {key!r} must be a positive integer, got {size!r}")
    try:
        return builder(*sizes)
    except ShapeError as exc:
        raise CheckpointError(f"{kind} architecture: {exc}") from exc


def build_from_descriptor(arch: dict) -> Model:
    """Rebuild a model, weights zero, from a checkpoint's arch (see layers_of)."""
    return Model(*layers_of(arch))
