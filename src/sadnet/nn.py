"""Layers with explicit forward/backward passes, model builders, loss.

Models emit raw logits; softmax lives inside the cross-entropy loss so
the logit gradient has the closed form (softmax - onehot) / batch.
Parameter order is fixed everywhere: layer order, weights before biases.
A Model keeps every parameter in one float64 vector `theta` and every
gradient in one vector `grad`; each layer's params/grads are views of them.
A dense layer reads a (B, ...) batch as (B, prod ...), so conv blocks feed it directly.
"""

from __future__ import annotations

import math

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
    """x @ w + b, a (B, ...) batch x read as its (B, prod ...) view; dx comes back shaped as x."""

    kind = "dense"

    w = property(lambda self: self.params[0])
    b = property(lambda self: self.params[1])

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__((in_dim, out_dim), (out_dim,))

    def forward(self, x, *, cache):
        # a view: a 2-D batch is multiplied as the very array it came in as
        flat = x.reshape(len(x), math.prod(x.shape[1:]))
        out = T.matmul(flat, self.w)
        out += self.b
        self._cache = (flat, x.shape) if cache else None
        return out

    def backward(self, delta, *, need_dx):
        flat, shape = self._take_cache()
        T.matmul(flat.T, delta, out=self.grads[0])
        np.sum(delta, axis=0, out=self.grads[1])
        return T.matmul(delta, self.w.T).reshape(shape) if need_dx else None


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, *, cache):
        # in place is safe: every builder and gradcheck model puts a ReLU after a layer that
        # returns a fresh array, never right after a MaxPool2d, whose cached output it would overwrite
        out = np.maximum(x, 0.0, out=x)
        self._cache = out if cache else None
        return out

    def backward(self, delta, *, need_dx):
        # the gradient at 0 is 0
        return np.where(self._take_cache() > 0.0, delta, 0.0)


class Conv2d(Layer):
    """Odd square kernels, zero-padded by (k - 1) // 2 so a conv keeps its input's size; a first conv skips dx."""

    kind = "conv"

    kernels = property(lambda self: self.params[0])
    bias = property(lambda self: self.params[1])

    def __init__(self, in_channels: int, out_channels: int, kernel_hw: int):
        if kernel_hw % 2 == 0:
            raise ShapeError(f"Conv2d needs an odd kernel size, got k = {kernel_hw}")
        super().__init__((out_channels, in_channels, kernel_hw, kernel_hw), (out_channels,))

    def forward(self, x, *, cache):
        out = T.conv2d_batch(x, self.kernels, self.bias)
        self._cache = x if cache else None
        return out

    def backward(self, delta, *, need_dx):
        x = self._take_cache()
        dx, dk, db = T.conv2d_backward_batch(x, self.kernels, need_dx, delta)
        self.grads[0][...] = dk
        self.grads[1][...] = db
        return dx


class MaxPool2d(Layer):
    """Max over disjoint 2x2 windows; halves each spatial extent."""

    kind = "maxpool"

    def forward(self, x, *, cache):
        out = T.maxpool2d_batch(x)
        # no extra memory: the ReLU before a pool holds x, the conv or dense layer after it holds out
        self._cache = (x, out) if cache else None
        return out

    def backward(self, delta, *, need_dx):
        x, out = self._take_cache()
        return T.maxpool2d_backward_batch(x, out, delta)


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

    def forward(self, batch: np.ndarray, cache: bool = True) -> np.ndarray:
        """Logits of a (B, ...) batch of the input shape's size, handed to the first layer as it comes."""
        out = np.asarray(batch, dtype=np.float64)
        if math.prod(out.shape[1:]) != math.prod(self.input_shape):
            raise ShapeError(f"batch shape {out.shape[1:]} incompatible with model input {self.input_shape}")
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


PROB_FLOOR = 1e-12  # keeps -log finite once memorization saturates


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean loss, logit gradient): the mean -log softmax(logits)[label] over the
    batch in nats, with clipped probs, and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValidationError(f"labels must lie in [0, {k})")
    # stable softmax: the row max is subtracted before exponentiation
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.clip(probs[np.arange(b), labels], PROB_FLOOR, None)
    mean_loss = float(-np.log(picked).mean())
    probs[np.arange(b), labels] -= 1.0  # softmax made probs, so the gradient may overwrite it
    probs /= b
    return mean_loss, probs


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
    # serial, not tensor.map_shares: a worker's malloc arena costs peak memory, and
    # the layer methods a slice calls are the ones a tracer wraps on the calling thread
    for start in range(0, n, PASS_BATCH):
        yb = labels[start:start + PASS_BATCH]
        logits = model.forward(images[start:start + PASS_BATCH], cache=grad)
        loss, logit_gradient = cross_entropy(logits, yb)
        loss_sum += loss * len(yb)
        hits += int((logits.argmax(axis=1) == yb).sum())
        if grad:
            model.backward(logit_gradient)
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
        Conv2d(input_channels, 16, 5), ReLU(), MaxPool2d(),
        Conv2d(16, 32, 5), ReLU(), MaxPool2d(),
        Conv2d(32, 64, 5), ReLU(),
        Dense(64 * (input_hw // 4) ** 2, 84), ReLU(), Dense(84, k),
    ]
    arch = {"kind": "cnn", "input_channels": input_channels, "input_hw": input_hw, "class_count": k}
    return layers, (input_channels, input_hw, input_hw), k, arch


def build_mlp(input_dim: int, hidden: int, k: int) -> Model:
    """Fully connected net: dense(input->hidden), relu, dense(hidden->k)."""
    return Model(*_mlp(input_dim, hidden, k))


def build_cnn(input_channels: int, input_hw: int, k: int) -> Model:
    """LeNet-style stack: three 5x5 conv blocks (16/32/64 filters, each keeping
    the spatial size), 2x2 max pooling after the first two, then dense 84 -> k.

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
