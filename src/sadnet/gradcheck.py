"""Finite-difference verification of every analytic gradient.

Central differences with h = 1e-5 against the backward pass, on batches
of randomly generated small models. Relative error uses an absolute
floor of 1e-8 so coordinates whose true partial is ~0 do not blow up
the ratio.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .errors import ValidationError

H = 1e-5
REL_TOLERANCE = 1e-6
ABS_FLOOR = 1e-8
BATCH = 4
L2_EVERY = 5  # every fifth model also checks the L2 penalty's gradient


def analytic_gradients(model: nn.Model, images, labels, l2: float) -> np.ndarray:
    nn.full_pass(model, images, labels, grad=True)
    nn.add_l2_gradients(model, l2)
    return model.grad.copy()


def numerical_gradients(model: nn.Model, images, labels, l2: float) -> np.ndarray:
    """Central differences, one coordinate of model.theta at a time."""
    def loss() -> float:
        return nn.full_pass(model, images, labels, grad=False)[0] + nn.l2_penalty(model, l2)

    theta = model.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + H
        up = loss()
        theta[i] = orig - H
        down = loss()
        theta[i] = orig
        grad[i] = (up - down) / (2.0 * H)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ABS_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def random_small_model(rng: np.random.Generator) -> nn.Model:
    """Alternate tiny MLPs (< 500 params) and CNNs on 1x8x8 inputs."""
    if rng.integers(0, 2) == 0:
        in_dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(2, 9))
        k = int(rng.integers(2, 6))
        model = nn.build_mlp(in_dim, hidden, k)
    else:
        channels = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        layers = [nn.Conv2d(1, channels, 3), nn.ReLU(), nn.MaxPool2d(), nn.Dense(channels * 4 * 4, k)]
        arch = {"kind": "gradcheck-cnn", "channels": channels, "class_count": k}
        model = nn.Model(layers, (1, 8, 8), k, arch)
    nn.init_xavier_uniform(model, rng)
    for layer in model.layers:
        if layer.params:
            # nonzero biases so their partials are exercised off the origin
            layer.params[1][...] = rng.uniform(-0.1, 0.1, size=layer.params[1].shape)
    return model


def gradcheck_suite(seed: int, n_models: int) -> tuple[float, list[dict]]:
    """Run the finite-difference suite; returns (max rel error, per-model detail)."""
    if seed < 0:
        raise ValidationError(f"gradcheck seed must be >= 0, got {seed}")
    if n_models < 1:
        raise ValidationError(f"gradcheck needs at least 1 model, got {n_models}")
    rng = np.random.default_rng((seed, 909))
    details = []
    worst = 0.0
    for index in range(n_models):
        model = random_small_model(rng)
        images = rng.normal(0.0, 1.0, size=(BATCH, *model.input_shape))
        labels = rng.integers(0, model.class_count, size=BATCH)
        l2 = 0.01 if index % L2_EVERY == L2_EVERY - 1 else 0.0
        err = max_relative_error(
            analytic_gradients(model, images, labels, l2),
            numerical_gradients(model, images, labels, l2))
        worst = max(worst, err)
        details.append({"model": model.arch.get("kind"),
                        "params": model.theta.size, "l2": l2, "max_rel_err": err})
    return worst, details
