"""Stochastic first-order optimizers updating a Model's parameters in place."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StateError, ValidationError
from .nn import Model


# Adam's moment decay rates and denominator floor (Kingma & Ba, arXiv:1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per Adam block: the block's slices of theta, grad, m, v and the two
# scratch vectors (256 KiB each) stay in a core's L2 cache between passes.
BLOCK = 1 << 15


@dataclass
class OptimizerState:
    """Moment vectors, scratch vectors and step counter.

    m/v are shaped like model.theta and the two scratch vectors hold one
    block (at most BLOCK elements); all are allocated on the first Adam
    step, so the state can be created before the model is initialized.
    """

    kind: str
    lr: float
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    t: int = field(init=False, default=0)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        check_settings(self.kind, self.lr)


def _require_grads(model: Model):
    if not model.grads_ready:
        raise StateError("optimizer step before backward: gradients not populated")


def sgd_step(model: Model, state: OptimizerState) -> None:
    """theta <- theta - lr * grad."""
    _require_grads(model)
    state.t += 1
    model.theta -= state.lr * model.grad


def adam_step(model: Model, state: OptimizerState) -> None:
    """Adam update with bias correction; eps added outside the square root.

    In place on m, v and the scratch vectors; the update is
    (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps). Each block of
    BLOCK coordinates runs the whole sequence while it is in cache; every
    coordinate gets the same operations as on the whole vector.
    """
    _require_grads(model)
    if state.m is None:
        state.m, state.v = np.zeros_like(model.grad), np.zeros_like(model.grad)
        n = min(model.grad.size, BLOCK)
        state.scratch = (np.empty(n), np.empty(n))
    state.t += 1
    for lo in range(0, model.grad.size, BLOCK):
        hi = lo + BLOCK
        g, m, v = model.grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        update, denom = (s[:g.size] for s in state.scratch)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=update)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=update)
        update *= g
        v += update
        np.sqrt(np.divide(v, 1.0 - BETA2 ** state.t, out=denom), out=denom)
        denom += EPS
        np.divide(m, 1.0 - BETA1 ** state.t, out=update)
        update *= state.lr
        update /= denom
        model.theta[lo:hi] -= update


_STEPS = {"adam": adam_step, "sgd": sgd_step}
KINDS = tuple(_STEPS)


def check_settings(kind: str, lr: float) -> None:
    """The one optimizer rule, worded after TrainConfig's fields: a known kind, a positive finite lr."""
    if kind not in KINDS:
        kinds = " or ".join(map(repr, KINDS))
        raise ValidationError(f"optimizer must be {kinds}, got {kind!r}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"lr must be positive and finite, got {lr}")


def step(model: Model, state: OptimizerState) -> None:
    _STEPS[state.kind](model, state)
