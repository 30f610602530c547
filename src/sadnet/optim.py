"""Stochastic first-order optimizers updating a Model's parameters in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError, ValidationError
from .nn import Model


# Adam's moment decay rates and denominator floor (Kingma & Ba, arXiv:1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimizerState:
    """Moment vectors, scratch vectors and step counter.

    m/v and the two scratch vectors are shaped like model.theta and are
    allocated on the first Adam step, so the state can be created before
    the model is initialized.
    """

    kind: str
    lr: float
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    t: int = field(init=False, default=0)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValidationError(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr <= 0:
            raise ValidationError(f"learning rate must be positive, got {self.lr}")


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
    (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps).
    """
    _require_grads(model)
    g = model.grad
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
        state.scratch = (np.empty_like(g), np.empty_like(g))
    m, v, (update, denom) = state.m, state.v, state.scratch
    state.t += 1
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
    model.theta -= update


def step(model: Model, state: OptimizerState) -> None:
    if state.kind == "adam":
        adam_step(model, state)
    else:
        sgd_step(model, state)
