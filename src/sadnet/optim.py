"""Stochastic first-order optimizers updating a Model's parameters in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError, ValidationError
from .nn import Model


@dataclass
class OptimizerState:
    """Moment vectors, scratch vectors and step counter.

    m/v and the two scratch vectors are shaped like model.theta and are
    allocated on the first Adam step, so the state can be created before
    the model is initialized. last_max_update records the largest
    |delta w| of the most recent step (used by training guards).
    """

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    last_max_update: float = field(default=0.0, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValidationError(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr <= 0:
            raise ValidationError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValidationError("beta1/beta2 must lie in (0, 1)")


def make_optimizer(kind: str, lr: float = 0.001, **kwargs) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr, **kwargs)


def _require_grads(model: Model):
    if not model.grads_ready:
        raise StateError("optimizer step before backward: gradients not populated")


def sgd_step(model: Model, state: OptimizerState) -> None:
    """theta <- theta - lr * grad."""
    _require_grads(model)
    state.t += 1
    model.theta -= state.lr * model.grad
    state.last_max_update = state.lr * float(np.abs(model.grad).max(initial=0.0))


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
    b1, b2 = state.beta1, state.beta2
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=update)
    v *= b2
    np.multiply(g, 1.0 - b2, out=update)
    update *= g
    v += update
    np.sqrt(np.divide(v, 1.0 - b2 ** state.t, out=denom), out=denom)
    denom += state.eps
    np.divide(m, 1.0 - b1 ** state.t, out=update)
    update *= state.lr
    update /= denom
    model.theta -= update
    state.last_max_update = float(np.abs(update, out=denom).max(initial=0.0))


def step(model: Model, state: OptimizerState) -> None:
    if state.kind == "adam":
        adam_step(model, state)
    else:
        sgd_step(model, state)
