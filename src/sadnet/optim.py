"""Stochastic first-order optimizers updating a Model's parameters in place.

Adam's blocks, cut by `tensor.chunks`, run on every core through
`tensor.map_shares`, under its rules: each share allocates its own pair
of scratch vectors, each block writes only its own slice of theta, m and
v with the same numpy calls as in a serial loop, and a share calls numpy
only. The update is therefore the same bits at any core count.

Adam folds its bias correction into one step size and one floor per step
(Kingma & Ba, arXiv:1412.6980, section 2): with c1 = 1 - b1**t and
c2 = 1 - b2**t, lr_t = lr * sqrt(c2) / c1 and eps_t = eps * sqrt(c2), and
theta -= lr_t * m / (sqrt(v) + eps_t), one divide per coordinate. This is
(lr * m / c1) / (sqrt(v / c2) + eps), eps added outside the square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
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
    """Moment vectors and step counter.

    m/v are shaped like model.theta and allocated on the first Adam step,
    so the state can be created before the model is initialized.
    """

    kind: str
    lr: float
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    t: int = field(init=False, default=0)

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

    In place on m and v; the update is lr_t * m / (sqrt(v) + eps_t), with
    lr_t = lr * sqrt(c2) / c1 and eps_t = eps * sqrt(c2) computed once per
    step from c1 = 1 - b1**t and c2 = 1 - b2**t, which equals
    (lr * m / c1) / (sqrt(v / c2) + eps) with one divide per coordinate.
    Each block of BLOCK coordinates runs the whole sequence while it is in
    cache; every coordinate gets the same operations as on the whole
    vector. The blocks are spread over the cores by tensor.map_shares, each
    share with its own pair of scratch vectors.
    """
    _require_grads(model)
    theta, grad = model.theta, model.grad
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.t += 1
    m_all, v_all = state.m, state.v
    root_c2 = math.sqrt(1.0 - BETA2 ** state.t)
    lr_t = state.lr * root_c2 / (1.0 - BETA1 ** state.t)
    eps_t = EPS * root_c2

    def share(blocks):
        scratch = np.empty((2, min(grad.size, BLOCK)))
        for block in blocks:
            g, m, v = grad[block], m_all[block], v_all[block]
            update, denom = scratch[:, :g.size]
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=update)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=update)
            update *= g
            v += update
            np.sqrt(v, out=denom)
            denom += eps_t
            np.multiply(m, lr_t, out=update)
            update /= denom
            theta[block] -= update

    T.map_shares(share, T.chunks(grad.size, BLOCK))


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
