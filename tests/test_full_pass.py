"""nn.full_pass against the per-set loops it replaced.

`evaluate_oracle` and `gradient_norm_oracle` are the loops `evaluate` and
`clean_gradient_norm` ran before both became calls of `nn.full_pass`; the
new functions must return the same bits on every set size, including sets
that end in a short slice.
"""

import numpy as np
import pytest

from sadnet import nn
from sadnet.data import LabeledDataset
from sadnet.errors import ValidationError
from sadnet.experiment import TrainConfig, checkpoint_of, clean_gradient_norm, evaluate
from sadnet.tensor import norm2

ORACLE_BATCH = 512


def evaluate_oracle(model, ds):
    n = len(ds)
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, ORACLE_BATCH):
        xb = ds.images[start:start + ORACLE_BATCH]
        yb = ds.labels[start:start + ORACLE_BATCH]
        logits = model.forward(xb, cache=False)
        loss, _ = nn.cross_entropy(logits, yb)
        loss_sum += loss * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return loss_sum / n, correct / n


def gradient_norm_oracle(checkpoint, ds):
    model = checkpoint.to_model()
    n = len(ds)
    total = np.zeros_like(model.theta)
    for start in range(0, n, ORACLE_BATCH):
        xb = ds.images[start:start + ORACLE_BATCH]
        yb = ds.labels[start:start + ORACLE_BATCH]
        logits = model.forward(xb)
        _, logit_gradient = nn.cross_entropy(logits, yb)
        model.backward(logit_gradient)
        total += model.grad * len(yb)
    return norm2(total / n)


def make_model(kind):
    # the CNN is the paper's LeNet stack on 8x8 inputs, small enough for 1100 examples
    model = nn.build_mlp(64, 16, 4) if kind == "mlp" else nn.build_cnn(1, 8, 4)
    nn.init_xavier_uniform(model, np.random.default_rng(3))
    return model


def make_set(n, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.uniform(0.0, 1.0, size=(n, 1, 8, 8)),
                          rng.integers(0, 4, size=n), 4)


@pytest.mark.parametrize("n", [1, 512, 513, 1100])
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_bit_equal_to_replaced_loops(kind, n):
    model = make_model(kind)
    ds = make_set(n)
    assert evaluate(model, ds) == evaluate_oracle(model, ds)
    cp = checkpoint_of(model, TrainConfig(model_kind=kind), "init")
    assert clean_gradient_norm(cp, ds) == gradient_norm_oracle(cp, ds)


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_multi_slice_gradient_matches_one_slice(kind, monkeypatch):
    ds = make_set(1100, seed=1)
    model = make_model(kind)
    sliced = nn.full_pass(model, ds.images, ds.labels, grad=True)
    sliced_grad = model.grad.copy()
    monkeypatch.setattr(nn, "PASS_BATCH", len(ds))
    whole = nn.full_pass(model, ds.images, ds.labels, grad=True)
    assert sliced[1] == whole[1]
    assert sliced[0] == pytest.approx(whole[0], rel=1e-12)
    np.testing.assert_allclose(sliced_grad, model.grad, rtol=1e-12,
                               atol=1e-12 * np.abs(model.grad).max())


def test_one_slice_gradient_is_backwards_own():
    ds = make_set(60, seed=2)
    model = make_model("mlp")
    loss, hits = nn.full_pass(model, ds.images, ds.labels, grad=True)
    fresh = make_model("mlp")
    logits = fresh.forward(ds.images)
    ce_loss, logit_gradient = nn.cross_entropy(logits, ds.labels)
    fresh.backward(logit_gradient)
    assert np.array_equal(model.grad, fresh.grad)
    assert loss == pytest.approx(ce_loss, rel=1e-15)
    assert hits == int((logits.argmax(axis=1) == ds.labels).sum())


def test_no_grad_leaves_gradient_alone():
    ds = make_set(600, seed=4)
    model = make_model("mlp")
    model.grad[...] = 7.0
    nn.full_pass(model, ds.images, ds.labels, grad=False)
    assert (model.grad == 7.0).all()
    assert all(layer._cache is None for layer in model.layers)


def test_empty_set_rejected():
    ds = make_set(0)
    model = make_model("mlp")
    with pytest.raises(ValidationError):
        nn.full_pass(model, ds.images, ds.labels, grad=True)
    with pytest.raises(ValidationError):
        evaluate(model, ds)
    with pytest.raises(ValidationError):
        clean_gradient_norm(checkpoint_of(model, TrainConfig(), "init"), ds)
