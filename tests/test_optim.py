"""Optimizer update rules against closed forms and a scalar recurrence oracle."""

import numpy as np
import pytest

from sadnet import nn
from sadnet.errors import StateError, ValidationError
from sadnet.optim import OptimizerState, adam_step, sgd_step, step


def scalar_adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, w0=0.0):
    """Recompute the Adam recurrence on one coordinate, independent of optim."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (v_hat ** 0.5 + eps)
    return w


def one_param_model(value):
    model = nn.Model([nn.Dense(1, 1)], (1,), 1, {"kind": "t"})
    model.layers[0].w[...] = [[value]]
    return model


def set_grads(model, w_grad, b_grad=0.0):
    model.layers[0].grads[0][...] = [[w_grad]]
    model.layers[0].grads[1][...] = [b_grad]
    model.grads_ready = True


class TestSgd:
    def test_definition(self):
        model = nn.Model([nn.Dense(1, 2)], (1,), 2, {"kind": "t"})
        model.layers[0].w[...] = [[1.0, 2.0]]
        model.layers[0].grads[0][...] = [[0.5, -0.5]]
        model.grads_ready = True
        sgd_step(model, OptimizerState("sgd", 0.1))
        np.testing.assert_allclose(model.layers[0].w, [[0.95, 2.05]])

    def test_zero_gradient_noop(self):
        model = one_param_model(3.0)
        set_grads(model, 0.0)
        sgd_step(model, OptimizerState("sgd", 0.1))
        assert model.layers[0].w[0, 0] == 3.0

    def test_two_steps_equal_one_double_step(self):
        a = one_param_model(1.0)
        b = one_param_model(1.0)
        state_a = OptimizerState("sgd", 0.1)
        for _ in range(2):
            set_grads(a, 0.7)
            sgd_step(a, state_a)
        set_grads(b, 0.7)
        sgd_step(b, OptimizerState("sgd", 0.2))
        assert a.layers[0].w[0, 0] == pytest.approx(b.layers[0].w[0, 0], rel=1e-15)

    def test_requires_gradients(self):
        model = one_param_model(1.0)
        with pytest.raises(StateError):
            sgd_step(model, OptimizerState("sgd", 0.1))


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        for g in (2.0, -0.3, 1e-4):
            model = one_param_model(0.0)
            set_grads(model, g)
            adam_step(model, OptimizerState("adam", 0.001))
            want = 0.001 * abs(g) / (abs(g) + 1e-8)
            assert abs(model.layers[0].w[0, 0]) == pytest.approx(want, rel=1e-9)

    def test_zero_gradient_fresh_state_noop(self):
        model = one_param_model(5.0)
        set_grads(model, 0.0)
        adam_step(model, OptimizerState("adam", 0.001))
        assert model.layers[0].w[0, 0] == 5.0

    def test_three_steps_match_scalar_oracle(self):
        model = one_param_model(0.0)
        state = OptimizerState("adam", 0.001)
        for _ in range(3):
            set_grads(model, 1.0)
            adam_step(model, state)
        want = scalar_adam_oracle([1.0, 1.0, 1.0], lr=0.001)
        assert model.layers[0].w[0, 0] == pytest.approx(want, abs=1e-12)
        assert model.layers[0].w[0, 0] == pytest.approx(-0.003, rel=1e-3)

    def test_matches_oracle_on_random_gradient_sequence(self):
        rng = np.random.default_rng(20)
        grads = rng.normal(size=10)
        model = one_param_model(0.4)
        state = OptimizerState("adam", 0.01)
        for g in grads:
            set_grads(model, g)
            adam_step(model, state)
        want = scalar_adam_oracle(grads, lr=0.01, w0=0.4)
        assert model.layers[0].w[0, 0] == pytest.approx(want, abs=1e-12)
        assert state.t == 10

        # every coordinate of a multi-layer model follows its own recurrence
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, np.random.default_rng(25))
        w0 = model.theta.copy()
        sequence = rng.normal(size=(10, w0.size))
        state = OptimizerState("adam", 0.01)
        for g in sequence:
            model.grad[...] = g
            model.grads_ready = True
            adam_step(model, state)
        want = [scalar_adam_oracle(sequence[:, i], lr=0.01, w0=w0[i]) for i in range(w0.size)]
        np.testing.assert_allclose(model.theta, want, rtol=0, atol=1e-12)

    def test_update_bound_weak_form(self):
        rng = np.random.default_rng(21)
        model = one_param_model(0.0)
        state = OptimizerState("adam", 0.001)
        for _ in range(200):
            set_grads(model, rng.normal() * 10.0 ** rng.integers(-3, 3))
            adam_step(model, state)
            assert state.last_max_update <= 10 * 0.001

    def test_deterministic(self):
        def run():
            model = one_param_model(0.1)
            state = OptimizerState("adam", 0.005)
            rng = np.random.default_rng(22)
            for _ in range(20):
                set_grads(model, rng.normal())
                step(model, state)
            return model.layers[0].w[0, 0]
        assert run() == run()

    def test_moment_shapes_and_counter(self):
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, np.random.default_rng(23))
        x = np.random.default_rng(24).normal(size=(2, 4))
        y = np.array([0, 1])
        state = OptimizerState("adam", 0.001)
        for expected_t in (1, 2):
            loss = nn.cross_entropy(model.forward(x), y)
            model.backward(loss.logit_gradient)
            adam_step(model, state)
            assert state.t == expected_t
        assert state.m.shape == state.v.shape == model.theta.shape
        assert (state.v >= 0).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            OptimizerState(kind="adagrad", lr=0.1)
        with pytest.raises(ValidationError):
            OptimizerState(kind="adam", lr=0.0)
