"""Optimizer update rules against closed forms and a scalar recurrence oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from sadnet import nn
from sadnet import tensor as T
from sadnet.errors import StateError, ValidationError
from sadnet.experiment import TrainConfig
from sadnet.optim import BETA1, BETA2, BLOCK, EPS, OptimizerState, adam_step, sgd_step, step


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


def whole_vector_adam(theta, g, m, v, t, lr):
    """adam_step's in-place sequence run once over the whole vector, unblocked."""
    update, denom = np.empty_like(g), np.empty_like(g)
    root_c2 = np.sqrt(1.0 - BETA2 ** t)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=update)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=update)
    update *= g
    v += update
    np.sqrt(v, out=denom)
    denom += EPS * root_c2
    np.multiply(m, lr * root_c2 / (1.0 - BETA1 ** t), out=update)
    update /= denom
    theta -= update


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

    def test_folded_step_matches_oracle_over_a_long_horizon(self):
        # past t ~ 350, where 1 - b1**t rounds to 1.0, with gradients spanning 1e-6..1e2 and exact zeros
        steps = 400
        assert 1.0 - BETA1 ** steps == 1.0
        rng = np.random.default_rng(26)
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, np.random.default_rng(27))
        w0 = model.theta.copy()
        size = (steps, w0.size)
        sequence = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-6, 2, size=size)
        sequence[rng.random(size) < 0.1] = 0.0
        sequence[:3, 0] = 0.0
        sequence[:, 1] = 1e-6
        sequence[:, 2] = 1e2
        state = OptimizerState("adam", 0.001)
        for g in sequence:
            model.grad[...] = g
            model.grads_ready = True
            adam_step(model, state)
        assert state.t == steps
        want = [scalar_adam_oracle(sequence[:, i], lr=0.001, w0=w0[i]) for i in range(w0.size)]
        np.testing.assert_allclose(model.theta, want, rtol=0, atol=1e-12)

    def test_update_bound_weak_form(self):
        rng = np.random.default_rng(21)
        model = one_param_model(0.0)
        state = OptimizerState("adam", 0.001)
        for _ in range(200):
            set_grads(model, rng.normal() * 10.0 ** rng.integers(-3, 3))
            before = model.theta.copy()
            adam_step(model, state)
            assert np.abs(model.theta - before).max() <= 10 * 0.001

    @pytest.mark.parametrize("steps", [1, 100, 1000, 8000])
    def test_update_within_cauchy_schwarz_bound(self, steps):
        # g_i = (b1/b2)**(T-i) makes Cauchy-Schwarz tight on the bias-corrected step,
        # so no gradient sequence moves a weight by more than lr times this bound
        lr = 0.001
        bound = (1 - BETA1) / np.sqrt((1 - BETA2) * (1 - BETA1 ** 2 / BETA2))
        model = one_param_model(0.0)
        state = OptimizerState("adam", lr)
        for g in (BETA1 / BETA2) ** np.arange(steps - 1, -1, -1.0):
            set_grads(model, g)
            before = model.theta.copy()
            adam_step(model, state)
            delta = np.abs(model.theta - before).max()
            assert delta <= lr * bound
        if steps == 8000:
            assert bound == pytest.approx(7.2703, abs=1e-4)
            assert delta >= 7.269 * lr

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
            _, logit_gradient = nn.cross_entropy(model.forward(x), y)
            model.backward(logit_gradient)
            adam_step(model, state)
            assert state.t == expected_t
        assert state.m.shape == state.v.shape == model.theta.shape
        assert (state.v >= 0).all()

    # one worker keeps the plain size as its id
    @pytest.mark.parametrize("size, workers", [
        pytest.param(size, workers, id=str(size) if workers == 1 else f"{size}-{workers}workers")
        for workers in (1, 2, 3) for size in (1, BLOCK - 1, BLOCK, 3 * BLOCK + 7)])
    def test_blocks_match_whole_vector_bit_for_bit(self, size, workers, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", workers)
        rng = np.random.default_rng(size)
        theta = rng.normal(size=size)
        model = SimpleNamespace(theta=theta.copy(), grad=np.empty(size), grads_ready=True)
        state = OptimizerState("adam", 0.003)
        m, v = np.zeros(size), np.zeros(size)
        for t in range(1, 5):
            g = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
            g[rng.random(size) < 0.1] = 0.0
            model.grad[...] = g
            adam_step(model, state)
            whole_vector_adam(theta, g, m, v, t, 0.003)
            np.testing.assert_array_equal(model.theta, theta)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    # the first plan grows the core count after the first step, the second changes it every step
    @pytest.mark.parametrize("plan", [(1, 2, 2, 2), (2, 1, 3, 1)])
    def test_state_does_not_depend_on_the_core_count(self, plan, monkeypatch):
        size = 3 * BLOCK + 7
        rng = np.random.default_rng(31)
        theta = rng.normal(size=size)
        grads = [rng.normal(size=size) for _ in plan]

        def run(workers_per_step):
            model = SimpleNamespace(theta=theta.copy(), grad=np.empty(size), grads_ready=True)
            state = OptimizerState("adam", 0.003)
            for workers, g in zip(workers_per_step, grads):
                monkeypatch.setattr(T, "WORKERS", workers)
                model.grad[...] = g
                adam_step(model, state)
            return [model.theta.tobytes(), state.m.tobytes(), state.v.tobytes()]

        assert run(plan) == run((1, 1, 1, 1))

    def test_validation(self):
        with pytest.raises(ValidationError):
            OptimizerState(kind="adagrad", lr=0.1)
        with pytest.raises(ValidationError):
            OptimizerState(kind="adam", lr=0.0)
        for kind, lr in (("sgd", float("nan")), ("adam", float("inf"))):
            with pytest.raises(ValidationError):
                OptimizerState(kind, lr)

    @pytest.mark.parametrize("kind, lr", [("adagrad", 0.1), ("adam", 0.0), ("sgd", float("nan")),
                                          ("adam", float("inf"))])
    def test_one_wording_for_config_and_state(self, kind, lr):
        messages = []
        for build in (lambda: TrainConfig(optimizer=kind, lr=lr), lambda: OptimizerState(kind, lr)):
            with pytest.raises(ValidationError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
