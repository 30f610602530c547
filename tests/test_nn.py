"""Layer, builder, loss, and initialization tests.

Gradient correctness is checked against central finite differences; the
numeric differentiator lives in sadnet.gradcheck and only ever calls
forward, so it is independent of the backward pass it verifies.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sadnet import nn
from sadnet import tensor as T
from sadnet.errors import CheckpointError, ShapeError, StateError, ValidationError
from sadnet.experiment import Checkpoint
from sadnet.gradcheck import (analytic_gradients, gradcheck_suite, max_relative_error,
                              numerical_gradients, random_small_model)


def two_matmul_oracle(x, w1, b1, w2, b2):
    """Standalone MLP forward: numpy only, no layer machinery."""
    h = np.maximum(x @ w1 + b1, 0.0)
    return h @ w2 + b2


class TestBuilders:
    def test_mlp_parameter_count_mnist_shape(self):
        model = nn.build_mlp(784, 512, 10)
        assert model.theta.size == 784 * 512 + 512 + 512 * 10 + 10 == 407050

    def test_mlp_parameter_count_cifar_shape(self):
        model = nn.build_mlp(3072, 512, 10)
        assert model.theta.size == 3072 * 512 + 512 + 512 * 10 + 10

    def test_minimal_mlp_forward_gives_output_bias(self):
        model = nn.build_mlp(4, 1, 2)
        model.layers[-1].b[...] = [0.5, -0.5]
        logits = model.forward(np.zeros((3, 4)))
        np.testing.assert_allclose(logits, np.tile([0.5, -0.5], (3, 1)))

    def test_cnn_shape_walk_28(self):
        model = nn.build_cnn(1, 28, 10)
        rng = np.random.default_rng(0)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(2, 1, 28, 28))
        out = x
        shapes = []
        for layer in model.layers:
            out = layer.forward(out, cache=False)
            shapes.append(out.shape[1:])
        assert shapes[0] == (16, 28, 28)
        assert shapes[2] == (16, 14, 14)
        assert shapes[3] == (32, 14, 14)
        assert shapes[5] == (32, 7, 7)
        assert shapes[6] == (64, 7, 7)
        assert out.shape == (2, 10)

    def test_cnn_flatten_dim_32(self):
        model = nn.build_cnn(3, 32, 10)
        flat_dense = model.layers[8]
        assert flat_dense.w.shape == (64 * 8 * 8, 84)

    def test_cnn_rejects_bad_hw(self):
        with pytest.raises(ShapeError):
            nn.build_cnn(1, 30, 10)

    def test_cnn_zero_input_batch_constant(self):
        model = nn.build_cnn(1, 8, 4)
        nn.init_xavier_uniform(model, np.random.default_rng(1))
        logits = model.forward(np.zeros((3, 1, 8, 8)))
        np.testing.assert_allclose(logits, np.tile(logits[0], (3, 1)))

    def test_build_from_descriptor_round_trip(self):
        model = nn.build_mlp(12, 5, 3)
        again = nn.Model(*nn.layers_of(model.arch))
        assert [p.shape for p in again.parameters()] == [p.shape for p in model.parameters()]
        for arch in ({"kind": "resnet"},
                     {"kind": "cnn", "input_channels": 1, "input_hw": 6, "class_count": 3}):
            with pytest.raises(CheckpointError):
                nn.Model(*nn.layers_of(arch))

    def test_cnn_holds_only_the_four_layer_kinds(self):
        model = nn.build_cnn(1, 8, 4)
        assert {type(layer) for layer in model.layers} == {nn.Conv2d, nn.ReLU, nn.MaxPool2d, nn.Dense}

    @pytest.mark.parametrize("kernel_hw", [1, 3, 5])
    def test_conv_and_pool_geometry(self, kernel_hw):
        # a conv keeps its input's size, a pool halves it
        x = np.random.default_rng(kernel_hw).normal(size=(2, 3, 6, 4))
        conv = nn.Model([nn.Conv2d(3, 2, kernel_hw)], (3, 6, 4), 2, {"kind": "one-conv"})
        assert conv.layers[0].pad == (kernel_hw - 1) // 2
        assert conv.forward(x).shape == (2, 2, 6, 4)
        assert nn.MaxPool2d().forward(x, cache=False).shape == (2, 3, 3, 2)

    def test_conv_refuses_an_even_kernel(self):
        # an even kernel at pad (k - 1) // 2 would shrink its input by one pixel
        with pytest.raises(ShapeError, match="k = 4"):
            nn.Conv2d(3, 2, 4)


class TestForward:
    def test_duplicated_row_gives_identical_logits(self):
        model = nn.build_mlp(6, 4, 3)
        nn.init_xavier_uniform(model, np.random.default_rng(2))
        row = np.random.default_rng(3).normal(size=(1, 6))
        logits = model.forward(np.vstack([row, row]))
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_zero_weights_give_bias(self):
        model = nn.build_mlp(5, 3, 2)
        model.layers[-1].b[...] = [1.0, 2.0]
        logits = model.forward(np.random.default_rng(4).normal(size=(4, 5)))
        np.testing.assert_allclose(logits, np.tile([1.0, 2.0], (4, 1)))

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(5)
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(6, 4))
        want = two_matmul_oracle(x, model.layers[0].w, model.layers[0].b,
                                 model.layers[2].w, model.layers[2].b)
        np.testing.assert_allclose(model.forward(x), want, atol=1e-12)

    def test_row_permutation_permutes_logits(self):
        rng = np.random.default_rng(6)
        model = nn.build_mlp(7, 5, 3)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(8, 7))
        perm = rng.permutation(8)
        np.testing.assert_allclose(model.forward(x)[perm], model.forward(x[perm]), atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: nn.build_mlp(6, 5, 3),
        lambda: nn.build_cnn(1, 8, 4),
        lambda: _gradcheck_model("mlp"),
        lambda: _gradcheck_model("gradcheck-cnn"),
    ], ids=["mlp", "cnn", "gradcheck-mlp", "gradcheck-cnn"])
    def test_leaves_the_callers_batch_unchanged(self, make):
        # ReLU works in place on the array the layer below returned, never on the input
        model = make()
        nn.init_xavier_uniform(model, np.random.default_rng(8))
        batch = np.random.default_rng(9).normal(size=(3, *model.input_shape))
        before = batch.tobytes()
        for cache in (True, False):
            model.forward(batch, cache=cache)
            assert batch.tobytes() == before

    def test_shape_mismatch(self):
        model = nn.build_mlp(6, 4, 3)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 5)))

    def test_a_flat_batch_into_a_cnn_is_refused(self):
        # the batch reaches the first layer as it comes, and a conv needs (B, C, H, W)
        model = nn.build_cnn(1, 8, 4)
        with pytest.raises(ShapeError, match=r"needs x \(B,C,H,W\)"):
            model.forward(np.zeros((2, 64)))

    def test_flat_parameter_round_trip(self):
        rng = np.random.default_rng(7)
        model = nn.build_mlp(5, 4, 3)
        nn.init_xavier_uniform(model, rng)
        flat = model.theta.copy()
        other = nn.build_mlp(5, 4, 3)
        other.theta[...] = flat
        np.testing.assert_array_equal(other.theta, flat)
        for a, b in zip(other.parameters(), model.parameters()):
            np.testing.assert_array_equal(a, b)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        loss, _ = nn.cross_entropy(np.zeros((4, 10)), np.array([0, 3, 7, 9]))
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_saturated_correct(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        loss, logit_gradient = nn.cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(logit_gradient, 0.0, atol=1e-9)

    def test_frozen_value(self):
        # -log(softmax([1,2,3])[2]) = -log(0.66524096)
        loss, _ = nn.cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
        assert loss == pytest.approx(0.40760596, abs=1e-8)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        _, logit_gradient = nn.cross_entropy(logits, labels)
        want = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        for i, lab in enumerate(labels):
            want[i, lab] -= 1.0
        np.testing.assert_allclose(logit_gradient, want / 3.0, atol=1e-12)

    def test_returns_loss_and_gradient_leaving_logits_alone(self):
        logits = np.random.default_rng(7).normal(size=(3, 4))
        before = logits.copy()
        loss, logit_gradient = nn.cross_entropy(logits, np.array([1, 0, 3]))
        assert type(loss) is float and logit_gradient.shape == logits.shape
        np.testing.assert_array_equal(logits, before)

    @pytest.mark.parametrize("labels", [np.array([0]), np.array([[0], [1]])], ids=["short", "2-d"])
    def test_label_shape_mismatch(self, labels):
        with pytest.raises(ShapeError, match="does not match batch 2"):
            nn.cross_entropy(np.zeros((2, 3)), labels)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            nn.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValidationError):
            nn.cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


class TestBackward:
    def test_zero_logit_gradient_gives_zero_grads(self):
        rng = np.random.default_rng(9)
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, rng)
        model.forward(rng.normal(size=(2, 4)))
        model.backward(np.zeros((2, 2)))
        np.testing.assert_array_equal(model.grad, 0.0)

    def test_backward_before_forward_raises(self):
        model = nn.build_mlp(4, 3, 2)
        with pytest.raises(StateError):
            model.backward(np.zeros((2, 2)))

    def test_mlp_finite_differences(self):
        rng = np.random.default_rng(10)
        model = nn.build_mlp(3, 2, 2)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        err = max_relative_error(analytic_gradients(model, x, y, l2=0.0),
                                 numerical_gradients(model, x, y, l2=0.0))
        assert err < 1e-6

    def test_cnn_finite_differences(self):
        rng = np.random.default_rng(11)
        layers = [nn.Conv2d(1, 2, 3), nn.ReLU(), nn.MaxPool2d(), nn.Dense(2 * 3 * 3, 3)]
        model = nn.Model(layers, (1, 6, 6), 3, {"kind": "tiny-cnn"})
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(2, 1, 6, 6))
        y = rng.integers(0, 3, size=2)
        err = max_relative_error(analytic_gradients(model, x, y, l2=0.0),
                                 numerical_gradients(model, x, y, l2=0.0))
        assert err < 1e-6

    def test_dense_reads_an_image_batch_as_its_flat_view(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 2, 3, 3))
        delta = rng.normal(size=(5, 4))
        results = []
        for batch in (x, x.reshape(5, 18)):
            model = nn.Model([nn.Dense(18, 4)], batch.shape[1:], 4, {"kind": "one-dense"})
            nn.init_xavier_uniform(model, np.random.default_rng(14))
            logits = model.forward(batch)
            dx = model.layers[0].backward(delta, need_dx=True)
            results.append((logits.tobytes(), model.grad.tobytes(), dx))
        assert results[0][:2] == results[1][:2]
        assert results[0][2].shape == x.shape
        assert results[0][2].tobytes() == results[1][2].tobytes()

    def test_descent_direction(self):
        rng = np.random.default_rng(12)
        model = nn.build_mlp(5, 8, 3)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(16, 5))
        y = rng.integers(0, 3, size=16)
        before, logit_gradient = nn.cross_entropy(model.forward(x), y)
        model.backward(logit_gradient)
        for layer in model.layers:
            for p, g in zip(layer.params, layer.grads):
                p -= 0.05 * g
        after, _ = nn.cross_entropy(model.forward(x), y)
        assert after < before


class TestFirstLayerInputGradient:
    @staticmethod
    def _forward_and_loss(model, seed):
        rng = np.random.default_rng(seed)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(5, *model.input_shape))
        y = rng.integers(0, model.class_count, size=5)
        return x, nn.cross_entropy(model.forward(x), y)[1]

    @pytest.mark.parametrize("make", [lambda: nn.build_mlp(6, 5, 3),
                                      lambda: nn.build_cnn(1, 8, 4)], ids=["mlp", "cnn"])
    def test_grad_matches_every_layer_with_input_gradient(self, make):
        model = make()
        x, logit_gradient = self._forward_and_loss(model, 31)
        model.backward(logit_gradient)
        skipped = model.grad.copy()
        model.grad[...] = np.nan
        delta = logit_gradient
        for layer in reversed(model.layers):
            delta = layer.backward(delta, need_dx=True)
        assert delta.shape == x.shape
        np.testing.assert_array_equal(model.grad, skipped)

    def test_mlp_backward_skips_the_first_input_gradient(self, monkeypatch):
        model = nn.build_mlp(6, 5, 3)
        _, logit_gradient = self._forward_and_loss(model, 32)
        matmuls, returned = [], []
        matmul, dense_backward = T.matmul, nn.Dense.backward

        def counted_matmul(a, b, **kwargs):
            matmuls.append(a.shape)
            return matmul(a, b, **kwargs)

        def recorded_backward(layer, delta, *, need_dx):
            dx = dense_backward(layer, delta, need_dx=need_dx)
            returned.append((layer, dx))
            return dx

        monkeypatch.setattr(T, "matmul", counted_matmul)
        monkeypatch.setattr(nn.Dense, "backward", recorded_backward)
        model.backward(logit_gradient)
        assert len(matmuls) == 3
        assert [layer for layer, _ in returned] == [model.layers[2], model.layers[0]]
        assert returned[0][1].shape == (5, 5) and returned[1][1] is None


def temporary_then_copy_backward(layer, delta, *, need_dx):
    """Dense.backward as it was: each gradient built in a fresh array, then copied into grads."""
    flat, shape = layer._take_cache()
    layer.grads[0][...] = T.matmul(flat.T, delta)
    layer.grads[1][...] = delta.sum(axis=0)
    return T.matmul(delta, layer.w.T).reshape(shape) if need_dx else None


class TestDenseGradientsInPlace:
    @pytest.mark.parametrize("need_dx", [False, True])
    def test_backward_allocates_no_weight_sized_temporary(self, need_dx):
        model = nn.Model([nn.Dense(784, 512)], (784,), 512, {"kind": "t"})
        layer = model.layers[0]
        rng = np.random.default_rng(40)
        nn.init_xavier_uniform(model, rng)
        layer.forward(rng.normal(size=(128, 784)), cache=True)
        delta = rng.normal(size=(128, 512))
        tracemalloc.start()
        try:
            layer.backward(delta, need_dx=need_dx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layer.w.nbytes

    @pytest.mark.parametrize("make, batch", [(lambda: nn.build_mlp(784, 512, 10), 128),
                                             (lambda: nn.build_cnn(1, 8, 4), 16)],
                             ids=["mlp", "cnn"])
    def test_grad_bytes_equal_the_temporary_then_copy_path(self, make, batch, monkeypatch):
        model = make()
        rng = np.random.default_rng(41)
        nn.init_xavier_uniform(model, rng)
        x = rng.normal(size=(batch, *model.input_shape))
        y = rng.integers(0, model.class_count, size=batch)
        logit_gradient = nn.cross_entropy(model.forward(x), y)[1]
        model.backward(logit_gradient)
        in_place = model.grad.tobytes()
        model.grad[...] = np.nan
        monkeypatch.setattr(nn.Dense, "backward", temporary_then_copy_backward)
        model.backward(logit_gradient)
        assert model.grad.tobytes() == in_place


class TestGradcheckSuite:
    @pytest.mark.parametrize("seed,n_models", [(-1, 1), (0, 0), (0, -3)])
    def test_rejects_negative_seed_and_no_models(self, seed, n_models):
        with pytest.raises(ValidationError):
            gradcheck_suite(seed, n_models=n_models)


class TestL2:
    def test_zero_lambda(self):
        model = nn.build_mlp(3, 2, 2)
        assert nn.l2_penalty(model, 0.0) == 0.0

    def test_hand_arithmetic(self):
        model = nn.Model([nn.Dense(1, 2)], (1,), 2, {"kind": "t"})
        model.layers[0].w[...] = [[1.0, 2.0]]
        assert nn.l2_penalty(model, 0.5) == pytest.approx(2.5)
        model.layers[0].grads[0][...] = 0.0
        model.layers[0].grads[1][...] = 0.0
        nn.add_l2_gradients(model, 0.5)
        np.testing.assert_allclose(model.layers[0].grads[0], [[1.0, 2.0]])
        np.testing.assert_array_equal(model.layers[0].grads[1], [0.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(13)
        model = nn.build_mlp(4, 3, 2)
        nn.init_xavier_uniform(model, rng)
        assert nn.l2_penalty(model, 0.2) == pytest.approx(2 * nn.l2_penalty(model, 0.1))

    def test_negative_lambda(self):
        model = nn.build_mlp(3, 2, 2)
        with pytest.raises(ValidationError):
            nn.l2_penalty(model, -1e-3)
        with pytest.raises(ValidationError):
            nn.add_l2_gradients(model, -1e-3)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                nn.l2_penalty(model, lam)
            with pytest.raises(ValidationError):
                nn.add_l2_gradients(model, lam)


class TestXavier:
    def test_dense_bound(self):
        model = nn.build_mlp(784, 512, 10)
        nn.init_xavier_uniform(model, np.random.default_rng(14))
        a = math.sqrt(6.0 / (784 + 512))
        assert a == pytest.approx(0.0680414, abs=1e-7)
        w = model.layers[0].w
        assert np.abs(w).max() <= a
        # spread should actually use the range, not collapse near zero
        assert np.abs(w).max() > 0.9 * a

    def test_conv_fans(self):
        model = nn.build_cnn(1, 8, 4)
        nn.init_xavier_uniform(model, np.random.default_rng(15))
        conv1 = model.layers[0]
        a = math.sqrt(6.0 / (1 * 25 + 16 * 25))
        assert np.abs(conv1.kernels).max() <= a

    def test_custom_layer_with_parameters_has_no_fan_rule(self):
        class Scale(nn.Layer):
            kind = "scale"

            def __init__(self):
                super().__init__((4,), (4,))

        model = nn.Model([Scale()], (4,), 4, {"kind": "custom"})
        with pytest.raises(ValidationError, match="no fan rule for layer kind scale"):
            nn.init_xavier_uniform(model, np.random.default_rng(0))

    def test_biases_zero(self):
        model = nn.build_mlp(6, 4, 3)
        nn.init_xavier_uniform(model, np.random.default_rng(16))
        np.testing.assert_array_equal(model.layers[0].b, 0.0)
        np.testing.assert_array_equal(model.layers[2].b, 0.0)

    def test_same_seed_identical(self):
        m1 = nn.build_mlp(10, 5, 3)
        m2 = nn.build_mlp(10, 5, 3)
        nn.init_xavier_uniform(m1, np.random.default_rng(17))
        nn.init_xavier_uniform(m2, np.random.default_rng(17))
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_init_loss_near_ln_k(self):
        rng = np.random.default_rng(18)
        for seed in range(5):
            model = nn.build_mlp(64, 32, 10)
            nn.init_xavier_uniform(model, np.random.default_rng(seed))
            x = rng.uniform(0, 1, size=(40, 64))
            y = np.repeat(np.arange(10), 4)
            loss, _ = nn.cross_entropy(model.forward(x), y)
            assert abs(loss - math.log(10)) < 0.15 * math.log(10)

    def test_relu_then_pool_equals_pool_then_relu(self):
        # max pooling commutes with monotone relu, so the chosen order is safe
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 3, 6, 6))
        from sadnet import tensor as T
        a = T.maxpool2d_batch(np.maximum(x, 0.0))
        b = np.maximum(T.maxpool2d_batch(x), 0.0)
        np.testing.assert_array_equal(a, b)


def _gradcheck_model(kind):
    rng = np.random.default_rng(0)
    while True:
        model = random_small_model(rng)
        if model.arch["kind"] == kind:
            return model


def _restored_cnn():
    model = nn.build_cnn(1, 8, 4)
    nn.init_xavier_uniform(model, np.random.default_rng(3))
    cp = Checkpoint(model.arch, model.theta.copy(), {}, "t")
    return cp.to_model()


class TestParameterStore:
    @pytest.mark.parametrize("make", [
        lambda: nn.build_mlp(6, 5, 3),
        lambda: nn.build_cnn(1, 8, 4),
        lambda: _gradcheck_model("gradcheck-cnn"),
        _restored_cnn,
    ], ids=["mlp", "cnn", "gradcheck-cnn", "checkpoint"])
    def test_layers_view_the_model_vectors_in_canonical_order(self, make):
        model = make()
        offset = 0
        for layer in model.layers:
            aliases = {"dense": ("w", "b"), "conv": ("kernels", "bias")}.get(layer.kind, ())
            assert len(layer.params) == len(layer.grads) == len(aliases)
            for name, p, g in zip(aliases, layer.params, layer.grads):
                assert getattr(layer, name) is p
                with pytest.raises(AttributeError):
                    setattr(layer, name, p.copy())
                for view, vec in ((p, model.theta), (g, model.grad)):
                    assert view.base is vec
                    assert view.flags.c_contiguous
                    assert view.ctypes.data == vec.ctypes.data + 8 * offset
                offset += p.size
        assert offset == model.theta.size == model.grad.size
        assert model.shapes == [p.shape for p in model.parameters()]
