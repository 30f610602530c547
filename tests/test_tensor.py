"""Kernel-level tests: each op against a brute-force oracle plus edge cases."""

import numpy as np
import pytest

from sadnet import tensor as T
from sadnet.errors import ShapeError


def matmul_oracle(a, b):
    """Naive triple loop, independent of any numpy matmul path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_oracle(x, kernels, bias, pad):
    """Four nested loops over output channel, position, and kernel taps."""
    c, h, w = x.shape
    o, _, kh, kw = kernels.shape
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for y in range(oh):
            for xpos in range(ow):
                acc = bias[oc]
                for ic in range(c):
                    for i in range(kh):
                        for j in range(kw):
                            yy, xx = y + i - pad, xpos + j - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += x[ic, yy, xx] * kernels[oc, ic, i, j]
                out[oc, y, xpos] = acc
    return out


def maxpool_oracle(x, window):
    c, h, w = x.shape
    out = np.zeros((c, h // window, w // window))
    for ch in range(c):
        for y in range(h // window):
            for xpos in range(w // window):
                out[ch, y, xpos] = x[ch, y * window:(y + 1) * window,
                                     xpos * window:(xpos + 1) * window].max()
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(T.matmul(np.eye(2), b), b)

    def test_two_by_two(self):
        # frozen from matmul_oracle([[1,2],[3,4]], [[5,6],[7,8]])
        out = T.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilation(self):
        rng = np.random.default_rng(0)
        out = T.matmul(np.zeros((3, 4)), rng.normal(size=(4, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("a,b", [(np.zeros(3), np.zeros((3, 2))), (np.zeros((2, 3)), np.zeros((1, 3, 2)))],
                             ids=["1-d", "3-d"])
    def test_operands_must_be_2d(self, a, b):
        with pytest.raises(ShapeError, match="matmul needs 2-d operands"):
            T.matmul(a, b)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = rng.uniform(-1, 1, size=(8, 8))
            b = rng.uniform(-1, 1, size=(8, 8))
            got = T.matmul(a, b)
            want = matmul_oracle(a, b)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 1e-13


def conv2d_one(x, kernels, bias, pad=0):
    """conv2d_batch on a single (C, H, W) image."""
    return T.conv2d_batch(x[None], kernels, bias, pad)[0]


def maxpool_one(x, window=2):
    """maxpool2d_batch on a single (C, H, W) image."""
    out, idx = T.maxpool2d_batch(x[None], window)
    return out[0], idx[0]


def central_difference(f, arr, h=1e-3):
    """d f / d arr by central differences, one element at a time (in place)."""
    grad = np.zeros_like(arr)
    for pos in np.ndindex(arr.shape):
        keep = arr[pos]
        arr[pos] = keep + h
        up = f()
        arr[pos] = keep - h
        down = f()
        arr[pos] = keep
        grad[pos] = (up - down) / (2 * h)
    return grad


# (1, 3, 3) pads wider than k - 1, so dx crops dout instead of padding it
BATCH_CASES = [(c, pad, k) for c in (1, 3) for pad in (0, 1, 2) for k in (3, 5)] + [(1, 3, 3)]


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(1, 5, 5))
        kernels = np.ones((1, 1, 1, 1))
        out = conv2d_one(x, kernels, np.zeros(1), pad=0)
        np.testing.assert_allclose(out, x)

    def test_bias_only_on_zero_input(self):
        bias = np.array([1.5, -2.0])
        out = conv2d_one(np.zeros((1, 4, 4)), np.zeros((2, 1, 3, 3)), bias, pad=1)
        assert out.shape == (2, 4, 4)
        np.testing.assert_allclose(out[0], 1.5)
        np.testing.assert_allclose(out[1], -2.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4))
        kernels = rng.normal(size=(1, 1, 3, 3))
        bias = rng.normal(size=1)
        out = conv2d_one(x, kernels, bias, pad=0)
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out, conv2d_oracle(x, kernels, bias, 0), atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_oracle_multichannel_padded(self, pad):
        rng = np.random.default_rng(3 + pad)
        x = rng.normal(size=(2, 5, 6))
        kernels = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        np.testing.assert_allclose(conv2d_one(x, kernels, bias, pad),
                                   conv2d_oracle(x, kernels, bias, pad), atol=1e-12)

    @pytest.mark.parametrize("c,pad,k", BATCH_CASES)
    def test_batch_matches_oracle_per_image(self, c, pad, k):
        rng = np.random.default_rng(10 * c + 3 * pad + k)
        x = rng.normal(size=(3, c, 6, 9))
        kernels = rng.normal(size=(4, c, k, k))
        bias = rng.normal(size=4)
        out = T.conv2d_batch(x, kernels, bias, pad)
        assert out.shape == (3, 4, 6 + 2 * pad - k + 1, 9 + 2 * pad - k + 1)
        for n in range(3):
            np.testing.assert_allclose(out[n], conv2d_oracle(x[n], kernels, bias, pad), atol=1e-12)

    def test_one_hot_kernel_selects_channel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 4))
        kernels = np.zeros((1, 3, 1, 1))
        kernels[0, 2, 0, 0] = 1.0
        out = conv2d_one(x, kernels, np.zeros(1), pad=0)
        np.testing.assert_array_equal(out[0], x[2])

    @pytest.mark.parametrize("x,kernels,bias,match", [
        (np.zeros((1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(2), r"needs x \(B,C,H,W\)"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 3, 3)), np.zeros(2), r"needs x \(B,C,H,W\)"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 3, 3, 3)), np.zeros(2), "input has 1, kernels expect 3"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(3), r"bias must be \(2,\)"),
    ], ids=["x-rank", "kernel-rank", "channels", "bias"])
    def test_malformed_operands(self, x, kernels, bias, match):
        with pytest.raises(ShapeError, match=match):
            T.conv2d_batch(x, kernels, bias, 1)

    def test_non_positive_output_extent(self):
        with pytest.raises(ShapeError):
            conv2d_one(np.zeros((1, 2, 2)), np.zeros((1, 1, 5, 5)), np.zeros(1), pad=0)

    def test_backward_routes_to_padded_taps(self):
        # finite-difference spot check on a single kernel tap
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 1, 4, 4))
        kernels = rng.normal(size=(2, 1, 3, 3))
        bias = rng.normal(size=2)
        dout = rng.normal(size=(1, 2, 4, 4))
        _, dk, db = T.conv2d_backward_batch(x, kernels, 1, dout)
        h = 1e-6
        for tap in [(0, 0, 0, 0), (1, 0, 2, 1)]:
            kp = kernels.copy()
            kp[tap] += h
            km = kernels.copy()
            km[tap] -= h
            up = (T.conv2d_batch(x, kp, bias, 1) * dout).sum()
            down = (T.conv2d_batch(x, km, bias, 1) * dout).sum()
            np.testing.assert_allclose(dk[tap], (up - down) / (2 * h), rtol=1e-5)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("c,pad,k", BATCH_CASES)
    def test_backward_matches_central_differences(self, c, pad, k):
        # the loss is linear in x and in the kernels, so central differences
        # are exact up to rounding
        rng = np.random.default_rng(100 + 10 * c + 3 * pad + k)
        x = rng.normal(size=(3, c, 6, 9))
        kernels = rng.normal(size=(4, c, k, k))
        bias = rng.normal(size=4)
        dout = rng.normal(size=(3, 4, 6 + 2 * pad - k + 1, 9 + 2 * pad - k + 1))

        def loss():
            return (T.conv2d_batch(x, kernels, bias, pad) * dout).sum()

        dx, dk, db = T.conv2d_backward_batch(x, kernels, pad, dout)
        assert dx.shape == x.shape and dk.shape == kernels.shape
        np.testing.assert_allclose(dx, central_difference(loss, x), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(dk, central_difference(loss, kernels), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)))


def argmax_oracle(x, window):
    """Row-major position of the first maximum of each window, by scanning."""
    b, c, h, w = x.shape
    idx = np.zeros((b, c, h // window, w // window), dtype=int)
    for pos in np.ndindex(idx.shape):
        n, ch, y, xpos = pos
        best = -np.inf
        for p in range(window * window):
            v = x[n, ch, y * window + p // window, xpos * window + p % window]
            if v > best:
                best, idx[pos] = v, p
    return idx


class TestMaxPool:
    def test_single_window(self):
        out, idx = maxpool_one(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[4.0]]])
        assert idx[0, 0, 0] == 3  # row-major position (1, 1) inside the window

    def test_constant_invariance(self):
        out, _ = maxpool_one(np.full((2, 4, 4), 7.0))
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 7.0))

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 4, 4))
        out, _ = maxpool_one(x)
        np.testing.assert_array_equal(out, maxpool_oracle(x, 2))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_one(np.zeros((1, 3, 4)))

    def test_output_members_of_windows(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 6, 8))
        out, _ = maxpool_one(x)
        for c in range(3):
            for y in range(3):
                for xx in range(4):
                    window = x[c, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2]
                    assert out[c, y, xx] in window

    @pytest.mark.parametrize("window", [2, 3])
    def test_ties_go_to_lowest_position(self, window):
        # ReLU'd inputs hold many tied zeros, the case the layers produce
        rng = np.random.default_rng(11 + window)
        x = np.maximum(rng.normal(size=(2, 3, 6, 12)), 0.0)
        out, idx = T.maxpool2d_batch(x, window)
        np.testing.assert_array_equal(idx, argmax_oracle(x, window))
        for ch in range(3):
            np.testing.assert_array_equal(out[:, ch], maxpool_oracle(x[:, ch], window))

    def test_backward_scatters_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, idx = T.maxpool2d_batch(x, 2)
        dout = np.array([[[[5.0]]]])
        dx = T.maxpool2d_backward_batch(idx, dout, 2, x.shape)
        np.testing.assert_array_equal(dx, [[[[0.0, 0.0], [0.0, 5.0]]]])

    def test_backward_routes_each_window_once(self):
        rng = np.random.default_rng(12)
        x = np.maximum(rng.normal(size=(2, 3, 4, 6)), 0.0)
        _, idx = T.maxpool2d_batch(x, 2)
        dout = rng.normal(size=idx.shape)
        dx = T.maxpool2d_backward_batch(idx, dout, 2, x.shape)
        want = np.zeros_like(x)
        for pos in np.ndindex(idx.shape):
            n, ch, y, xpos = pos
            p = idx[pos]
            want[n, ch, 2 * y + p // 2, 2 * xpos + p % 2] = dout[pos]
        np.testing.assert_array_equal(dx, want)


class TestReluSoftmaxNormAxpy:
    def test_relu_examples(self):
        np.testing.assert_array_equal(T.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(T.relu(np.array([-3.0, -1.0])), [0.0, 0.0])

    def test_relu_backward_gate(self):
        np.testing.assert_array_equal(T.relu_backward(np.array([5.0]), np.array([3.0])), [5.0])
        np.testing.assert_array_equal(T.relu_backward(np.array([5.0]), np.array([-3.0])), [0.0])
        np.testing.assert_array_equal(T.relu_backward(np.array([5.0]), np.array([0.0])), [0.0])

    def test_softmax_uniform(self):
        np.testing.assert_allclose(T.softmax(np.zeros(10), axis=0), np.full(10, 0.1), atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=7)
        np.testing.assert_allclose(T.softmax(z, axis=0), T.softmax(z + 123.456, axis=0), atol=1e-12)

    def test_softmax_frozen_values(self):
        # frozen from the direct exponential-sum oracle on [1, 2, 3]
        np.testing.assert_allclose(T.softmax(np.array([1.0, 2.0, 3.0]), axis=0),
                                   [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_softmax_is_probability_vector(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(0, 10, size=rng.integers(2, 12))
            p = T.softmax(z, axis=0)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-12

    def test_softmax_large_logits_stable(self):
        p = T.softmax(np.array([1000.0, 0.0]), axis=0)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_norm2(self):
        assert T.norm2(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert T.norm2(np.zeros((4, 4))) == 0.0
