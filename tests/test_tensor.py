"""Kernel-level tests: each op against a brute-force oracle plus edge cases."""

import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sadnet import nn
from sadnet import tensor as T
from sadnet.errors import ShapeError, ValidationError


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


def maxpool_oracle(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ch in range(c):
        for y in range(h // 2):
            for xpos in range(w // 2):
                out[ch, y, xpos] = x[ch, 2 * y:2 * y + 2, 2 * xpos:2 * xpos + 2].max()
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

    # the MLP's products (forward, x.T @ delta, an evaluate slice) and widths with a short last panel
    @pytest.mark.parametrize("m, k, n, transposed", [
        (128, 784, 512, False), (784, 128, 512, True), (512, 784, 512, False),
        (64, 100, 300, False), (64, 100, 2 * T.PANEL + 1, False), (64, 100, 700, False)])
    def test_panels_give_the_same_bytes_at_any_worker_count(self, m, k, n, transposed, monkeypatch):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(k, m)).T if transposed else rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "WORKERS", workers)
            results.append(T.matmul(a, b))
        assert results[1].tobytes() == results[0].tobytes() == results[2].tobytes()
        np.testing.assert_allclose(results[0], a @ b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, T.PANEL, T.PANEL + 1, 2 * T.PANEL - 1, 2 * T.PANEL,
                                   2 * T.PANEL + 1])
    def test_every_product_is_cut_into_panels(self, n, monkeypatch):
        maps = []
        monkeypatch.setattr(T, "map_shares", lambda share, items: (maps.append(len(items)),
                                                                   share(items)))
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, n))
        got = T.matmul(a, b)
        assert maps == [-(-n // T.PANEL)]
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12)

    # the logits layer's and the CNN's 84-wide dense layer's products, either operand may be a transposed view
    @pytest.mark.parametrize("m, k, n", [(128, 512, 10), (512, 512, 10), (128, 3136, 84)])
    @pytest.mark.parametrize("transposed", ["a", "b", None])
    def test_a_product_one_panel_wide_has_the_bytes_of_one_call(self, m, k, n, transposed):
        rng = np.random.default_rng(k + n)
        a = rng.normal(size=(k, m)).T if transposed == "a" else rng.normal(size=(m, k))
        b = rng.normal(size=(n, k)).T if transposed == "b" else rng.normal(size=(k, n))
        assert T.matmul(a, b).tobytes() == (a @ b).tobytes()

    def test_shape_errors_fire_for_a_wide_product(self):
        with pytest.raises(ShapeError, match="inner dimensions differ"):
            T.matmul(np.zeros((2, 3)), np.zeros((2, 2 * T.PANEL)))
        with pytest.raises(ShapeError, match="matmul needs 2-d operands"):
            T.matmul(np.zeros((2, 3)), np.zeros((1, 3, 2 * T.PANEL)))

    # one panel wide, a short last panel, and the dense gradient's 784x512 shape
    @pytest.mark.parametrize("m, k, n", [(5, 7, T.PANEL), (5, 7, T.PANEL + 3), (784, 128, 512)])
    def test_out_receives_the_bytes_of_the_product(self, m, k, n):
        rng = np.random.default_rng(m + n)
        a, b = rng.normal(size=(k, m)).T, rng.normal(size=(k, n))
        out = np.full((m, n), np.nan)
        assert T.matmul(a, b, out=out) is out
        assert out.tobytes() == T.matmul(a, b).tobytes()
        np.testing.assert_allclose(out, a @ b, rtol=1e-12, atol=1e-12)
        if n <= T.PANEL:
            assert out.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("out", [np.empty((3, 5)), np.empty((2, 5, 1)), np.empty(10),
                                     np.empty((2, 5), dtype=np.float32),
                                     np.empty((2, 5), dtype=np.int64)],
                             ids=["rows", "3-d", "1-d", "float32", "int64"])
    def test_out_of_another_shape_or_dtype_is_refused(self, out):
        with pytest.raises(ShapeError, match="matmul out must be float64"):
            T.matmul(np.ones((2, 3)), np.ones((3, 5)), out=out)

    def test_out_sharing_memory_with_an_operand_is_refused(self):
        store = np.arange(2 * 3 + 3 * 3, dtype=np.float64)
        a, b = store[:6].reshape(2, 3), store[6:].reshape(3, 3)
        for out in (a, b[:2], b[1:]):
            with pytest.raises(ValidationError, match="must not share memory"):
                T.matmul(a, b, out=out)
        assert (store == np.arange(store.size)).all()


def conv2d_one(x, kernels, bias, pad):
    """conv2d_batch on a single (C, H, W) image."""
    return T.conv2d_batch(x[None], kernels, bias, pad)[0]


def maxpool_one(x):
    """maxpool2d_batch on a single (C, H, W) image."""
    return T.maxpool2d_batch(x[None])[0]


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


# the one geometry: an odd k padded by (k - 1) // 2
BATCH_CASES = [(c, (k - 1) // 2, k) for c in (1, 3) for k in (1, 3, 5)]
# (kh, kw, pad, message) of kernels and pads outside it, each refused with ShapeError
OTHER_GEOMETRIES = [(4, 4, 1, "a 4x4 kernel and pad 1"), (4, 4, 2, "a 4x4 kernel and pad 2"),
                    (3, 5, 1, "a 3x5 kernel and pad 1"), (3, 3, 0, "a 3x3 kernel and pad 0"),
                    (3, 3, 2, "a 3x3 kernel and pad 2"), (1, 1, 1, "a 1x1 kernel and pad 1")]
OTHER_GEOMETRY_IDS = ["even-k", "even-k-pad-2", "non-square", "pad-too-narrow", "pad-too-wide",
                      "pad-on-1x1"]


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
        out = conv2d_one(x, kernels, bias, pad=1)
        assert out.shape == (1, 4, 4)
        np.testing.assert_allclose(out, conv2d_oracle(x, kernels, bias, 1), atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_oracle_multichannel_padded(self, pad):
        rng = np.random.default_rng(3 + pad)
        x = rng.normal(size=(2, 5, 6))
        kernels = rng.normal(size=(3, 2, 2 * pad + 1, 2 * pad + 1))
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
        assert out.shape == (3, 4, 6, 9)
        for n in range(3):
            np.testing.assert_allclose(out[n], conv2d_oracle(x[n], kernels, bias, pad), atol=1e-12)

    def test_one_hot_kernel_selects_channel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 4))
        kernels = np.zeros((1, 3, 1, 1))
        kernels[0, 2, 0, 0] = 1.0
        out = conv2d_one(x, kernels, np.zeros(1), pad=0)
        np.testing.assert_array_equal(out[0], x[2])

    @pytest.mark.parametrize("x,kernels,bias,pad,match", [
        (np.zeros((1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(2), 1, r"needs x \(B,C,H,W\)"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 3, 3)), np.zeros(2), 1, r"needs x \(B,C,H,W\)"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 3, 3, 3)), np.zeros(2), 1, "input has 1, kernels expect 3"),
        (np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(3), 1, r"bias must be \(2,\)"),
        *[(np.zeros((1, 1, 4, 4)), np.zeros((2, 1, kh, kw)), np.zeros(2), pad, match)
          for kh, kw, pad, match in OTHER_GEOMETRIES],
    ], ids=["x-rank", "kernel-rank", "channels", "bias", *OTHER_GEOMETRY_IDS])
    def test_malformed_operands(self, x, kernels, bias, pad, match):
        with pytest.raises(ShapeError, match=match):
            T.conv2d_batch(x, kernels, bias, pad)

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
        dout = rng.normal(size=(3, 4, 6, 9))

        def loss():
            return (T.conv2d_batch(x, kernels, bias, pad) * dout).sum()

        dx, dk, db = T.conv2d_backward_batch(x, kernels, pad, dout)
        assert dx.shape == x.shape and dk.shape == kernels.shape
        np.testing.assert_allclose(dx, central_difference(loss, x), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(dk, central_difference(loss, kernels), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("dout_shape", [(4, 2, 4, 4), (2, 3, 4, 4), (2, 2, 5, 4), (2, 2, 4)],
                             ids=["batch", "channels", "height", "rank"])
    def test_backward_refuses_a_dout_that_does_not_fit(self, dout_shape):
        # x (2, 1, 4, 4) and kernels (2, 1, 3, 3) at pad 1 give outputs (2, 2, 4, 4)
        with pytest.raises(ShapeError, match=r"dout must be \(2, 2, 4, 4\)"):
            T.conv2d_backward_batch(np.zeros((2, 1, 4, 4)), np.zeros((2, 1, 3, 3)), 1,
                                    np.zeros(dout_shape))

    @pytest.mark.parametrize("kh,kw,pad,match", OTHER_GEOMETRIES, ids=OTHER_GEOMETRY_IDS)
    def test_backward_refuses_other_geometries(self, kh, kw, pad, match):
        x = np.zeros((2, 1, 4, 4))
        with pytest.raises(ShapeError, match=match):
            T.conv2d_backward_batch(x, np.zeros((2, 1, kh, kw)), pad, np.zeros((2, 2, 4, 4)))

    def test_backward_refuses_malformed_operands(self):
        with pytest.raises(ShapeError, match="input has 1, kernels expect 3"):
            T.conv2d_backward_batch(np.zeros((2, 1, 4, 4)), np.zeros((2, 3, 3, 3)), 1,
                                    np.zeros((2, 2, 4, 4)))
        with pytest.raises(ShapeError, match=r"needs x \(B,C,H,W\)"):
            T.conv2d_backward_batch(np.zeros((1, 4, 4)), np.zeros((2, 1, 3, 3)), 1,
                                    np.zeros((1, 2, 4, 4)))

    # batches 16, 17 and 33 end on a full, a one-image and a short chunk of dk's sum
    @pytest.mark.parametrize("batch", [1, 2, 5, 16, 17, 33, 128])
    def test_same_bytes_at_any_worker_count(self, batch, monkeypatch):
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 2, 6, 7))
        kernels = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        dout = rng.normal(size=(batch, 3, 6, 7))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "WORKERS", workers)
            results.append([T.conv2d_batch(x, kernels, bias, 1).tobytes()]
                           + [g.tobytes() for g in T.conv2d_backward_batch(x, kernels, 1, dout)])
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("batch", [5, 16, 17, 40])
    def test_dk_matches_the_serial_image_order_sum(self, batch):
        rng = np.random.default_rng(200 + batch)
        x = rng.normal(size=(batch, 2, 6, 7))
        kernels = rng.normal(size=(3, 2, 3, 3))
        dout = rng.normal(size=(batch, 3, 6, 7))
        _, dk, _ = T.conv2d_backward_batch(x, kernels, 1, dout)
        # the oracle: one running sum over every image in order
        want = np.zeros((3, 2 * 3 * 3))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in range(batch):
            cols = np.stack([xp[n, c, i:i + 6, j:j + 7].ravel()
                             for c in range(2) for i in range(3) for j in range(3)])
            want += dout[n].reshape(3, -1) @ cols.T
        want = want.reshape(kernels.shape)
        np.testing.assert_allclose(dk, want, rtol=1e-12, atol=0)
        if batch <= T.CHUNK:
            # one chunk is the serial sum itself
            assert dk.tobytes() == want.tobytes()


class TestMapShares:
    def test_shares_are_strided_and_one_share_stays_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", 3)
        seen = []

        def share(items):
            seen.append((items, threading.current_thread()))

        def shares():
            # each share's items, and whether it ran on the calling thread
            return sorted(((list(items), thread is threading.current_thread()) for items, thread in seen),
                          key=repr)

        T.map_shares(share, range(8))
        assert all(isinstance(items, range) for items, _ in seen)
        assert shares() == [([0, 3, 6], True), ([1, 4, 7], False), ([2, 5], False)]
        seen.clear()
        cut = T.chunks(10, 3)
        assert cut == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
        T.map_shares(share, cut)
        assert shares() == [([cut[0], cut[3]], True), ([cut[1]], False), ([cut[2]], False)]
        seen.clear()
        T.map_shares(share, range(1))
        assert shares() == [([0], True)]
        seen.clear()
        T.map_shares(share, range(0))
        T.map_shares(share, [])
        assert seen == []

    def test_a_map_inside_a_share_runs_in_that_share(self, monkeypatch):
        # with one pool thread, a nested map that waited on the pool would never return
        monkeypatch.setattr(T, "WORKERS", 2)
        monkeypatch.setattr(T, "_pool", None)
        seen = []

        def inner(items):
            seen.append((list(items), threading.current_thread()))

        def outer(items):
            T.map_shares(inner, range(2))
            outer_threads[items[0]] = threading.current_thread()

        outer_threads = {}
        caller = threading.Thread(target=T.map_shares, args=(outer, range(2)), daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert sorted(outer_threads) == [0, 1]
        assert outer_threads[0] is caller and outer_threads[1] is not caller
        for w in (0, 1):
            ran = [items for items, thread in seen if thread is outer_threads[w]]
            assert ran == [[0], [1]]

    def test_first_error_reaches_the_caller_after_every_share_finished(self, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", 4)
        finished = []

        def share(items):
            w = items[0]
            if w == 1:
                raise ValueError("share 1")
            time.sleep(0.05)
            finished.append(w)
            if w == 3:
                raise ValueError("share 3")

        with pytest.raises(ValueError, match="share 1"):
            T.map_shares(share, range(4))
        assert sorted(finished) == [0, 2, 3]


def test_only_tensor_names_the_worker_count():
    # a module that read the core count could give bits that depend on it
    src = Path(T.__file__).parent
    naming = [path.name for path in sorted(src.glob("*.py"))
              if re.search(r"\bWORKERS\b", path.read_text()) and path.name != "tensor.py"]
    assert naming == []


def argmax_oracle(x):
    """Row-major position of the first maximum of each 2x2 window, by scanning."""
    b, c, h, w = x.shape
    idx = np.zeros((b, c, h // 2, w // 2), dtype=int)
    for pos in np.ndindex(idx.shape):
        n, ch, y, xpos = pos
        best = -np.inf
        for p in range(4):
            v = x[n, ch, 2 * y + p // 2, 2 * xpos + p % 2]
            if v > best:
                best, idx[pos] = v, p
    return idx


def idx_scatter_oracle(x, dout):
    """The pool backward that kept an argmax: the lowest tied position of
    each window wins, then dout is scattered to it tap by tap."""
    taps = [x[:, :, p // 2::2, p % 2::2] for p in range(4)]
    out = np.max(taps, axis=0)
    idx = np.zeros(out.shape, dtype=np.intp)
    for p in reversed(range(len(taps))):
        np.copyto(idx, p, where=taps[p] == out)
    dx = np.empty(x.shape)
    for p in range(4):
        dx[:, :, p // 2::2, p % 2::2] = np.where(idx == p, dout, 0.0)
    return dx


def winners(x):
    """Row-major position inside each window that the backward routes to."""
    out = T.maxpool2d_batch(x)
    dx = T.maxpool2d_backward_batch(x, out, np.ones(out.shape))
    b, c, h, w = x.shape
    tiles = dx.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    tiles = tiles.reshape(*out.shape, 4)
    assert (tiles.sum(axis=-1) == 1.0).all()  # exactly one winner per window
    return tiles.argmax(axis=-1)


def relu_input_with_a_band(rng, shape):
    """ReLU'd normals with a constant positive band: tied zeros and tied positives."""
    x = np.maximum(rng.normal(size=shape), 0.0)
    x[:, :, 1:3, :] = 0.5
    return x


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(T.maxpool2d_batch(x), [[[[4.0]]]])
        assert winners(x)[0, 0, 0, 0] == 3  # row-major position (1, 1) inside the window

    def test_constant_invariance(self):
        out = maxpool_one(np.full((2, 4, 4), 7.0))
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 7.0))

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 4, 4))
        np.testing.assert_array_equal(maxpool_one(x), maxpool_oracle(x))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            maxpool_one(np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("x_shape, out_shape, dout_shape", [
        ((2, 3, 4, 4), (2, 3, 2, 2), (2, 3, 1, 1)),
        ((2, 3, 4, 4), (2, 3, 2, 2), (2, 3, 2)),
        ((2, 3, 4, 4), (1, 3, 2, 2), (2, 3, 2, 2)),
        ((2, 3, 4, 4), (2, 3, 2, 2), (4, 3, 2, 2)),
        ((2, 3, 5, 4), (2, 3, 2, 2), (2, 3, 2, 2)),
        ((3, 4, 4), (3, 2, 2), (3, 2, 2)),
    ], ids=["broadcast-dout", "dout-rank", "out-batch", "dout-batch", "odd-x", "x-rank"])
    def test_backward_refuses_operands_that_do_not_fit(self, x_shape, out_shape, dout_shape):
        with pytest.raises(ShapeError, match="maxpool2d"):
            T.maxpool2d_backward_batch(np.zeros(x_shape), np.zeros(out_shape), np.zeros(dout_shape))

    @pytest.mark.parametrize("x_shape", [(4, 4), (3, 4, 4), (1, 1, 3, 4, 4)])
    def test_forward_refuses_an_x_that_is_not_4d(self, x_shape):
        with pytest.raises(ShapeError, match=r"needs x \(B,C,H,W\)"):
            T.maxpool2d_batch(np.zeros(x_shape))

    def test_output_members_of_windows(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 6, 8))
        out = maxpool_one(x)
        for c in range(3):
            for y in range(3):
                for xx in range(4):
                    window = x[c, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2]
                    assert out[c, y, xx] in window

    def test_ties_go_to_lowest_position(self):
        # ReLU'd inputs hold many tied zeros, the case the layers produce
        rng = np.random.default_rng(13)
        x = np.maximum(rng.normal(size=(2, 3, 6, 12)), 0.0)
        out = T.maxpool2d_batch(x)
        np.testing.assert_array_equal(winners(x), argmax_oracle(x))
        for ch in range(3):
            np.testing.assert_array_equal(out[:, ch], maxpool_oracle(x[:, ch]))

    def test_backward_scatters_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = T.maxpool2d_batch(x)
        dout = np.array([[[[5.0]]]])
        dx = T.maxpool2d_backward_batch(x, out, dout)
        np.testing.assert_array_equal(dx, [[[[0.0, 0.0], [0.0, 5.0]]]])

    def test_backward_routes_each_window_once(self):
        rng = np.random.default_rng(12)
        x = np.maximum(rng.normal(size=(2, 3, 4, 6)), 0.0)
        out = T.maxpool2d_batch(x)
        dout = rng.normal(size=out.shape)
        dx = T.maxpool2d_backward_batch(x, out, dout)
        idx = argmax_oracle(x)
        want = np.zeros_like(x)
        for pos in np.ndindex(idx.shape):
            n, ch, y, xpos = pos
            p = idx[pos]
            want[n, ch, 2 * y + p // 2, 2 * xpos + p % 2] = dout[pos]
        np.testing.assert_array_equal(dx, want)

    def test_backward_bytes_equal_the_idx_scatter(self):
        rng = np.random.default_rng(32)
        x = relu_input_with_a_band(rng, (20, 3, 6, 12))
        out = T.maxpool2d_batch(x)
        # negative entries too: a -0.0 product would show up in the bytes
        dout = rng.normal(size=out.shape)
        dx = T.maxpool2d_backward_batch(x, out, dout)
        assert dx.tobytes() == idx_scatter_oracle(x, dout).tobytes()

    def test_a_nan_window_routes_no_gradient(self):
        x = np.array([[[[1.0, np.nan], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]]])
        out = T.maxpool2d_batch(x)
        assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 1, 0] == 4.0
        dx = T.maxpool2d_backward_batch(x, out, np.array([[[[5.0], [6.0]]]]))
        np.testing.assert_array_equal(dx, [[[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 6.0]]]])

    # batches 17 and 33 end on a short chunk of T.CHUNK = 16 images
    @pytest.mark.parametrize("batch", [1, 17, 33])
    def test_same_bytes_at_any_worker_count(self, batch, monkeypatch):
        rng = np.random.default_rng(40 + batch)
        x = relu_input_with_a_band(rng, (batch, 3, 8, 8))
        dout = rng.normal(size=(batch, 3, 4, 4))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "WORKERS", workers)
            out = T.maxpool2d_batch(x)
            results.append([out.tobytes(), T.maxpool2d_backward_batch(x, out, dout).tobytes()])
        assert results[1] == results[0] and results[2] == results[0]
        assert results[0][1] == idx_scatter_oracle(x, dout).tobytes()


def test_chunk_loops_keep_their_bytes_with_more_workers_than_cores(monkeypatch):
    # a chunk written by two shares, or a share that misses its chunk, changes the bytes
    rng = np.random.default_rng(50)
    x = relu_input_with_a_band(rng, (5 * T.CHUNK + 3, 2, 6, 6))
    kernels = rng.normal(size=(3, 2, 3, 3))
    dout = rng.normal(size=(len(x), 3, 6, 6))
    w = rng.normal(size=(2 * 6 * 6, 3 * T.PANEL + 5))

    def run():
        out = T.maxpool2d_batch(x)
        dx = T.maxpool2d_backward_batch(x, out, dout[:, :2, :3, :3])
        return [out.tobytes(), dx.tobytes(), T.conv2d_backward_batch(x, kernels, 1, dout)[1].tobytes(),
                T.matmul(x.reshape(len(x), -1), w).tobytes()]

    cores = T.WORKERS
    monkeypatch.setattr(T, "WORKERS", 1)
    want = run()
    monkeypatch.setattr(T, "WORKERS", 2 * cores + 1)
    monkeypatch.setattr(T, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(20):
            assert run() == want
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
        T._pool.shutdown(wait=True)


def relu(x):
    """nn.ReLU's forward, which writes over x."""
    return nn.ReLU().forward(x, cache=False)


def relu_backward(upstream, y):
    """nn.ReLU's backward after a forward over y, which it writes over."""
    layer = nn.ReLU()
    layer.forward(y, cache=True)
    return layer.backward(upstream, need_dx=True)


def softmax(z):
    """Softmax of a 1-d z, read back from nn.cross_entropy's gradient: probs = grad * b + onehot."""
    _, grad = nn.cross_entropy(z[None], np.array([0]))
    grad[0, 0] += 1.0
    return grad[0]


class TestReluSoftmaxNormAxpy:
    """ReLU and softmax live in their one caller, nn.ReLU and nn.cross_entropy; these reach them there."""

    def test_relu_examples(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(np.array([-3.0, -1.0])), [0.0, 0.0])
        x = np.array([-1.0, 0.5])
        assert relu(x) is x
        np.testing.assert_array_equal(x, [0.0, 0.5])

    def test_relu_backward_gate(self):
        np.testing.assert_array_equal(relu_backward(np.array([5.0]), np.array([3.0])), [5.0])
        np.testing.assert_array_equal(relu_backward(np.array([5.0]), np.array([-3.0])), [0.0])
        np.testing.assert_array_equal(relu_backward(np.array([5.0]), np.array([0.0])), [0.0])

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(10)), np.full(10, 0.1), atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=7)
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12)

    def test_softmax_frozen_values(self):
        # frozen from the direct exponential-sum oracle on [1, 2, 3]
        np.testing.assert_allclose(softmax(np.array([1.0, 2.0, 3.0])),
                                   [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_softmax_is_probability_vector(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(0, 10, size=rng.integers(2, 12))
            p = softmax(z)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-12

    def test_softmax_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_norm2(self):
        assert T.norm2(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert T.norm2(np.zeros((4, 4))) == 0.0
