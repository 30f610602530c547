"""Dense float64 array kernels underneath every layer.

All math in this package runs on C-contiguous float64 numpy arrays
(row-major, last index fastest). Image kernels take channel-first
batches (B, C, H, W). Convolution means cross-correlation (no kernel
flip), the convention the rest of the stack assumes; it is lowered to
one matrix product per image over that image's patch matrix (im2col,
Chellapilla, Puri & Simard 2006).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

Tensor = np.ndarray


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m, k) and b (k, n)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def conv2d_batch(x: Tensor, kernels: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Cross-correlate x (B, C, H, W) with kernels (O, C, kh, kw).

    Zero padding of `pad` pixels on each spatial edge; output is
    (B, O, H + 2*pad - kh + 1, W + 2*pad - kw + 1). Each image is one GEMM
    of the flattened kernels with its patch matrix (im2col).
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d_batch needs x (B,C,H,W) and kernels (O,C,kh,kw), got {x.shape}, {kernels.shape}")
    b, c, h, w = x.shape
    o, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernels expect {ck}")
    if bias.shape != (o,):
        raise ShapeError(f"conv2d bias must be ({o},), got {bias.shape}")
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output extent {oh}x{ow} not positive for input {h}x{w}, kernel {kh}x{kw}, pad {pad}")
    out = _correlate(x, kernels, pad, pad)
    out += bias[:, None, None]
    return out


def conv2d_backward_batch(x: Tensor, kernels: Tensor, pad: int, dout: Tensor):
    """Gradients of conv2d_batch: returns (dx, dkernels, dbias).

    Per image, dkernels accumulates dout times the transposed patch matrix.
    dx is the transposed convolution (Dumoulin & Visin, arXiv:1603.07285):
    dout correlated with the kernels flipped in space and with their two
    channel axes swapped, at padding k - 1 - pad on each axis. A pad wider
    than k - 1 crops dout by the difference instead.
    """
    o, c, kh, kw = kernels.shape
    oh, ow = dout.shape[2:]
    dbias = dout.sum(axis=(0, 2, 3))
    dk = np.zeros((o, c * kh * kw), dtype=np.float64)
    for n, cols in _patch_matrices(x, pad, pad, kh, kw):
        dk += dout[n].reshape(o, oh * ow) @ cols.T
    ph, pw = kh - 1 - pad, kw - 1 - pad
    cy, cx = max(-ph, 0), max(-pw, 0)
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = _correlate(dout[:, :, cy:oh - cy, cx:ow - cx], flipped, max(ph, 0), max(pw, 0))
    return dx, dk.reshape(kernels.shape), dbias


def _correlate(x: Tensor, kernels: Tensor, ph: int, pw: int) -> Tensor:
    """Bias-free cross-correlation of x (B, C, H, W) with kernels (O, C, kh, kw).

    x is zero-padded by ph rows and pw columns on each edge. Each image is
    one GEMM of the flattened kernels with its patch matrix (im2col).
    """
    b, _, h, w = x.shape
    o, _, kh, kw = kernels.shape
    oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    k2 = kernels.reshape(o, -1)
    out = np.empty((b, o, oh * ow), dtype=np.float64)
    for n, cols in _patch_matrices(x, ph, pw, kh, kw):
        np.matmul(k2, cols, out=out[n])
    return out.reshape(b, o, oh, ow)


def _patch_matrices(x: Tensor, ph: int, pw: int, kh: int, kw: int):
    """Yield (n, cols) for each image of x (B, C, H, W) zero-padded by ph rows and pw columns.

    cols is the (C*kh*kw, oh*ow) patch matrix of image n: row (c, i, j)
    holds padded channel c shifted by tap (i, j) at every output position.
    One buffer is refilled for each image, so only one image's patches
    are ever held; consume cols before advancing.
    """
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    b, c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    taps = sliding_window_view(xp, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    buf = np.empty((c, kh, kw, oh, ow), dtype=np.float64)
    cols = buf.reshape(c * kh * kw, oh * ow)
    for n in range(b):
        np.copyto(buf, taps[n])
        yield n, cols


def maxpool2d_batch(x: Tensor, window: int):
    """Max over disjoint window x window tiles of x (B, C, H, W).

    Returns (pooled, idx) where idx holds the row-major position of the
    winner inside each window (0 .. window**2 - 1), as needed to route
    gradients back. Ties go to the first (lowest) position. Position p is
    the strided view x[:, :, p // window::window, p % window::window].
    """
    x = np.asarray(x)
    b, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"maxpool2d needs extents divisible by {window}, got {h}x{w}")
    taps = _window_taps(x, window)
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    idx = np.zeros(out.shape, dtype=np.intp)
    # descending, so the lowest tied position is written last and wins
    for p in reversed(range(len(taps))):
        np.copyto(idx, p, where=taps[p] == out)
    return out, idx


def maxpool2d_backward_batch(idx: Tensor, dout: Tensor, window: int, in_shape) -> Tensor:
    """Scatter dout back to the argmax positions recorded by maxpool2d_batch."""
    dx = np.empty(in_shape, dtype=np.float64)
    for p, tap in enumerate(_window_taps(dx, window)):
        tap[...] = np.where(idx == p, dout, 0.0)
    return dx


def _window_taps(x: Tensor, window: int) -> list[Tensor]:
    return [x[:, :, p // window::window, p % window::window] for p in range(window * window)]


def relu(x: Tensor) -> Tensor:
    return np.maximum(np.asarray(x), 0.0)


def relu_backward(upstream: Tensor, x: Tensor) -> Tensor:
    """Pass upstream where x > 0, zero elsewhere (gradient at 0 is 0)."""
    return np.where(np.asarray(x) > 0.0, upstream, 0.0)


def softmax(logits: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis` (max subtracted before exponentiation)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def norm2(t: Tensor) -> float:
    """Euclidean norm of the flattened array."""
    t = np.asarray(t)
    return float(np.sqrt(np.sum(t * t)))
