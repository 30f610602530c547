"""Dense float64 array kernels underneath every layer.

All math in this package runs on C-contiguous float64 numpy arrays
(row-major, last index fastest). Image kernels take channel-first
batches (B, C, H, W). Convolution means cross-correlation (no kernel
flip), the convention the rest of the stack assumes; it is lowered to
one matrix product per image over that image's patch matrix (im2col,
Chellapilla, Puri & Simard 2006).

`map_shares` spreads a loop of independent items over the cores. Its
rules: the shares are fixed by the item index alone (share w takes items
w, w + WORKERS, ...), each item runs the same numpy calls in the same
order as in a serial loop, the map returns only after every share has
finished, and a share calls numpy only, never a sadnet module attribute
(so a wrapper installed on one, such as a tracer, only ever runs on the
calling thread). Results therefore carry the same bits at any core
count. Its threads start at the first map that has two shares, so a
process that forks before then copies no worker. Three loops use it:
Adam's blocks, the per-image conv GEMMs and the column panels of a wide
`matmul` (panel blocking as in Goto & van de Geijn, ACM TOMS 2008).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

Tensor = np.ndarray

# Shares per map: one per core this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Columns per panel of a wide matmul; 256 measured fastest for the MLP's products.
PANEL = 256
_pool: ThreadPoolExecutor | None = None
# in_share is True on a thread while it runs a share
_local = threading.local()


def map_shares(share, items: int) -> None:
    """Call share(w, range(w, items, WORKERS)) for every w whose range is not empty.

    The caller runs share 0 itself and a persistent pool of WORKERS - 1
    threads runs the others. The map returns only after every share has
    finished, then re-raises the first error in share order. With fewer
    than two non-empty shares, or when called from inside a share,
    everything runs in the caller, share by share.
    """
    global _pool
    workers = WORKERS
    shares = [(w, range(w, items, workers)) for w in range(min(workers, items))]
    # a map inside a share stays in it: the pool's threads may all be waiting on this one
    if len(shares) < 2 or getattr(_local, "in_share", False):
        for w, indices in shares:
            share(w, indices)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="sadnet-share",
                                   initializer=_enter_share)
    futures = [_pool.submit(share, w, indices) for w, indices in shares[1:]]
    _local.in_share = True
    try:
        share(*shares[0])
    finally:
        _local.in_share = False
        wait(futures)
    for future in futures:
        future.result()


def _enter_share() -> None:
    # a pool thread only ever runs shares
    _local.in_share = True


def _forget_pool() -> None:
    # a forked child has none of the parent's threads; its first map starts its own
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m, k) and b (k, n).

    A product at least 2 * PANEL columns wide is cut into column panels of
    PANEL columns (the last may be narrower), which map_shares spreads over
    the cores; panel i is one BLAS call, a @ b[:, i*PANEL:(i+1)*PANEL]. The
    cut depends on n alone, so the bits do not depend on the core count.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    n, panel = b.shape[1], PANEL
    if n < 2 * panel:
        # one call: a narrower product has fewer than two full panels, and a split
        # by rows would change the bits of the logits layer's 128x512 @ 512x10
        return a @ b
    out = np.empty((a.shape[0], n), dtype=np.result_type(a, b))

    def share(_, panels):
        for i in panels:
            cols = slice(i * panel, (i + 1) * panel)
            np.matmul(a, b[:, cols], out=out[:, cols])

    map_shares(share, -(-n // panel))
    return out


def conv2d_batch(x: Tensor, kernels: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Cross-correlate x (B, C, H, W) with kernels (O, C, kh, kw).

    Zero padding of `pad` pixels on each spatial edge; output is
    (B, O, H + 2*pad - kh + 1, W + 2*pad - kw + 1). Each image is one GEMM
    of the flattened kernels with its patch matrix (im2col).
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    o = _conv_out_shape(x, kernels, pad)[1]
    if bias.shape != (o,):
        raise ShapeError(f"conv2d bias must be ({o},), got {bias.shape}")
    out = _correlate(x, kernels, pad, pad)
    out += bias[:, None, None]
    return out


def conv2d_backward_batch(x: Tensor, kernels: Tensor, pad: int, dout: Tensor):
    """Gradients of conv2d_batch: returns (dx, dkernels, dbias).

    dout must have conv2d_batch's output shape for x, kernels and pad.
    Per image, dkernels accumulates dout times the transposed patch matrix.
    dx is the transposed convolution (Dumoulin & Visin, arXiv:1603.07285):
    dout correlated with the kernels flipped in space and with their two
    channel axes swapped, at padding k - 1 - pad on each axis. A pad wider
    than k - 1 crops dout by the difference instead.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    dout = np.asarray(dout)
    want = _conv_out_shape(x, kernels, pad)
    if dout.shape != want:
        raise ShapeError(f"conv2d dout must be {want} for x {x.shape}, kernels {kernels.shape} "
                         f"and pad {pad}, got {dout.shape}")
    b, o, oh, ow = want
    kh, kw = kernels.shape[2:]
    dbias = dout.sum(axis=(0, 2, 3))
    # serial: the order of this sum over images fixes dkernels' bits
    taps = _taps(x, pad, pad, kh, kw)
    buf = np.empty(taps.shape[1:])
    cols = buf.reshape(-1, oh * ow)
    dk = np.zeros((o, cols.shape[0]))
    for n in range(b):
        np.copyto(buf, taps[n])
        dk += dout[n].reshape(o, oh * ow) @ cols.T
    ph, pw = kh - 1 - pad, kw - 1 - pad
    cy, cx = max(-ph, 0), max(-pw, 0)
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = _correlate(dout[:, :, cy:oh - cy, cx:ow - cx], flipped, max(ph, 0), max(pw, 0))
    return dx, dk.reshape(kernels.shape), dbias


def _conv_out_shape(x: Tensor, kernels: Tensor, pad: int) -> tuple[int, int, int, int]:
    """conv2d_batch's output shape (B, O, oh, ow); ShapeError for operands that do not fit."""
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d needs x (B,C,H,W) and kernels (O,C,kh,kw), got {x.shape}, {kernels.shape}")
    b, c, h, w = x.shape
    o, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernels expect {ck}")
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output extent {oh}x{ow} not positive for input {h}x{w}, kernel {kh}x{kw}, pad {pad}")
    return b, o, oh, ow


def _correlate(x: Tensor, kernels: Tensor, ph: int, pw: int) -> Tensor:
    """Bias-free cross-correlation of x (B, C, H, W) with kernels (O, C, kh, kw).

    x is zero-padded by ph rows and pw columns on each edge. Each image is
    one GEMM of the flattened kernels with its patch matrix (im2col); the
    images are spread over the cores by map_shares, each share refilling
    its own patch buffer.
    """
    o = kernels.shape[0]
    taps = _taps(x, ph, pw, *kernels.shape[2:])
    b, oh, ow = taps.shape[0], *taps.shape[4:]
    k2 = kernels.reshape(o, -1)
    out = np.empty((b, o, oh * ow))

    def share(_, images):
        buf = np.empty(taps.shape[1:])
        cols = buf.reshape(-1, oh * ow)
        for n in images:
            np.copyto(buf, taps[n])
            np.matmul(k2, cols, out=out[n])

    map_shares(share, b)
    return out.reshape(b, o, oh, ow)


def _taps(x: Tensor, ph: int, pw: int, kh: int, kw: int) -> Tensor:
    """(B, C, kh, kw, oh, ow) view of x (B, C, H, W) zero-padded by ph rows and pw columns.

    Image n's (C*kh*kw, oh*ow) patch matrix is taps[n] copied into a
    contiguous buffer: row (c, i, j) holds padded channel c shifted by
    tap (i, j) at every output position.
    """
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    return sliding_window_view(xp, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)


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
    """max(x, 0) written over x in place; returns x."""
    x = np.asarray(x)
    return np.maximum(x, 0.0, out=x)


def relu_backward(upstream: Tensor, y: Tensor) -> Tensor:
    """Pass upstream where y > 0, zero elsewhere (gradient at 0 is 0).

    y may be relu's input or its output: max(x, 0) > 0 exactly where x > 0.
    """
    return np.where(np.asarray(y) > 0.0, upstream, 0.0)


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
