"""Dense float64 array kernels underneath the layers: matmul, convolution,
2x2 max-pool and norm2, with the share machinery that spreads them over
the cores. The elementwise ReLU and softmax live in nn, their one caller.

All math in this package runs on C-contiguous float64 numpy arrays
(row-major, last index fastest). Image kernels take channel-first
batches (B, C, H, W). Convolution means cross-correlation (no kernel
flip), the convention the rest of the stack assumes, at one geometry:
an odd square kernel over an input zero-padded by (k - 1) // 2, so the
output keeps the input's size. The kernels fix the padding, so no conv
takes a pad argument. It is lowered to one matrix product per image over
that image's patch matrix (im2col, Chellapilla, Puri & Simard 2006).

`map_shares` spreads a sequence of independent items over the cores, every
loop in one shape: share w takes items w, w + WORKERS, ... and allocates
its own scratch, each item writes only its own slice of the output with
the same numpy calls in the same order as a serial loop, the map returns
only after every share has finished, and a share calls numpy only, never
a sadnet module attribute (so a wrapper installed on one, such as a
tracer, only ever runs on the calling thread). `chunks` cuts blocks from
the size alone, so results carry the same bits at any core count. Its
threads start at the first map that has two shares, so a process that
forks before then copies no worker. It runs Adam's blocks, the per-image
conv GEMMs, the column panels of `matmul` (panel blocking as in Goto &
van de Geijn, ACM TOMS 2008), and chunks of CHUNK images for max-pool
forward and backward and for the conv kernel gradient.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, ValidationError

Tensor = np.ndarray

# Shares per map: one per core this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Columns per panel of a wide matmul; 256 measured fastest for the MLP's products.
PANEL = 256
# Images per item of the max-pool loops and of the conv kernel gradient's sum.
CHUNK = 16
_pool: ThreadPoolExecutor | None = None
# in_share is True on a thread while it runs a share
_local = threading.local()


def map_shares(share, items: range | list[slice]) -> None:
    """Call share(items[w::WORKERS]) for every w whose share is not empty.

    The caller runs the first share itself and a persistent pool of
    WORKERS - 1 threads runs the others. The map returns only after every
    share has finished, then re-raises the first error in share order.
    With fewer than two shares, or when called from inside a share,
    everything runs in the caller, share by share.
    """
    global _pool
    workers = WORKERS
    shares = [items[w::workers] for w in range(min(workers, len(items)))]
    # a map inside a share stays in it: the pool's threads may all be waiting on this one
    if len(shares) < 2 or getattr(_local, "in_share", False):
        for part in shares:
            share(part)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="sadnet-share",
                                   initializer=_enter_share)
    futures = [_pool.submit(share, part) for part in shares[1:]]
    _local.in_share = True
    try:
        share(shares[0])
    finally:
        _local.in_share = False
        wait(futures)
    for future in futures:
        future.result()


def chunks(n: int, size: int) -> list[slice]:
    """Slices of size items covering range(n) in order; the last may be shorter."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _enter_share() -> None:
    # a pool thread only ever runs shares
    _local.in_share = True


def _forget_pool() -> None:
    # a forked child has none of the parent's threads; its first map starts its own
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def matmul(a: Tensor, b: Tensor, out: Tensor | None = None) -> Tensor:
    """Matrix product of a (m, k) and b (k, n), written into out and returned.

    The product is cut into column panels of PANEL columns (the last may be
    narrower), which map_shares spreads over the cores; each panel is one
    BLAS call, a @ b[:, cols], written into its own columns of out.
    A product at most PANEL wide is one call with the bits of a @ b. The
    cut depends on n alone, so the bits do not depend on the core count.
    out, when given, must be a float64 (m, n) array that shares no memory
    with a or b, such as a layer's gradient view; without it the product
    goes to a fresh array.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    shape = (a.shape[0], b.shape[1])
    if out is None:
        out = np.empty(shape, dtype=np.result_type(a, b))
    elif out.shape != shape or out.dtype != np.float64:
        raise ShapeError(f"matmul out must be float64 {shape} for {a.shape} x {b.shape}, "
                         f"got {out.dtype} {out.shape}")
    elif np.shares_memory(out, a) or np.shares_memory(out, b):
        raise ValidationError("matmul out must not share memory with an operand")

    def share(panels):
        for cols in panels:
            np.matmul(a, b[:, cols], out=out[:, cols])

    map_shares(share, chunks(b.shape[1], PANEL))
    return out


def conv2d_batch(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlate x (B, C, H, W) with kernels (O, C, k, k) into (B, O, H, W).

    k must be odd, and x is zero-padded by (k - 1) // 2, the module's one
    geometry; any other kernel raises ShapeError. Each image is one GEMM
    of the flattened kernels with its patch matrix (im2col).
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    o = _conv_out_shape(x, kernels)[1]
    if bias.shape != (o,):
        raise ShapeError(f"conv2d bias must be ({o},), got {bias.shape}")
    out = _correlate(x, kernels)
    out += bias[:, None, None]
    return out


def conv2d_backward_batch(x: Tensor, kernels: Tensor, need_dx: bool, dout: Tensor):
    """Gradients of conv2d_batch: returns (dx, dkernels, dbias), dx None unless need_dx.

    dout must have conv2d_batch's output shape for x and kernels.
    dkernels sums dout times the transposed patch matrix over the images:
    each chunk of CHUNK images sums its own in image order into its own
    partial, map_shares spreads the chunks over the cores, and the
    partials are then added in chunk order. The cut depends on the batch
    size alone, so the bits do not depend on the core count.
    dx is the transposed convolution (Dumoulin & Visin, arXiv:1603.07285),
    which at this geometry is the same-size convolution of dout with the
    kernels flipped in space and their two channel axes swapped.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    dout = np.asarray(dout)
    want = _conv_out_shape(x, kernels)
    if dout.shape != want:
        raise ShapeError(f"conv2d dout must be {want} for x {x.shape} and kernels {kernels.shape}, "
                         f"got {dout.shape}")
    b, o, h, w = want
    dbias = dout.sum(axis=(0, 2, 3))
    taps = _taps(x, kernels.shape[2])
    partials = np.zeros((-(-b // CHUNK), o, kernels[0].size))

    def share(images):
        buf = np.empty(taps.shape[1:])
        cols = buf.reshape(-1, h * w)
        for s in images:
            for n in range(s.start, s.stop):
                np.copyto(buf, taps[n])
                partials[s.start // CHUNK] += dout[n].reshape(o, h * w) @ cols.T

    map_shares(share, chunks(b, CHUNK))
    dk = partials[0]
    for partial in partials[1:]:
        dk += partial
    dx = _correlate(dout, kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) if need_dx else None
    return dx, dk.reshape(kernels.shape), dbias


def _conv_out_shape(x: Tensor, kernels: Tensor) -> tuple[int, int, int, int]:
    """conv2d_batch's output shape (B, O, H, W); ShapeError for operands that do not fit."""
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d needs x (B,C,H,W) and kernels (O,C,k,k), got {x.shape}, {kernels.shape}")
    b, c, h, w = x.shape
    o, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernels expect {ck}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got a {kh}x{kw} kernel")
    return b, o, h, w


def _correlate(x: Tensor, kernels: Tensor) -> Tensor:
    """Bias-free cross-correlation of x (B, C, H, W) with kernels (O, C, k, k).

    x is zero-padded by (k - 1) // 2 on each edge, so the output is
    (B, O, H, W). Each image is one GEMM of the flattened kernels with its
    patch matrix (im2col); the images are spread over the cores by
    map_shares, each share refilling its own patch buffer.
    """
    o = kernels.shape[0]
    taps = _taps(x, kernels.shape[2])
    b, h, w = taps.shape[0], *taps.shape[4:]
    k2 = kernels.reshape(o, -1)
    out = np.empty((b, o, h * w))

    def share(images):
        buf = np.empty(taps.shape[1:])
        cols = buf.reshape(-1, h * w)
        for n in images:
            np.copyto(buf, taps[n])
            np.matmul(k2, cols, out=out[n])

    map_shares(share, range(b))
    return out.reshape(b, o, h, w)


def _taps(x: Tensor, k: int) -> Tensor:
    """(B, C, k, k, H, W) view of x (B, C, H, W) zero-padded by (k - 1) // 2 for an odd k.

    Image n's (C*k*k, H*W) patch matrix is taps[n] copied into a
    contiguous buffer: row (c, i, j) holds padded channel c shifted by
    tap (i, j) at every output position.
    """
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(xp, (k, k), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)


def maxpool2d_batch(x: Tensor) -> Tensor:
    """Max over disjoint 2x2 windows of x (B, C, H, W).

    Position p = 2i + j of a window is the strided view x[:, :, i::2, j::2].
    The chunks of CHUNK images are spread over the cores by map_shares. A
    window that holds NaN pools to NaN.
    """
    x = np.asarray(x)
    b = _pool_out_shape(x)[0]
    taps = _window_taps(x)
    out = np.empty(taps[0].shape, dtype=x.dtype)

    def share(images):
        for n in images:
            np.copyto(out[n], taps[0][n])
            for tap in taps[1:]:
                np.maximum(out[n], tap[n], out=out[n])

    map_shares(share, chunks(b, CHUNK))
    return out


def maxpool2d_backward_batch(x: Tensor, out: Tensor, dout: Tensor) -> Tensor:
    """Route dout back to the winner of each window of maxpool2d_batch(x) = out.

    The winners are rebuilt from x and out, with no argmax kept: walking
    the positions in row-major order, position p takes the window's dout
    where x equals the window's max and no lower position has taken it,
    so ties go to the first (lowest) position. Every other entry of dx is
    0.0. A window that holds NaN routes no gradient; a NaN loss raises
    DivergenceError before any step, so no recorded run reads it. The
    chunks of CHUNK images are spread over the cores by map_shares.
    out and dout must both have maxpool2d_batch's output shape for x.
    """
    want = _pool_out_shape(x)
    if out.shape != want or dout.shape != want:
        raise ShapeError(f"maxpool2d out and dout must be {want} for x {x.shape}, "
                         f"got {out.shape} and {dout.shape}")
    dx = np.zeros(x.shape)
    # hit: x is the window's max and the window is still free; the shares fill their own chunks
    hit = np.empty(out.shape, dtype=bool)
    free = np.ones(out.shape, dtype=bool)
    pairs = list(zip(_window_taps(x), _window_taps(dx)))

    def share(images):
        for n in images:
            for x_tap, dx_tap in pairs:
                np.equal(x_tap[n], out[n], out=hit[n])
                np.logical_and(hit[n], free[n], out=hit[n])
                np.copyto(dx_tap[n], dout[n], where=hit[n])
                np.logical_xor(free[n], hit[n], out=free[n])

    map_shares(share, chunks(len(dx), CHUNK))
    return dx


def _pool_out_shape(x: Tensor) -> tuple[int, int, int, int]:
    """maxpool2d_batch's output shape (B, C, H/2, W/2); ShapeError for an x that does not fit."""
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"maxpool2d needs x (B,C,H,W) with even extents, got {x.shape}")
    b, c, h, w = x.shape
    return b, c, h // 2, w // 2


def _window_taps(x: Tensor) -> list[Tensor]:
    return [x[:, :, i::2, j::2] for i in range(2) for j in range(2)]


def norm2(t: Tensor) -> float:
    """Euclidean norm of the flattened array."""
    t = np.asarray(t)
    return float(np.sqrt(np.sum(t * t)))
