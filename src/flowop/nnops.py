"""Minimal differentiable compute core for the trajectory operator.

A small reverse-mode tape over numpy arrays, with exactly the primitives
the operator network needs: pointwise affines, leaky ReLU, truncated
temporal DFTs with arbitrary-position evaluation, per-mode kernel
products, the spectral convolution built from them, and a weighted
l1 loss. Every tensor is float64: a spectral kernel holds interleaved
(Re, Im) pairs, and mode coefficients hold [Re | Im] columns.

Inside a `workspace()` scope, while the tape records, every array that a
node's value, a backward rule or a gradient sum needs comes from `empty`,
which reuses the scope's arrays that nothing refers to any more. A loop
that drops each pass's graph before it builds the next one therefore
allocates these arrays in its first pass only. `backward` drops each
inner node's gradient once its rule has run, so a pass holds the
gradients of a few nodes at a time besides those of the leaves. The tape's
state is per thread: threads that record at once each enter a scope of
their own, over a workspace of their own.
"""
from __future__ import annotations

import contextlib
import math
import sys
import threading

import numpy as np


class _TapeState(threading.local):
    recording = True
    workspace = None


_TAPE = _TapeState()


class Workspace:
    """A pool of arrays, grouped by size and dtype. `take` hands out one that
    nothing outside the pool refers to any more, else a new one, so no array
    that something can still read is ever written into. One thread uses a
    pool at a time.

    New arrays are cut in turn from the pool's own block of SLAB bytes while
    it lasts, then allocated one by one. The block is just over glibc's 32 MiB
    cap on its dynamic mmap threshold, so each block is mapped afresh and
    leaves the heap's thresholds as they were; it faults in only the pages
    its arrays touch, in few faults since numpy asks for huge pages on
    blocks of 4 MiB or more."""

    SLAB = 32 << 20

    def __init__(self):
        self._pool: dict[tuple, list[np.ndarray]] = {}
        self._rest = memoryview(np.empty(self.SLAB, np.uint8))  # the block's uncut bytes

    def take(self, shape, dtype) -> np.ndarray:
        shape, dtype = tuple(shape), np.dtype(dtype)
        size = math.prod(shape)
        arrays = self._pool.setdefault((size, dtype), [])
        for i in range(len(arrays)):
            # a free array is referred to by the list and the argument only:
            # every view of it refers to it as its base (an array cut from
            # the block has the block's memoryview as its own base, where
            # numpy stops collapsing a view's chain of bases)
            if sys.getrefcount(arrays[i]) == 2:
                return arrays[i].reshape(shape)
        nbytes = size * dtype.itemsize
        if nbytes <= len(self._rest):
            arrays.append(np.frombuffer(self._rest[:nbytes], dtype))
            self._rest = self._rest[-(-nbytes // 64) * 64:]  # 64-byte aligned cuts
        else:
            arrays.append(np.empty(size, dtype))
        return arrays[-1].reshape(shape)


@contextlib.contextmanager
def workspace(ws: Workspace | None = None):
    """Scope whose recorded ops, backward passes and `empty` calls take their
    arrays from `ws`, else from one new Workspace whose arrays are dropped
    when the scope ends."""
    prev = _TAPE.workspace
    _TAPE.workspace = Workspace() if ws is None else ws
    try:
        yield
    finally:
        _TAPE.workspace = prev


def empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised array: from the active workspace while the tape
    records, else a fresh one."""
    ws = _TAPE.workspace
    if ws is None or not _TAPE.recording:
        return np.empty(shape, dtype)
    return ws.take(shape, dtype)


@contextlib.contextmanager
def no_record():
    """Scope in which ops build no graph: their outputs have no parents
    and no backward rule, so each intermediate is freed once consumed."""
    prev = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = prev


class Tensor:
    """Node in the computation graph; leaves are created with `param`."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        if _TAPE.recording:
            self._parents = parents
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.ndim != 0:
            raise ValueError("backward() needs a scalar loss")
        topo = []
        _postorder(self, set(), topo)
        for node in topo:
            node.grad = None
        self.grad = np.ones((), dtype=float)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                else:   # into a new array: add's two parents share one g
                    acc = parent.grad
                    parent.grad = np.add(acc, g, out=empty(
                        np.broadcast_shapes(acc.shape, g.shape), np.result_type(acc, g)))
            node.grad = None    # an inner node's gradient is spent


def _postorder(node: Tensor, seen: set, topo: list) -> None:
    """Append node's unseen ancestors, then node, to topo. Not a closure: a
    recursive closure is a reference cycle, which would keep each graph's
    values and gradients alive after backward() until the cyclic collector
    runs."""
    if id(node) in seen:
        return
    seen.add(id(node))
    for p in node._parents:
        _postorder(p, seen, topo)
    topo.append(node)


def param(value) -> Tensor:
    return Tensor(np.asarray(value))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.sum(g, axis=tuple(range(extra)), out=empty(g.shape[extra:], g.dtype))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = np.sum(g, axis=axes, keepdims=True, out=empty(shape, g.dtype))
    return g


def _result(out, shape, dtype) -> np.ndarray:
    """The array an op writes its result into: `empty`'s, or the caller's
    C-contiguous `out`. A recorded node keeps its value for the backward
    pass, so `out` is accepted only while the tape is off."""
    if out is None:
        return empty(shape, dtype)
    if _TAPE.recording:
        raise ValueError("out= is only accepted under no_record()")
    if out.shape != tuple(shape) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {tuple(shape)} array")
    return out


def add(a: Tensor, b: Tensor, out=None) -> Tensor:
    """a + b with broadcasting; `out` may be a's or b's own array."""
    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    res = _result(out, np.broadcast_shapes(a.shape, b.shape),
                  np.result_type(a.value, b.value))
    return Tensor(np.add(a.value, b.value, out=res), (a, b), bw)


def affine_pointwise(W: Tensor, b: Tensor, u: Tensor, out=None) -> Tensor:
    """Row-wise affine map: each trailing-axis vector goes through W x + b.
    `out` must not overlap u."""
    if W.value.shape[1] != u.value.shape[-1] or b.value.shape[0] != W.value.shape[0]:
        raise ValueError("affine shape mismatch")
    # one GEMM over all leading axes; numpy's stacked matmul would run one
    # small GEMM per leading index
    rows = u.value.reshape(-1, u.value.shape[-1])
    res = _result(out, (*u.value.shape[:-1], W.value.shape[0]),
                  np.result_type(rows, W.value))
    out = np.matmul(rows, W.value.T, out=res.reshape(-1, W.value.shape[0]))
    out += b.value          # in place: a fresh large array costs page faults

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        gW = np.matmul(g2.T, rows, out=empty(W.value.shape))
        gb = np.sum(g2, axis=0, out=empty(b.value.shape))
        gu = empty(u.value.shape)
        np.matmul(g2, W.value, out=gu.reshape(rows.shape))
        return gW, gb, gu

    return Tensor(res, (W, b, u), bw)


def leaky_relu(u: Tensor, slope: float = 0.01, out=None) -> Tensor:
    """max(u, slope*u); a leaky ReLU for 0 <= slope < 1. `out` must not
    overlap u."""
    out = np.multiply(u.value, slope,
                      out=_result(out, u.value.shape, np.result_type(u.value, slope)))
    np.maximum(u.value, out, out=out)

    def bw(g):
        # float(): an integer slope would make an integer mask
        mask = np.maximum(np.greater_equal(u.value, 0, out=empty(u.value.shape, bool)),
                          float(slope), out=empty(u.value.shape))
        mask *= g
        return (mask,)

    return Tensor(out, (u,), bw)


def _re_im_rows(Z: np.ndarray) -> np.ndarray:
    """(J, ...) complex -> (2J, ...) real rows Re Z_0, Im Z_0, Re Z_1, ..."""
    return np.stack([Z.real, Z.imag], axis=1).reshape(2 * Z.shape[0], *Z.shape[1:])


def _dft_basis(J: int, positions: np.ndarray, M: int) -> np.ndarray:
    """Forward basis F[j, i] = (M/Q) exp(-2i*pi*j*q_i/M) over index positions q_i.

    At the integer grid positions 0..M-1 this is the standard truncated
    DFT matrix; at fractional positions it is the quadrature analogue
    used for resolution-free evaluation.
    """
    j = np.arange(J)[:, None]
    q = np.asarray(positions, dtype=float)[None, :]
    return (M / q.shape[1]) * np.exp(-2j * np.pi * j * q / M)


def _along_time(u: Tensor, A: np.ndarray, shape, out=None) -> Tensor:
    """Both Fourier transforms: a fixed real (P, R) matrix along time. u's trailing
    two axes, read in C order as (R, c) blocks, map to the (P, c) blocks of `shape`."""
    uv = u.value
    P, R = A.shape
    c = math.prod(uv.shape[-2:]) // R
    out = _result(out, shape, float)
    np.matmul(A, uv.reshape(-1, R, c), out=out.reshape(-1, P, c))

    def bw(g):
        gu = empty(uv.shape)
        np.matmul(A.T, g.reshape(-1, P, c), out=gu.reshape(-1, R, c))
        return (gu,)

    return Tensor(out, (u,), bw)


def dft_at_positions(u: Tensor, J: int, positions, M: int) -> Tensor:
    """Truncated forward transform of real (..., Q, C) features sampled at
    index positions of an M-point grid: (..., J, 2C) [Re | Im] mode columns."""
    return _along_time(u, _re_im_rows(_dft_basis(J, positions, M)),
                       (*u.shape[:-2], J, 2 * u.shape[-1]))


def _mode_blocks(Rv: np.ndarray) -> np.ndarray:
    """(J, K, 2C) kernel of (Re, Im) pairs -> (J, 2C, 2K) real blocks in an
    `empty` array, W[j] = [[Re R_j^T, Im R_j^T], [-Im R_j^T, Re R_j^T]], which
    map the columns (Re u_hat_j | Im u_hat_j) of mode j to (Re out_j | Im out_j)."""
    re, im = Rv[..., 0::2].transpose(0, 2, 1), Rv[..., 1::2].transpose(0, 2, 1)
    J, C, K = re.shape
    W = empty((J, 2, C, 2, K))
    W[:, 0, :, 0] = W[:, 1, :, 1] = re
    W[:, 0, :, 1] = im
    np.negative(im, out=W[:, 1, :, 0])
    return W.reshape(J, 2 * C, 2 * K)


def mode_multiply(R: Tensor, u_hat: Tensor, matrix=None) -> Tensor:
    """Per-mode product out[j,k] = sum_l R[j,k,l] u_hat[j,l] of a (J, K, 2C)
    kernel of (Re, Im) pairs and (..., J, 2C) [Re | Im] columns: (..., J, 2K)
    columns. `matrix` is R's prebuilt `_mode_blocks`, if the caller has it."""
    uv = u_hat.value
    J, K, C2 = R.value.shape
    if (J, C2) != uv.shape[-2:] or C2 % 2:
        raise ValueError("kernel/coefficient shape mismatch")
    W = _mode_blocks(R.value) if matrix is None else matrix
    x = uv.reshape(-1, J, C2)
    y = empty((x.shape[0], J, 2 * K))
    np.matmul(x.transpose(1, 0, 2), W, out=y.transpose(1, 0, 2))

    def bw(g):
        gy = g.reshape(-1, J, 2 * K).transpose(1, 0, 2)
        gx = empty(x.shape)
        np.matmul(gy, W.transpose(0, 2, 1), out=gx.transpose(1, 0, 2))
        gW = np.matmul(x.transpose(1, 2, 0), gy, out=empty((J, C2, 2 * K)))
        gW = gW.reshape(J, 2, -1, 2, K)                            # (J, 2, C, 2, K)
        gR = empty(R.value.shape)
        gRT = gR.reshape(J, K, -1, 2).transpose(0, 2, 1, 3)        # (J, C, K, 2)
        np.add(gW[:, 0, :, 0], gW[:, 1, :, 1], out=gRT[..., 0])    # grad of Re R^T
        np.subtract(gW[:, 0, :, 1], gW[:, 1, :, 0], out=gRT[..., 1])  # grad of Im R^T
        return gR, gx.reshape(uv.shape)

    return Tensor(y.reshape(*uv.shape[:-1], 2 * K), (R, u_hat), bw)


def _idft_basis(J: int, M: int, queries: np.ndarray) -> np.ndarray:
    """Inverse basis B[j, q] with one-sided mode weights and 1/M normalization."""
    c = np.full(J, 2.0)
    c[0] = 1.0
    if M % 2 == 0 and J - 1 == M // 2:
        c[-1] = 1.0
    j = np.arange(J)[:, None]
    q = np.asarray(queries, dtype=float)[None, :]
    return (c[:, None] / M) * np.exp(2j * np.pi * j * q / M)


def idft_at(u_hat: Tensor, M: int, queries, out=None) -> Tensor:
    """Real trigonometric interpolant of one-sided modes, given as (..., J, 2K)
    [Re | Im] columns, at (fractional) index positions: (..., Q, K). At the
    full integer grid with maximal J this is the exact inverse DFT."""
    Bs = _re_im_rows(np.conj(_idft_basis(u_hat.shape[-2], M, queries))).T    # (Q, 2J)
    return _along_time(u_hat, Bs, (*u_hat.shape[:-2], len(Bs), u_hat.shape[-1] // 2), out=out)


def _dense_spectral_map(Q: int, J: int) -> bool:
    """Whether spectral_conv applies its dense map at Q positions and J modes.

    Per sample the dense map costs 2 Q^2 C K flops and the factored path's
    per-mode product 8 J C K. The dense map runs as one large GEMM, about
    twice as efficient as the factored path's batched small matmuls, so it
    is the faster path while Q^2 < 8J (Q <= 4 at J = 3).
    """
    return Q * Q < 8 * J


def _pair_basis(J: int, positions: np.ndarray, M: int) -> np.ndarray:
    """(Q*Q, 2J) real columns of conj P, P[(m, n), j] = F[j, m] B[j, n]."""
    F = _dft_basis(J, positions, M)                           # (J, Q)
    B = _idft_basis(J, M, positions)                          # (J, Q)
    P = (F[:, :, None] * B[:, None, :]).reshape(J, -1)
    return _re_im_rows(np.conj(P)).T


def _copy(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of `a` in an `empty` array."""
    out = empty(a.shape, a.dtype)
    np.copyto(out, a)
    return out


def _dense_map(Rv: np.ndarray, positions: np.ndarray, M: int) -> np.ndarray:
    """The dense real (Q*C, Q*K) map of spectral_conv for kernel Rv (J, K, 2C)."""
    J, K, C = Rv.shape[0], Rv.shape[1], Rv.shape[2] // 2
    Q = positions.size
    rows = _copy(Rv.reshape(J, K, C, 2).transpose(0, 3, 1, 2)).reshape(2 * J, K * C)
    T = np.matmul(_pair_basis(J, positions, M), rows, out=empty((Q * Q, K * C)))
    return _copy(T.reshape(Q, Q, K, C).transpose(0, 3, 1, 2)).reshape(Q * C, Q * K)


def spectral_matrix(R: Tensor, positions, M: int) -> np.ndarray:
    """The matrix spectral_conv applies for kernel R at these positions: its
    dense map, or mode_multiply's real blocks. It depends on neither the
    rows nor the tape, so one build serves every row block of a call."""
    positions = np.asarray(positions, dtype=float)
    if _dense_spectral_map(positions.size, R.value.shape[0]):
        return _dense_map(R.value, positions, M)
    return _mode_blocks(R.value)


def spectral_conv(R: Tensor, u: Tensor, positions, M: int, matrix=None, out=None) -> Tensor:
    """idft_at(mode_multiply(R, dft_at_positions(u, J, positions, M)), M,
    positions): (..., Q, C) -> (..., Q, K) for R (J, K, 2C).

    For small Q (see _dense_spectral_map) the branch is applied as one dense
    real (Q*C, Q*K) map per sample, T[m,l,n,k] = Re sum_j F[j,m] R[j,k,l] B[j,n].
    The map grows as Q^2, so for larger Q (dense queries) the three ops run
    in turn. `matrix` is `spectral_matrix(R, positions, M)`, if the caller
    has it; the path follows its rank. `out` must not overlap u.
    """
    Rv, uv = R.value, u.value
    J, K, C = Rv.shape[0], Rv.shape[1], Rv.shape[2] // 2
    positions = np.asarray(positions, dtype=float)
    Q = positions.size
    if Rv.shape[2] != 2 * C or uv.shape[-2:] != (Q, C):
        raise ValueError("kernel/feature shape mismatch")
    T = spectral_matrix(R, positions, M) if matrix is None else matrix
    if T.ndim == 3:     # mode_multiply's blocks
        u_hat = mode_multiply(R, dft_at_positions(u, J, positions, M), matrix=T)
        return idft_at(u_hat, M, positions, out=out)

    rows = uv.reshape(-1, Q * C)
    out = _result(out, (*uv.shape[:-2], Q, K), float)
    np.matmul(rows, T, out=out.reshape(-1, Q * K))

    def bw(g):
        g2 = g.reshape(-1, Q * K)
        gu = empty(uv.shape)
        np.matmul(g2, T.T, out=gu.reshape(rows.shape))
        gT = np.matmul(rows.T, g2, out=empty((Q * C, Q * K)))
        gT = _copy(gT.reshape(Q, C, Q, K).transpose(0, 2, 3, 1)).reshape(Q * Q, K * C)
        gR = np.matmul(_pair_basis(J, positions, M).T, gT, out=empty((2 * J, K * C)))
        return _copy(gR.reshape(J, 2, K, C).transpose(0, 2, 3, 1)).reshape(Rv.shape), gu

    return Tensor(out, (R, u), bw)


def time_embedding(t, E: int) -> np.ndarray:
    """Sinusoidal embedding [sin(w_k t), cos(w_k t)] with log-spaced w_k of
    a time, (E,), or of a 1-D array of times, (Q, E)."""
    if E < 2 or E % 2 != 0:
        raise ValueError("embedding width must be even and >= 2")
    half = E // 2
    omega = np.exp(-np.arange(half) * math.log(1e4) / max(half - 1, 1))
    wt = np.multiply.outer(t, omega)
    return np.concatenate([np.sin(wt), np.cos(wt)], axis=-1)


def weighted_l1(pred: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """(1/M) sum_m w_m * |pred - target|_1, averaged over any batch axes."""
    target = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
    if pred.value.shape != target.shape or w.shape[0] != pred.value.shape[-2]:
        raise ValueError("loss shape mismatch")
    diff = pred.value - target
    M = w.shape[0]
    nbatch = int(np.prod(pred.value.shape[:-2], dtype=int))
    norm = M * max(nbatch, 1)
    out = np.sum(w[:, None] * np.abs(diff)) / norm

    def bw(g):
        return (g * np.sign(diff) * w[:, None] / norm,)

    return Tensor(np.asarray(out), (pred,), bw)
