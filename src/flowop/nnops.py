"""Minimal differentiable compute core for the trajectory operator.

A small reverse-mode tape over numpy arrays, with exactly the primitives
the operator network needs: pointwise affines, leaky ReLU, truncated
temporal DFTs with arbitrary-position evaluation, complex per-mode kernel
products, the spectral convolution built from them, and a weighted
l1 loss. Complex tensors carry gradients in the dL/dRe + i*dL/dIm
convention. Everything runs in double precision.
"""
from __future__ import annotations

import contextlib
import math
import threading

import numpy as np


class _TapeState(threading.local):
    recording = True


_TAPE = _TapeState()


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
                parent.grad = g if parent.grad is None else parent.grad + g


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
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _result(out, shape, dtype) -> np.ndarray:
    """The array an op writes its result into: a fresh one, or the caller's
    C-contiguous `out`. A recorded node keeps its value for the backward
    pass, so `out` is accepted only while the tape is off."""
    if out is None:
        return np.empty(shape, dtype)
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
        gW = g2.T @ rows
        gb = g2.sum(axis=0)
        gu = (g2 @ W.value).reshape(u.value.shape)
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
        mask = np.maximum(u.value >= 0, float(slope))
        mask *= g
        return (mask,)

    return Tensor(out, (u,), bw)


def _re_im_rows(Z: np.ndarray) -> np.ndarray:
    """(J, ...) complex -> (2J, ...) real rows Re Z_0, Im Z_0, Re Z_1, ..."""
    return np.stack([Z.real, Z.imag], axis=1).reshape(2 * Z.shape[0], *Z.shape[1:])


def _re_im_cols(Z: np.ndarray) -> np.ndarray:
    """(..., C) complex -> (..., 2C) real: Re | Im along the last axis."""
    return np.concatenate([Z.real, Z.imag], axis=-1)


def _from_re_im_cols(X: np.ndarray) -> np.ndarray:
    """Inverse of _re_im_cols; the parts are copied exactly."""
    out = np.empty((*X.shape[:-1], X.shape[-1] // 2), dtype=complex)
    out.real, out.imag = np.split(X, 2, axis=-1)
    return out


def _dft_basis(J: int, positions: np.ndarray, M: int) -> np.ndarray:
    """Forward basis F[j, i] = (M/Q) exp(-2i*pi*j*q_i/M) over index positions q_i.

    At the integer grid positions 0..M-1 this is the standard truncated
    DFT matrix; at fractional positions it is the quadrature analogue
    used for resolution-free evaluation.
    """
    j = np.arange(J)[:, None]
    q = np.asarray(positions, dtype=float)[None, :]
    return (M / q.shape[1]) * np.exp(-2j * np.pi * j * q / M)


def dft_at_positions(u: Tensor, J: int, positions, M: int) -> Tensor:
    """Truncated forward transform of real (..., Q, C) features sampled at
    the given index positions of an M-point grid; returns (..., J, C)."""
    Fs = _re_im_rows(_dft_basis(J, positions, M))             # (2J, Q)
    uv = u.value
    Q, C = uv.shape[-2:]
    y = (Fs @ uv.reshape(-1, Q, C)).reshape(*uv.shape[:-2], J, 2 * C)

    def bw(g):
        gy = _re_im_cols(g).reshape(-1, 2 * J, C)
        return ((Fs.T @ gy).reshape(uv.shape),)

    return Tensor(_from_re_im_cols(y), (u,), bw)


def _mode_blocks(Rv: np.ndarray) -> np.ndarray:
    """(J, K, C) complex kernel -> (J, 2C, 2K) real blocks
    W[j] = [[Re R_j^T, Im R_j^T], [-Im R_j^T, Re R_j^T]], which map the real
    pair (Re u_hat_j | Im u_hat_j) of mode j to (Re out_j | Im out_j)."""
    Rt = Rv.transpose(0, 2, 1)                                # (J, C, K)
    return np.block([[Rt.real, Rt.imag], [-Rt.imag, Rt.real]])


def mode_multiply(R: Tensor, u_hat: Tensor, matrix=None) -> Tensor:
    """Per-mode complex matrix-vector product: out[j,k] = sum_l R[j,k,l] u_hat[j,l].
    `matrix` is R's prebuilt `_mode_blocks`, if the caller has it."""
    if R.value.shape[0] != u_hat.value.shape[-2] or R.value.shape[2] != u_hat.value.shape[-1]:
        raise ValueError("kernel/coefficient shape mismatch")
    uv = u_hat.value
    J, K, C = R.value.shape
    W = _mode_blocks(R.value) if matrix is None else matrix
    x = _re_im_cols(uv).reshape(-1, J, 2 * C)
    y = np.empty((x.shape[0], J, 2 * K))
    np.matmul(x.transpose(1, 0, 2), W, out=y.transpose(1, 0, 2))

    def bw(g):
        gy = _re_im_cols(g).reshape(-1, J, 2 * K).transpose(1, 0, 2)
        gx = np.empty_like(x)
        np.matmul(gy, W.transpose(0, 2, 1), out=gx.transpose(1, 0, 2))
        gW = x.transpose(1, 2, 0) @ gy                        # (J, 2C, 2K)
        gRe = gW[:, :C, :K] + gW[:, C:, K:]
        gIm = gW[:, :C, K:] - gW[:, C:, :K]
        gu = _from_re_im_cols(gx).reshape(uv.shape)
        return (gRe + 1j * gIm).transpose(0, 2, 1), gu

    return Tensor(_from_re_im_cols(y).reshape(*uv.shape[:-1], K), (R, u_hat), bw)


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
    """Real trigonometric interpolant of one-sided modes at (fractional)
    index positions; at the full integer grid with maximal J this is the
    exact inverse DFT."""
    uv = u_hat.value
    J, K = uv.shape[-2:]
    Bs = _re_im_rows(np.conj(_idft_basis(J, M, queries)))     # (2J, Q)
    Q = Bs.shape[1]
    out = _result(out, (*uv.shape[:-2], Q, K), float)
    np.matmul(Bs.T, _re_im_cols(uv).reshape(-1, 2 * J, K), out=out.reshape(-1, Q, K))

    def bw(g):
        gy = (Bs @ g.reshape(-1, Q, K)).reshape(*uv.shape[:-2], J, 2 * K)
        return (_from_re_im_cols(gy),)

    return Tensor(out, (u_hat,), bw)


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


def _dense_map(Rv: np.ndarray, positions: np.ndarray, M: int) -> np.ndarray:
    """The dense real (Q*C, Q*K) map of spectral_conv for kernel Rv (J, K, C)."""
    J, K, C = Rv.shape
    Q = positions.size
    T = _pair_basis(J, positions, M) @ _re_im_rows(Rv.reshape(J, K * C))  # (Q*Q, K*C)
    return T.reshape(Q, Q, K, C).transpose(0, 3, 1, 2).reshape(Q * C, Q * K)


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
    positions): (..., Q, C) -> (..., Q, K) for R (J, K, C).

    For small Q (see _dense_spectral_map) the branch is applied as one dense
    real (Q*C, Q*K) map per sample, T[m,l,n,k] = Re sum_j F[j,m] R[j,k,l] B[j,n].
    The map grows as Q^2, so for larger Q (dense queries) the three ops run
    in turn. `matrix` is `spectral_matrix(R, positions, M)`, if the caller
    has it; `out` must not overlap u.
    """
    Rv, uv = R.value, u.value
    J, K, C = Rv.shape
    positions = np.asarray(positions, dtype=float)
    Q = positions.size
    if uv.shape[-2:] != (Q, C):
        raise ValueError("kernel/feature shape mismatch")
    if not _dense_spectral_map(Q, J):
        u_hat = mode_multiply(R, dft_at_positions(u, J, positions, M), matrix=matrix)
        return idft_at(u_hat, M, positions, out=out)

    T = _dense_map(Rv, positions, M) if matrix is None else matrix
    rows = uv.reshape(-1, Q * C)
    out = _result(out, (*uv.shape[:-2], Q, K), float)
    np.matmul(rows, T, out=out.reshape(-1, Q * K))

    def bw(g):
        g2 = g.reshape(-1, Q * K)
        gu = (g2 @ T.T).reshape(uv.shape)
        gT = (rows.T @ g2).reshape(Q, C, Q, K).transpose(0, 2, 3, 1)
        A = _pair_basis(J, positions, M)
        gR = (A.T @ gT.reshape(Q * Q, K * C)).reshape(J, 2, K, C)
        return gR[:, 0] + 1j * gR[:, 1], gu

    return Tensor(out, (R, u), bw)


def time_embedding(t: float, E: int) -> np.ndarray:
    """Sinusoidal embedding [sin(w_k t), cos(w_k t)] with log-spaced w_k."""
    if E < 2 or E % 2 != 0:
        raise ValueError("embedding width must be even and >= 2")
    half = E // 2
    if half == 1:
        omega = np.array([1.0])
    else:
        omega = np.exp(-np.arange(half) * math.log(1e4) / (half - 1))
    return np.concatenate([np.sin(omega * t), np.cos(omega * t)])


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
