"""The trajectory operator network.

Maps one initial noise vector to all M supervised trajectory points in a
single forward pass: a lifting affine, L residual blocks (time-embedding
injection, two pointwise affines, then a Fourier temporal convolution
with an identity shortcut), and a projection back to data space. The
temporal axis is handled in mode space, so the same parameters evaluate
at arbitrary query times.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nnops
from .nnops import Tensor
from .trajectories import TimeGrid, read_container, write_container


@dataclass(frozen=True)
class DsnoConfig:
    d: int = 2
    C: int = 64
    L: int = 4
    J: int = 3
    M: int = 4
    E: int = 32
    slope: float = 0.01

    def __post_init__(self):
        if min(self.d, self.C, self.L, self.J, self.M, self.E) < 1:
            raise ValueError("all config sizes must be positive")
        if self.J > self.M // 2 + 1:
            raise ValueError(f"J={self.J} exceeds M//2+1={self.M // 2 + 1}")
        if not 0 <= self.slope < 1:
            raise ValueError(f"slope={self.slope} must satisfy 0 <= slope < 1")


@dataclass
class Block:
    emb_W: Tensor
    emb_b: Tensor
    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor
    kernel: Tensor  # (J, C, C) complex


@dataclass
class DsnoParams:
    config: DsnoConfig
    lift_W: Tensor
    lift_b: Tensor
    blocks: list[Block]
    proj_W: Tensor
    proj_b: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """All parameter tensors in declaration order."""
        out = [("lift_W", self.lift_W), ("lift_b", self.lift_b)]
        for i, blk in enumerate(self.blocks):
            for name in ("emb_W", "emb_b", "W1", "b1", "W2", "b2", "kernel"):
                out.append((f"block{i}.{name}", getattr(blk, name)))
        out += [("proj_W", self.proj_W), ("proj_b", self.proj_b)]
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


def _uniform(rng, shape, bound):
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: DsnoConfig, seed: int) -> DsnoParams:
    """Seeded initialization: affines uniform +-1/sqrt(fan_in), spectral
    kernels with real and imaginary parts uniform +-1/C."""
    rng = np.random.default_rng(seed)
    d, C, E, J = config.d, config.C, config.E, config.J

    def affine(out_dim, in_dim):
        bound = 1.0 / np.sqrt(in_dim)
        return (nnops.param(_uniform(rng, (out_dim, in_dim), bound)),
                nnops.param(_uniform(rng, (out_dim,), bound)))

    lift_W, lift_b = affine(C, d)
    blocks = []
    for _ in range(config.L):
        emb_W, emb_b = affine(C, E)
        W1, b1 = affine(C, C)
        W2, b2 = affine(C, C)
        R = _uniform(rng, (J, C, C), 1.0 / C) + 1j * _uniform(rng, (J, C, C), 1.0 / C)
        blocks.append(Block(emb_W, emb_b, W1, b1, W2, b2, nnops.param(R)))
    proj_W, proj_b = affine(d, C)
    return DsnoParams(config, lift_W, lift_b, blocks, proj_W, proj_b)


def temporal_conv(kernel: Tensor, u: Tensor, M: int, positions=None,
                  slope: float = 0.01, matrix=None, work=None) -> Tensor:
    """u + leaky_relu(K u), K the truncated Fourier kernel operator.

    The shortcut is the identity and no bias enters the spectral branch.
    `positions` are fractional index coordinates for resolution-free
    evaluation; default is the integer grid. `matrix` is the kernel's
    `nnops.spectral_matrix`; `work`, three arrays shaped like u, receives
    the result (the first, which may be u itself) and the two temporaries.
    """
    if positions is None:
        positions = np.arange(M, dtype=float)
    out, k_out, act_out = work or (None, None, None)
    k_branch = nnops.spectral_conv(kernel, u, positions, M, matrix=matrix, out=k_out)
    return nnops.add(u, nnops.leaky_relu(k_branch, slope, out=act_out), out=out)


def _embed_matrix(times: np.ndarray, E: int) -> np.ndarray:
    return np.stack([nnops.time_embedding(t, E) for t in times])


def _plan(params: DsnoParams, times: np.ndarray, positions: np.ndarray) -> list[tuple]:
    """What each residual block needs that does not depend on the rows, in
    training and inference alike: its time-embedding rows (Q, C) and its
    `nnops.spectral_matrix`, through which the tape records no gradient."""
    cfg = params.config
    emb_t = nnops.param(_embed_matrix(times, cfg.E))
    return [(nnops.affine_pointwise(blk.emb_W, blk.emb_b, emb_t),
             nnops.spectral_matrix(blk.kernel, positions, cfg.M))
            for blk in params.blocks]


def _forward_graph(params: DsnoParams, x_T: np.ndarray, positions: np.ndarray,
                   plan: list[tuple], work=None, out=None) -> Tensor:
    """(n, d) rows -> (n, Q, d) outputs at `positions`. Under no_record(),
    `work` (three (n, Q, C) arrays) and `out` receive every (n, Q, ·)
    result, so the graph allocates no array of that size."""
    cfg = params.config
    a, b, c = work or (None, None, None)
    # lifted once per sample; the first embedding add broadcasts it over Q.
    # c is free until the first leaky ReLU, so its head holds the lift
    lift = None if c is None else c.reshape(-1)[:len(c) * cfg.C].reshape(-1, 1, cfg.C)
    u = nnops.affine_pointwise(params.lift_W, params.lift_b,
                               nnops.param(x_T[:, None, :]), out=lift)   # (n, 1, C)
    for blk, (e, matrix) in zip(params.blocks, plan):
        u = nnops.add(u, e, out=a)
        h = nnops.affine_pointwise(blk.W1, blk.b1, u, out=b)
        t1 = nnops.leaky_relu(h, cfg.slope, out=c)
        t2 = nnops.affine_pointwise(blk.W2, blk.b2, t1, out=b)
        u = nnops.add(u, t2, out=a)
        u = temporal_conv(blk.kernel, u, cfg.M, positions, cfg.slope, matrix, work)
    return nnops.affine_pointwise(params.proj_W, params.proj_b, u, out=out)


# Inference runs its rows in blocks of at most max(1, _BLOCK // Q) rows,
# equal to within one row, so each affine GEMM keeps about _BLOCK / 2 rows
# or more. With fewer (about 600 for the (C, d) projection; OpenBLAS 0.3.31,
# x86-64) BLAS takes another kernel and the rows differ in the last bit
# from one pass; 1024 did at 257 rows (see CHANGES.md).
_BLOCK = 2048


def _infer(params: DsnoParams, x_T, times: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Tape-free evaluation of (d,) or (n, d) rows at `times`, which sit at
    `positions` of the grid: (Q, d) or (n, Q, d).

    The plan (embedding rows and spectral matrices) is built once per call;
    the rows then run in blocks whose every (rows, Q, ·) result lands in the
    work arrays or the output, so a call allocates the same few arrays at
    any row count and does not page-fault a working set that grows with it.
    """
    cfg = params.config
    x = np.asarray(x_T, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"x_T must be (d,) or (n, d), got shape {x.shape}")
    rows = np.atleast_2d(x)
    n, Q = rows.shape[0], positions.size
    nblocks = max(1, -(-n // max(1, _BLOCK // Q)))
    edges = [n * i // nblocks for i in range(nblocks + 1)]
    y = np.empty((n, Q, cfg.d))
    # one allocation: freeing it sets glibc's dynamic mmap threshold to its
    # size and the trim threshold to twice that, so later calls take it from
    # the heap and keep it there instead of page-faulting it in again
    work = np.empty((3, -(-n // nblocks), Q, cfg.C))
    with nnops.no_record():
        plan = _plan(params, times, positions)
        for lo, hi in zip(edges, edges[1:]):
            _forward_graph(params, rows[lo:hi], positions, plan,
                           [w[:hi - lo] for w in work], y[lo:hi])
    return y[0] if x.ndim == 1 else y


def forward(params: DsnoParams, x_T, grid: TimeGrid) -> np.ndarray:
    """One-call prediction of the whole trajectory: (M, d) or (B, M, d)."""
    return _infer(params, x_T, grid.times, np.arange(params.config.M, dtype=float))


def forward_loss(params: DsnoParams, x_T, grid: TimeGrid, target, weights) -> Tensor:
    """Differentiable weighted l1 training loss for a batch."""
    positions = np.arange(params.config.M, dtype=float)
    plan = _plan(params, grid.times, positions)
    y = _forward_graph(params, np.asarray(x_T, dtype=float), positions, plan)
    return nnops.weighted_l1(y, target, weights)


def query_positions(grid: TimeGrid, query_times) -> np.ndarray:
    """Monotone map of query times into the training grid's index coordinate."""
    q = np.asarray(query_times, dtype=float)
    times = grid.times
    if q.size == 0 or not np.all(np.isfinite(q)):
        raise ValueError("query times must be a non-empty set of finite times")
    if np.any(q > times[0]) or np.any(q < times[-1]):
        raise ValueError("query time outside the training grid's span")
    asc_t = times[::-1]
    asc_idx = np.arange(times.size - 1, -1, -1, dtype=float)
    return np.interp(q, asc_t, asc_idx)


def query_at(params: DsnoParams, x_T, grid: TimeGrid, query_times) -> np.ndarray:
    """Evaluate the trained operator at arbitrary times within the grid span.

    Querying exactly the training grid reproduces `forward` bit-for-bit
    (identical positions, identical per-row arithmetic): both run the same
    row-block evaluator, so a query over any number of rows and times keeps
    the working set of one block.
    """
    q = np.asarray(query_times, dtype=float)
    return _infer(params, x_T, q, query_positions(grid, q))


def checkpoint_layout(groups: int):
    """`read_container` / `write_container` layout of a checkpoint: `groups`
    copies of the header config's parameter tensors in declaration order,
    in the dtypes `init_params` gives them (f64, c16 if complex)."""
    def layout(header: dict) -> list[tuple]:
        refs = init_params(DsnoConfig(**header["config"]), seed=0).tensors()
        return [(t.value.dtype.newbyteorder("<"), t.value.shape) for t in refs] * groups
    return layout


def checkpoint_params(header: dict, arrays: list[np.ndarray]) -> DsnoParams:
    """The params of a checkpoint header's config whose tensors, in
    declaration order, hold `arrays` (one group)."""
    params = init_params(DsnoConfig(**header["config"]), seed=0)
    for t, a in zip(params.tensors(), arrays, strict=True):
        t.value = a
    return params


def save_checkpoint(path, params: DsnoParams, extra: dict | None = None) -> None:
    """Header = the model config plus any extra scalars, then every
    parameter tensor in declaration order."""
    header = {"config": asdict(params.config)}
    if extra:
        header["extra"] = extra
    write_container(path, header, [t.value for t in params.tensors()],
                    checkpoint_layout(groups=1))


def load_checkpoint(path) -> tuple[DsnoParams, dict]:
    header, arrays = read_container(path, checkpoint_layout(groups=1))
    return checkpoint_params(header, arrays), header.get("extra", {})
