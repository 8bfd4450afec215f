"""The trajectory operator network.

Maps one initial noise vector to all M supervised trajectory points in a
single forward pass: a lifting affine, L residual blocks (time-embedding
injection, two pointwise affines, then a Fourier temporal convolution
with an identity shortcut), and a projection back to data space. The
temporal axis is handled in mode space, so the same parameters evaluate
at arbitrary query times.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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

    def __post_init__(self):
        if min(self.d, self.C, self.L, self.J, self.M, self.E) < 1:
            raise ValueError("all config sizes must be positive")
        if self.J > self.M // 2 + 1:
            raise ValueError(f"J={self.J} exceeds M//2+1={self.M // 2 + 1}")
        if self.E % 2:
            raise ValueError(f"E={self.E} must be even and >= 2")


@dataclass
class Block:
    emb_W: Tensor
    emb_b: Tensor
    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor
    kernel: Tensor  # (J, C, 2C): interleaved (Re, Im) pairs of J (C, C) modes


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


def param_shapes(config: DsnoConfig) -> list[tuple[int, ...]]:
    """Every parameter tensor's shape in declaration order: each weight is
    (out, in) and followed by its bias; each kernel is (J, C, 2C)."""
    d, C, E, J = config.d, config.C, config.E, config.J
    block = [(C, E), (C,), (C, C), (C,), (C, C), (C,), (J, C, 2 * C)]
    return [(C, d), (C,)] + block * config.L + [(d, C), (d,)]


def params_from(config: DsnoConfig, arrays) -> DsnoParams:
    """The params of `config` whose tensors, in declaration order, hold `arrays`."""
    lift_W, lift_b, *mid, proj_W, proj_b = map(nnops.param, arrays)
    blocks = [Block(*mid[i:i + 7]) for i in range(0, len(mid), 7)]
    return DsnoParams(config, lift_W, lift_b, blocks, proj_W, proj_b)


def init_params(config: DsnoConfig, seed: int) -> DsnoParams:
    """Seeded initialization: each weight and then its bias uniform
    +-1/sqrt(fan_in); each spectral kernel draws its real parts, then its
    imaginary parts, uniform +-1/C."""
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in param_shapes(config):
        if len(shape) == 2:         # a weight; the bias after it takes its bound
            bound = 1.0 / np.sqrt(shape[1])
        if len(shape) == 3:         # a kernel
            J, C, _ = shape
            R = rng.uniform(-1.0 / C, 1.0 / C, size=(2, J, C, C))
            arrays.append(np.moveaxis(R, 0, -1).reshape(shape))
        else:
            arrays.append(rng.uniform(-bound, bound, size=shape))
    return params_from(config, arrays)


def _plan(params: DsnoParams, times: np.ndarray, positions: np.ndarray) -> list[tuple]:
    """What each residual block needs that does not depend on the rows, in
    training and inference alike: its time-embedding rows (Q, C) and its
    `nnops.spectral_matrix`, through which the tape records no gradient."""
    emb_t = nnops.param(nnops.time_embedding(times, params.config.E))
    return [(nnops.affine_pointwise(blk.emb_W, blk.emb_b, emb_t),
             nnops.spectral_matrix(blk.kernel, positions, params.config.M))
            for blk in params.blocks]


def _forward_graph(params: DsnoParams, x_T: np.ndarray, positions: np.ndarray,
                   plan: list[tuple], work=None, out=None) -> Tensor:
    """(n, d) rows -> (n, Q, d) outputs at `positions`. Under no_record(),
    `work` (three (n, Q, C) arrays a, b, c) and `out` receive every (n, Q, ·)
    result, so the graph allocates no array of that size."""
    cfg = params.config
    a, b, c = work or (None, None, None)
    # lifted once per sample; the first embedding add broadcasts it over Q
    u = nnops.affine_pointwise(params.lift_W, params.lift_b,
                               nnops.param(x_T[:, None, :]))   # (n, 1, C)
    for blk, (e, matrix) in zip(params.blocks, plan):
        u = nnops.add(u, e, out=a)
        h = nnops.affine_pointwise(blk.W1, blk.b1, u, out=b)
        t1 = nnops.leaky_relu(h, out=c)
        t2 = nnops.affine_pointwise(blk.W2, blk.b2, t1, out=b)
        u = nnops.add(u, t2, out=a)
        k = nnops.spectral_conv(blk.kernel, u, positions, cfg.M, matrix=matrix, out=b)
        u = nnops.add(u, nnops.leaky_relu(k, out=c), out=a)
    return nnops.affine_pointwise(params.proj_W, params.proj_b, u, out=out)


# Inference runs its rows in blocks of at most max(1, _BLOCK // Q) rows,
# equal to within one row, so each affine GEMM keeps about _BLOCK / 2 rows
# or more. With fewer (about 600 for the (C, d) projection; OpenBLAS 0.3.31,
# x86-64) BLAS takes another kernel and the rows differ in the last bit
# from one pass; 1024 did at 257 rows (see CHANGES.md). The blocks do not
# depend on the worker count, so neither do the bits. Each worker holds
# one block's three (rows, Q, C) work arrays, 1.9 MiB at C=64; two of them
# stay near the 3 MiB that one 2048-row-time block held.
_BLOCK = 1280
# The workers' work arrays together stay within _WORK_BYTES at any row and
# CPU count (8 workers at C=64), which keeps them below glibc's 32 MiB cap
# on its dynamic mmap threshold; one worker's arrays alone may exceed it
# at a large C.
_WORK_BYTES = 16 * 2**20


def _cgroup_cpus(root: str, own: str) -> int | None:
    """ceil(quota / period) of the CPU quota of this process's cgroup, listed
    in `own`, under the cgroup mount `root`: cgroup v2's cpu.max, else v1's
    cpu.cfs_quota_us and cpu.cfs_period_us. None for no quota (`max`, -1)
    or for files that cannot be read."""
    try:
        with open(own) as f:
            groups = dict(line.rstrip("\n").split(":", 2)[1:] for line in f)
    except (OSError, ValueError):
        return None
    tried = []
    if "" in groups:                                        # cgroup v2
        tried.append([os.path.join(root, groups[""].lstrip("/"), "cpu.max")])
    for controllers, path in groups.items():                # cgroup v1
        if "cpu" in controllers.split(","):
            where = os.path.join(root, controllers, path.lstrip("/"))
            tried.append([os.path.join(where, "cpu.cfs_quota_us"),
                          os.path.join(where, "cpu.cfs_period_us")])
    for files in tried:
        try:
            words = []
            for name in files:
                with open(name) as f:
                    words += f.read().split()
        except OSError:
            continue
        try:
            quota, period = int(words[0]), int(words[1])
        except (ValueError, IndexError):    # `max`, or not a quota
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _cpus(root: str = "/sys/fs/cgroup", own: str = "/proc/self/cgroup") -> int:
    """The number of CPUs this process may run on: those of its affinity
    mask, at most its cgroup's CPU quota rounded up."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call off Linux
        n = os.cpu_count() or 1
    quota = _cgroup_cpus(root, own)
    return n if quota is None else max(1, min(n, quota))


def _infer(params: DsnoParams, x_T, times: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Tape-free evaluation of (d,) or (n, d) rows at `times`, which sit at
    `positions` of the grid: (Q, d) or (n, Q, d).

    The plan (embedding rows and spectral matrices) is built once per call;
    the rows then run in blocks whose every (rows, Q, ·) result lands in the
    work arrays or the output, so a call allocates the same few arrays at
    any row count and does not page-fault a working set that grows with it.
    The blocks are dealt out in turn to min(_cpus(), blocks) workers, or as
    many as _WORK_BYTES holds work arrays for if fewer, the caller one of
    them: each runs its share in its own work arrays and writes only its
    blocks' rows of the output, so the workers share no state that any of
    them writes. BLAS and numpy's loops release the GIL,
    so the workers run on as many cores.
    """
    cfg = params.config
    x = np.asarray(x_T, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"x_T must be (d,) or (n, d), got shape {x.shape}")
    rows = np.atleast_2d(x)
    n, Q = rows.shape[0], positions.size
    nblocks = max(1, -(-n // max(1, _BLOCK // Q)))
    edges = [n * i // nblocks for i in range(nblocks + 1)]
    blocks = list(zip(edges, edges[1:]))
    size = max(1, -(-n // nblocks))     # rows in the largest block, or 1 if none
    nworkers = max(1, min(_cpus(), nblocks, _WORK_BYTES // (3 * size * Q * cfg.C * 8)))
    y = np.empty((n, Q, cfg.d))
    # one allocation: freeing it sets glibc's dynamic mmap threshold to its
    # size and the trim threshold to twice that, so later calls take it from
    # the heap and keep it there instead of page-faulting it in again
    work = np.empty((nworkers, 3, size, Q, cfg.C))
    with nnops.no_record():
        plan = _plan(params, times, positions)

    def run(k):
        with nnops.no_record():     # the tape's state is per thread
            for lo, hi in blocks[k::nworkers]:
                _forward_graph(params, rows[lo:hi], positions, plan,
                               [w[:hi - lo] for w in work[k]], y[lo:hi])

    # leaving the pool joins every worker, also when the caller's share raises
    with ThreadPoolExecutor(max(1, nworkers - 1)) as pool:
        shares = [pool.submit(run, k) for k in range(1, nworkers)]
        run(0)
    for share in shares:
        share.result()
    return y[0] if x.ndim == 1 else y


def _grid_positions(params: DsnoParams, grid: TimeGrid) -> np.ndarray:
    """The index positions 0..M-1 of `grid`, which must have the model's M times."""
    if grid.M != params.config.M:
        raise ValueError(f"grid M={grid.M} != model M={params.config.M}")
    return np.arange(grid.M, dtype=float)


def forward(params: DsnoParams, x_T, grid: TimeGrid) -> np.ndarray:
    """One-call prediction of the whole trajectory: (M, d) or (B, M, d)."""
    return _infer(params, x_T, grid.times, _grid_positions(params, grid))


def forward_loss(params: DsnoParams, x_T, grid: TimeGrid, target, weights) -> Tensor:
    """Differentiable weighted l1 training loss for a batch."""
    positions = _grid_positions(params, grid)
    plan = _plan(params, grid.times, positions)
    y = _forward_graph(params, np.asarray(x_T, dtype=float), positions, plan)
    return nnops.weighted_l1(y, target, weights)


def query_positions(grid: TimeGrid, query_times) -> np.ndarray:
    """Monotone map of query times into the training grid's index coordinate."""
    q = np.asarray(query_times, dtype=float)
    times = grid.times
    if q.ndim != 1:
        raise ValueError("query times must be a non-empty set of finite times in a "
                         f"1-D array, got shape {q.shape}")
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
    _grid_positions(params, grid)
    q = np.asarray(query_times, dtype=float)
    return _infer(params, x_T, q, query_positions(grid, q))


def checkpoint_layout(groups: int):
    """`read_container` / `write_container` layout of a checkpoint: `groups`
    copies of the header config's f64 parameter tensors in declaration order."""
    def layout(header: dict) -> list[tuple]:
        shapes = param_shapes(DsnoConfig(**header["config"]))
        return [(np.dtype("<f8"), shape) for shape in shapes] * groups
    return layout


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
    return params_from(DsnoConfig(**header["config"]), arrays), header.get("extra", {})
