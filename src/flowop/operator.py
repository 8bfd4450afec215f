"""The trajectory operator network.

Maps one initial noise vector to all M supervised trajectory points in a
single forward pass: a lifting affine, L residual blocks (time-embedding
injection, two pointwise affines, then a Fourier temporal convolution
with an identity shortcut), and a projection back to data space. The
temporal axis is handled in mode space, so the same parameters evaluate
at arbitrary query times.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import nnops
from .nnops import Tensor
from .trajectories import TimeGrid, atomic_open


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


def param_count(config: DsnoConfig) -> int:
    """Closed-form count of real degrees of freedom (complex = 2 reals)."""
    d, C, L, J, E = config.d, config.C, config.L, config.J, config.E
    return d * C + C + L * (E * C + C + 2 * (C * C + C) + 2 * J * C * C) + C * d + d


def temporal_conv(kernel: Tensor, u: Tensor, M: int, positions=None,
                  slope: float = 0.01) -> Tensor:
    """u + leaky_relu(K u), K the truncated Fourier kernel operator.

    The shortcut is the identity and no bias enters the spectral branch.
    `positions` are fractional index coordinates for resolution-free
    evaluation; default is the integer grid.
    """
    if positions is None:
        positions = np.arange(M, dtype=float)
    k_branch = nnops.spectral_conv(kernel, u, positions, M)
    return nnops.add(u, nnops.leaky_relu(k_branch, slope))


def _embed_matrix(times: np.ndarray, E: int) -> np.ndarray:
    return np.stack([nnops.time_embedding(t, E) for t in times])


def _forward_graph(params: DsnoParams, x_T: np.ndarray, times: np.ndarray,
                   positions: np.ndarray) -> Tensor:
    cfg = params.config
    x_T = np.asarray(x_T, dtype=float)
    squeeze = x_T.ndim == 1
    if squeeze:
        x_T = x_T[None, :]
    # lifted once per sample; the first embedding add broadcasts it over Q
    u = nnops.affine_pointwise(params.lift_W, params.lift_b,
                               nnops.param(x_T[:, None, :]))   # (B, 1, C)
    emb = _embed_matrix(times, cfg.E)                     # (Q, E)
    emb_t = nnops.param(emb)
    for blk in params.blocks:
        e = nnops.affine_pointwise(blk.emb_W, blk.emb_b, emb_t)   # (Q, C)
        u = nnops.add(u, e)
        t1 = nnops.leaky_relu(nnops.affine_pointwise(blk.W1, blk.b1, u), cfg.slope)
        t2 = nnops.affine_pointwise(blk.W2, blk.b2, t1)
        u = nnops.add(u, t2)
        u = temporal_conv(blk.kernel, u, cfg.M, positions, cfg.slope)
    y = nnops.affine_pointwise(params.proj_W, params.proj_b, u)
    return y, squeeze


def forward(params: DsnoParams, x_T, grid: TimeGrid) -> np.ndarray:
    """One-call prediction of the whole trajectory: (M, d) or (B, M, d)."""
    with nnops.no_record():
        y, squeeze = _forward_graph(params, x_T, grid.times,
                                    np.arange(params.config.M, dtype=float))
    return y.value[0] if squeeze else y.value


def forward_loss(params: DsnoParams, x_T, grid: TimeGrid, target, weights) -> Tensor:
    """Differentiable weighted l1 training loss for a batch."""
    y, _ = _forward_graph(params, x_T, grid.times,
                          np.arange(params.config.M, dtype=float))
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
    (identical positions, identical per-row arithmetic). Rows run in chunks
    of 4096 // Q, so each (rows, Q, C) temporary holds at most 4096 * C
    values (2 MB at C = 64): the chunks reuse one small working set, where
    one pass over all rows grows the heap by its whole working set and
    page-faults it in again on every call.
    """
    q = np.asarray(query_times, dtype=float)
    positions = query_positions(grid, q)
    x = np.asarray(x_T, dtype=float)
    rows = max(1, 4096 // q.size)
    with nnops.no_record():
        if x.ndim == 1:
            return _forward_graph(params, x, q, positions)[0].value[0]
        return np.concatenate([_forward_graph(params, x[i:i + rows], q, positions)[0].value
                               for i in range(0, max(len(x), 1), rows)])


_CKPT_MAGIC = b"FOP1"


def _wire_dtype(a: np.ndarray) -> str:
    return "<c16" if np.iscomplexobj(a) else "<f8"


def _checksum(payload) -> bytes:
    return hashlib.sha256(payload).digest()[:8]


def _write_container(path, header: dict, arrays: list[np.ndarray]) -> None:
    """Magic, u64 header length, canonical JSON header, every array as f64
    little-endian (complex interleaved), then the payload's checksum: the
    first 8 bytes of its sha256. Written through `atomic_open`."""
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(np.ascontiguousarray(a, dtype=_wire_dtype(a)).tobytes()
                       for a in arrays)
    with atomic_open(path) as f:
        f.write(_CKPT_MAGIC + len(hbytes).to_bytes(8, "little") + hbytes)
        f.write(payload)
        f.write(_checksum(payload))


def _read_container(path, groups: int) -> tuple[dict, DsnoParams, list[list[np.ndarray]]]:
    """Parse a `_write_container` file whose payload is `groups` copies of
    the header config's parameter shapes. Returns the header, the params
    holding the first group, and the remaining groups; any other size,
    a truncated file or a checksum mismatch raises ValueError."""
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if raw[:4] != _CKPT_MAGIC:
        raise ValueError("not a checkpoint file")
    hend = 12 + int.from_bytes(raw[4:12], "little")
    if len(raw) < hend + 8:
        raise ValueError("checkpoint truncated inside its header")
    try:
        header = json.loads(bytes(raw[12:hend]))
        params = init_params(DsnoConfig(**header["config"]), seed=0)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"bad checkpoint header: {e}") from e
    refs = [t.value for t in params.tensors()]
    size = sum(a.nbytes for a in refs)       # f64 and c16, as on disk
    payload = raw[hend:-8]
    if len(payload) != groups * size:
        raise ValueError(f"checkpoint payload has {len(payload)} bytes, expected "
                         f"{groups} group(s) of {size}")
    if raw[-8:] != _checksum(payload):
        raise ValueError("checkpoint payload checksum mismatch")
    offset, arrays = 0, []
    for ref in refs * groups:
        arrays.append(np.frombuffer(payload, _wire_dtype(ref), ref.size, offset)
                      .reshape(ref.shape).copy())
        offset += arrays[-1].nbytes
    for t, a in zip(params.tensors(), arrays):
        t.value = a
    n = len(refs)
    return header, params, [arrays[i:i + n] for i in range(n, len(arrays), n)]


def save_checkpoint(path, params: DsnoParams, extra: dict | None = None) -> None:
    """Header = the model config plus any extra scalars, then every
    parameter tensor in declaration order."""
    header = {"config": asdict(params.config)}
    if extra:
        header["extra"] = extra
    _write_container(path, header, [t.value for t in params.tensors()])


def load_checkpoint(path) -> tuple[DsnoParams, dict]:
    header, params, _ = _read_container(path, groups=1)
    return params, header.get("extra", {})
