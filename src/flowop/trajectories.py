"""Probability-flow ODE right-hand side, solvers, and trajectory datasets.

Integration runs backward in time from t_max with Gaussian initial
conditions, recording states at a fixed supervision grid. The recording
grid is decoupled from the internal step count so the targets can be far
more accurate than the supervision resolution. Datasets persist to a
self-describing little-endian binary file; checkpoints to the checksummed
container defined here.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mixture import GaussianMixture, epsilon_hat, score
from .schedule import NoiseSchedule, coefficients_at

MAGIC = b"DSNO"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray   # strictly decreasing and positive

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("grid needs at least one time")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("grid times must be finite")
        if np.any(np.diff(self.times) >= 0):
            raise ValueError("grid times must be strictly decreasing")
        if self.times[-1] <= 0:
            raise ValueError("grid times must be positive")

    @property
    def M(self) -> int:
        return self.times.size


def make_time_grid(M: int, scheme: str, sched: NoiseSchedule) -> TimeGrid:
    """Supervision grid of M descending times in (sched.t_min, sched.t_max].

    uniform:   t_m = t_min + (t_max - t_min) * m/M
    quadratic: t_m = t_min + (t_max - t_min) * (m/M)^2   (denser near 0)
    for m = M..1.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(M, 0, -1, dtype=float)
    if scheme == "uniform":
        frac = m / M
    elif scheme == "quadratic":
        frac = (m / M) ** 2
    else:
        raise ValueError(f"unknown grid scheme {scheme!r}")
    return TimeGrid(times=sched.t_min + (sched.t_max - sched.t_min) * frac)


def pf_rhs(gm: GaussianMixture, sched: NoiseSchedule, x, t: float) -> np.ndarray:
    """Probability-flow ODE velocity: h(t)x - (g^2/2) * score(x, t)."""
    c = coefficients_at(sched, t)
    return c.h * np.asarray(x, dtype=float) - 0.5 * c.beta * score(gm, sched, x, t)


def step_euler(rhs, x, t: float, t_next: float):
    return x + (t_next - t) * rhs(x, t)


def step_heun(rhs, x, t: float, t_next: float):
    dt = t_next - t
    k1 = rhs(x, t)
    k2 = rhs(x + dt * k1, t_next)
    return x + 0.5 * dt * (k1 + k2)


def step_exponential(gm: GaussianMixture, sched: NoiseSchedule, x, t: float, t_next: float):
    """Semi-linear exact update with the noise prediction frozen over the step.

    x' = (a'/a) x + (s' - (a'/a) s) * eps_hat(x, t); exact whenever eps_hat
    is constant along the step.
    """
    c = coefficients_at(sched, t)
    cn = coefficients_at(sched, t_next)
    ratio = cn.alpha / c.alpha
    return ratio * x + (cn.sigma - ratio * c.sigma) * epsilon_hat(gm, sched, x, t)


class IntegrationDiverged(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"non-finite state reached at t={t:.6g}")
        self.t = t


@dataclass(frozen=True)
class Trajectory:
    values: np.ndarray    # (M, d) or (n, M, d)


SOLVERS = ("euler", "heun", "exponential")


def check_solver(solver: str, substeps: int) -> None:
    """Raise ValueError unless `solver` is one of SOLVERS and substeps >= 1."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {', '.join(SOLVERS)}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")


def _advance(gm, sched, x, t_from, t_to, solver, substeps):
    # solver is one of SOLVERS: solve_trajectory checks it before any step
    if t_to == t_from:
        return x
    ts = np.linspace(t_from, t_to, substeps + 1)
    for a, b in zip(ts[:-1], ts[1:]):
        if solver == "euler":
            x = step_euler(lambda y, tt: pf_rhs(gm, sched, y, tt), x, a, b)
        elif solver == "heun":
            x = step_heun(lambda y, tt: pf_rhs(gm, sched, y, tt), x, a, b)
        else:
            x = step_exponential(gm, sched, x, a, b)
        if not np.all(np.isfinite(x)):
            raise IntegrationDiverged(b)
    return x


def solve_trajectory(gm: GaussianMixture, sched: NoiseSchedule, x_T,
                     grid: TimeGrid, solver: str = "heun", substeps: int = 64) -> Trajectory:
    """Integrate from t_max down through the grid, recording each grid time.

    `substeps` internal steps are taken per segment (t_max -> first grid
    time, then between consecutive grid times). Works on a single (d,)
    state or a batch (n, d); the batch is just row-parallel.
    """
    check_solver(solver, substeps)
    x = np.array(x_T, dtype=float)
    rows = []
    t = sched.t_max
    for tm in grid.times:
        x = _advance(gm, sched, x, t, tm, solver, substeps)
        rows.append(x.copy())
        t = tm
    return Trajectory(values=np.stack(rows, axis=-2))


@contextlib.contextmanager
def atomic_open(path):
    """Binary file to write `path` through: it is written as `path.tmp` and
    renamed over `path` on success, so a failed write leaves any previous
    file intact and no temporary behind."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_tsv(path, header, rows) -> None:
    """A header and tab-separated rows of str() cells, written through
    `atomic_open`; rows may be a generator, consumed while writing."""
    with atomic_open(path) as f:
        for row in itertools.chain([header], rows):
            f.write(("\t".join(map(str, row)) + "\n").encode())


_CKPT_MAGIC = b"FOP3"


def _checksum(data) -> bytes:
    return hashlib.sha256(data).digest()[:8]


def write_container(path, header: dict, arrays, layout) -> None:
    """The checkpoint format: magic `FOP3`, u64 header length, canonical
    JSON header, each array cast to the (dtype, shape) `layout(header)`
    gives it, in C order, then the checksum of everything before it: the
    first 8 bytes of its sha256. Written through `atomic_open`. An array
    that does not fit its layout raises ValueError, so `read_container`
    reads back every file written."""
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [_CKPT_MAGIC, len(hbytes).to_bytes(8, "little"), hbytes]
    for a, (dtype, shape) in zip(arrays, layout(header), strict=True):
        if a.shape != shape or not np.can_cast(a.dtype, dtype, "same_kind"):
            raise ValueError(f"a {a.dtype} array of shape {a.shape} does not fit "
                             f"the layout's {dtype} {shape}")
        parts.append(np.ascontiguousarray(a, dtype).tobytes())
    data = b"".join(parts)
    with atomic_open(path) as f:
        f.write(data)
        f.write(_checksum(data))


def read_container(path, layout) -> tuple[dict, list[np.ndarray]]:
    """The header and arrays of a `write_container` file, where
    `layout(header)` gives each array's (dtype, shape). A wrong magic or
    checksum (checked before the header is parsed), a truncated or bad
    header, a header the layout rejects or another payload size raises
    ValueError."""
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if raw[:4] != _CKPT_MAGIC:
        raise ValueError(f"not a checkpoint file: magic {bytes(raw[:4])!r}, "
                         f"expected {_CKPT_MAGIC!r}")
    if len(raw) < 20 or raw[-8:] != _checksum(raw[:-8]):
        raise ValueError("checkpoint checksum mismatch or truncated file")
    hend = 12 + int.from_bytes(raw[4:12], "little")
    if len(raw) < hend + 8:
        raise ValueError("checkpoint truncated inside its header")
    try:
        header = json.loads(bytes(raw[12:hend]))
        shapes = layout(header)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"bad checkpoint header: {e!r}") from e
    size = sum(dtype.itemsize * math.prod(shape) for dtype, shape in shapes)
    payload = raw[hend:-8]
    if len(payload) != size:
        raise ValueError(f"checkpoint payload has {len(payload)} bytes, expected {size}")
    offset, arrays = 0, []
    for dtype, shape in shapes:
        arrays.append(np.frombuffer(payload, dtype, math.prod(shape), offset)
                      .reshape(shape).copy())
        offset += arrays[-1].nbytes
    return header, arrays


_HEADER_FMT = "<4sIIIQdddd"  # magic, version, d, M, N, beta_min, beta_max, t_min, T


@dataclass(frozen=True)
class TrajectoryDataset:
    sched: NoiseSchedule
    grid: TimeGrid
    x_T: np.ndarray      # (N, d) float32
    values: np.ndarray   # (N, M, d) float32

    @property
    def N(self) -> int:
        return self.x_T.shape[0]

    @property
    def d(self) -> int:
        return self.x_T.shape[1]

    def save(self, path) -> None:
        N, d = self.x_T.shape
        M = self.grid.M
        with atomic_open(path) as f:
            f.write(struct.pack(_HEADER_FMT, MAGIC, FORMAT_VERSION, d, M, N,
                                self.sched.beta_min, self.sched.beta_max,
                                self.sched.t_min, self.sched.t_max))
            f.write(self.grid.times.astype("<f8").tobytes())
            interleaved = np.concatenate(
                [self.x_T.astype("<f4").reshape(N, d),
                 self.values.astype("<f4").reshape(N, M * d)], axis=1)
            f.write(interleaved.tobytes())

    @classmethod
    def load(cls, path) -> "TrajectoryDataset":
        with open(path, "rb") as f:
            raw = f.read(struct.calcsize(_HEADER_FMT))
            if len(raw) != struct.calcsize(_HEADER_FMT):
                raise ValueError(f"dataset truncated: header has {len(raw)} bytes")
            magic, version, d, M, N, bmin, bmax, tmin, T = struct.unpack(_HEADER_FMT, raw)
            if magic != MAGIC:
                raise ValueError("not a trajectory dataset file")
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported dataset version {version}")
            raw = f.read(8 * M)
            if len(raw) != 8 * M:
                raise ValueError(f"dataset truncated: expected {M} grid times")
            times = np.frombuffer(raw, dtype="<f8").copy()
            payload = np.frombuffer(f.read(), dtype="<f4")
        per_rec = d + M * d
        if payload.size != N * per_rec:
            raise ValueError(f"dataset truncated: expected {N} records")
        payload = payload.reshape(N, per_rec)
        sched = NoiseSchedule(beta_min=bmin, beta_max=bmax, t_max=T, t_min=tmin)
        return cls(sched=sched,
                   grid=TimeGrid(times=times),
                   x_T=payload[:, :d].copy(),
                   values=payload[:, d:].reshape(N, M, d).copy())


# numpy's SeedSequence constants (random/bit_generator.pyx), PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG64_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(v: np.ndarray, h: list) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words; h = [constant, multiplier]."""
    v = v ^ h[0]
    h[0] = h[0] * h[1] & _M32
    v = v * h[0]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_state(base_seed: int, N: int) -> np.ndarray:
    """SeedSequence(base_seed + j).generate_state(4, np.uint64) for j < N, as
    (N, 4) uint64: numpy's algorithm run as uint32 array arithmetic.

    A seed's entropy is its little-endian 32-bit words, of which the first
    four hash as 0 where missing: one pass hashes those four, then word k > 3
    is mixed into the records that have it, the suffix of seeds >= 2**(32 k)."""
    base_seed = int(base_seed)   # a numpy integer has no bit_length
    seeds = np.arange(base_seed, base_seed + N, dtype=object)
    nwords = -(-(base_seed + N - 1).bit_length() // 32)
    words = [(seeds >> 32 * k & _M32).astype(np.uint32) for k in range(nwords)]
    words += [np.zeros(N, np.uint32)] * (4 - nwords)
    h = [_INIT_A, _MULT_A]
    pool = [_hashmix(w, h) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], h))
    for k in range(4, nwords):
        lo = max(0, (1 << 32 * k) - base_seed)
        for dst in range(4):
            pool[dst][lo:] = _mix(pool[dst][lo:], _hashmix(words[k][lo:], h))
    h = [_INIT_B, _MULT_B]
    state = np.stack([_hashmix(pool[i % 4], h) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seeded_normals(base_seed: int, N: int, d: int) -> np.ndarray:
    """(N, d) rows default_rng(base_seed + j).standard_normal(d), bit for bit.

    All N seeds are hashed at once (`_seed_state`). Each record's PCG64
    state after seeding is then set on one reused generator, whose own
    sampler draws the row. The first and last rows are checked against
    default_rng."""
    bitgen = np.random.PCG64(0)
    normal = np.random.Generator(bitgen).standard_normal
    pcg = {}
    st = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    out = np.empty((N, d))
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(out, _seed_state(base_seed, N).tolist()):
        pcg["inc"] = inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
        bitgen.state = st
        normal(out=row)
    for j in {0, N - 1}:
        if not np.array_equal(out[j], np.random.default_rng(base_seed + j).standard_normal(d)):
            raise RuntimeError(f"record {j}: vectorized seeding differs from "
                               f"default_rng({base_seed + j})")
    return out


def generate_dataset(gm: GaussianMixture, sched: NoiseSchedule, grid: TimeGrid,
                     N: int, base_seed: int, solver: str = "heun",
                     substeps: int = 64, path=None) -> TrajectoryDataset:
    """Solve N trajectories from per-record seeded Gaussian noise.

    Record j draws x_T from default_rng(base_seed + j), so any subset can
    be regenerated independently; the batch is integrated row-parallel
    with a deterministic output order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x_T = _seeded_normals(base_seed, N, gm.d)
    traj = solve_trajectory(gm, sched, x_T, grid, solver=solver, substeps=substeps)
    ds = TrajectoryDataset(sched=sched, grid=grid,
                           x_T=x_T.astype(np.float32),
                           values=traj.values.astype(np.float32))
    if path is not None:
        ds.save(path)
    return ds
