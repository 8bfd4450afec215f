import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowop import nnops, operator
from flowop.mixture import GaussianMixture
from flowop.nnops import add, idft_at, leaky_relu, no_record, param, spectral_conv
from flowop.operator import (DsnoConfig, forward, forward_loss, init_params,
                             load_checkpoint, query_at, query_positions,
                             save_checkpoint)
from flowop.schedule import NoiseSchedule
from flowop.trajectories import (_CKPT_MAGIC, TrajectoryDataset, generate_dataset,
                                 make_time_grid)
from flowop.training import (OptimizerState, TrainConfig, load_train_checkpoint,
                             save_train_checkpoint)

from checks import grad_check


def small_config(**kw):
    base = dict(d=2, C=8, L=2, J=3, M=4, E=8)
    base.update(kw)
    return DsnoConfig(**base)


def param_count(config: DsnoConfig) -> int:
    """Closed-form count of real parameters."""
    d, C, L, J, E = config.d, config.C, config.L, config.J, config.E
    return d * C + C + L * (E * C + C + 2 * (C * C + C) + 2 * J * C * C) + C * d + d


def spectral_fraction(config: DsnoConfig) -> float:
    """Share of parameters living in the temporal spectral kernels."""
    spectral = config.L * 2 * config.J * config.C * config.C
    return spectral / param_count(config)


def circ_conv(u, r):
    """O(M^2) circular convolution along the temporal axis (oracle)."""
    M = u.shape[0]
    out = np.zeros_like(u)
    for n in range(M):
        for m in range(M):
            out[n] += r[(n - m) % M] @ u[m]
    return out


def kernel_impulse_response(R, M):
    """Real-space kernel r[m] from the one-sided mode stack R (J, K, L)."""
    J = R.shape[0]
    c = np.full(J, 2.0)
    c[0] = 1.0
    if M % 2 == 0 and J - 1 == M // 2:
        c[-1] = 1.0
    m = np.arange(M)
    phases = np.exp(2j * np.pi * np.arange(J)[:, None] * m[None, :] / M)
    return np.real(np.einsum("j,jkl,jm->mkl", c / M, R, phases))


# --------------------------------------------------------------------- sizes

def test_config_validation():
    with pytest.raises(ValueError):
        DsnoConfig(M=4, J=4)
    with pytest.raises(ValueError):
        DsnoConfig(C=0)
    # time_embedding takes only an even width
    for E in (1, 3, 33):
        with pytest.raises(ValueError, match=f"E={E} must be even and >= 2"):
            DsnoConfig(E=E)
    DsnoConfig(E=2)


def test_param_count_matches_shapes():
    # the closed form, the shape table and the drawn model agree, and every
    # drawn tensor is a real float64 array
    for cfg in (DsnoConfig(), small_config(), small_config(L=1, J=2, M=2, C=3)):
        shapes = operator.param_shapes(cfg)
        assert param_count(cfg) == sum(math.prod(shape) for shape in shapes)
        tensors = init_params(cfg, seed=0).tensors()
        assert [t.value.shape for t in tensors] == shapes
        assert all(t.value.dtype == np.float64 for t in tensors)


def test_default_size_is_desk_scale():
    n = param_count(DsnoConfig())
    assert n < 500_000
    assert spectral_fraction(DsnoConfig()) == pytest.approx(
        4 * 2 * 3 * 64 * 64 / n)


def test_init_deterministic_and_bounded():
    cfg = small_config()
    a, b = init_params(cfg, seed=3), init_params(cfg, seed=3)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.value, tb.value)
    other = init_params(cfg, seed=4)
    assert not np.array_equal(a.lift_W.value, other.lift_W.value)
    for _, t in a.named_tensors():
        assert np.max(np.abs(t.value)) <= 1.0


# ---------------------------------------------------- spectral layer algebra

def test_temporal_conv_is_circular_convolution():
    # the mode-space product equals an explicit real-space circular
    # convolution with the kernel's impulse response, for any complex R
    rng = np.random.default_rng(0)
    for M in (4, 8):
        J, K, L = M // 2 + 1, 3, 3
        R = rng.standard_normal((J, K, L)) + 1j * rng.standard_normal((J, K, L))
        u = rng.standard_normal((M, L))
        fast = spectral_conv(param(R.view(float)), param(u), np.arange(M, dtype=float),
                             M).value
        slow = circ_conv(u, kernel_impulse_response(R, M))
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_temporal_conv_shortcut_identity():
    # a zero kernel's branch is exactly 0 on the grid (dense map) and at 2M
    # query positions (factored path); leaky_relu(0) = 0 and u + 0 = u, so
    # the block's temporal convolution leaves the residual stream unchanged
    cfg = small_config()
    R = param(np.zeros((cfg.J, cfg.C, 2 * cfg.C)))
    for Q in (cfg.M, 2 * cfg.M):
        u = param(np.random.default_rng(1).standard_normal((3, Q, cfg.C)))
        k = spectral_conv(R, u, np.linspace(0, cfg.M - 1, Q), cfg.M)
        assert np.array_equal(k.value, np.zeros_like(u.value))
        assert np.array_equal(add(u, leaky_relu(k)).value, u.value)


# ------------------------------------------------------------------- forward

def test_forward_shapes(grid4):
    cfg = small_config()
    p = init_params(cfg, seed=0)
    single = forward(p, np.zeros(2), grid4)
    batch = forward(p, np.zeros((5, 2)), grid4)
    assert single.shape == (4, 2)
    assert batch.shape == (5, 4, 2)
    assert np.allclose(batch[0], single)
    with pytest.raises(ValueError, match=r"x_T must be \(d,\) or \(n, d\)"):
        forward(p, np.zeros((5, 1, 2)), grid4)


def test_forward_deterministic(grid4):
    cfg = small_config()
    p = init_params(cfg, seed=1)
    x = np.random.default_rng(3).standard_normal((3, 2))
    assert np.array_equal(forward(p, x, grid4), forward(p, x, grid4))


def test_forward_loss_gradients(grid4):
    # end-to-end gradient of the training loss through every layer type
    cfg = DsnoConfig(d=2, C=4, L=2, J=3, M=4, E=8)
    p = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2))
    target = rng.standard_normal((2, 4, 2))
    w = np.abs(rng.standard_normal(4)) + 0.2

    def f(_):
        return forward_loss(p, x, grid4, target, w)

    assert grad_check(f, p.tensors(), step=1e-5) < 1e-5


@pytest.mark.parametrize("cfg, rows, want", [
    (DsnoConfig(), 256,
     "70fbc383997d1146b9c6b12303cf6c07f7049fe6fea535e16c1b0f88c6e07c69"),
    (DsnoConfig(C=32, J=5, M=8), 64,
     "43165ad73b92003a44e42ae2d447a598d1cdfd7b157ed24773f595cb8887002a"),
], ids=["dense", "factored"])
def test_training_step_bits_pinned(cfg, rows, want):
    # the loss and every gradient of one training step, on the dense (M=4)
    # and the factored (M=8) spectral path; digests taken with float64
    # OpenBLAS 0.3.31 on x86-64, bit-identical to the one-pass graph
    # before inference shared it with the row-block evaluator
    grid = make_time_grid(cfg.M, "quadratic", NoiseSchedule())
    p = init_params(cfg, seed=21)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((rows, cfg.d))
    target = rng.standard_normal((rows, cfg.M, cfg.d))
    w = np.abs(rng.standard_normal(cfg.M)) + 0.2
    loss = forward_loss(p, x, grid, target, w)
    loss.backward()
    h = hashlib.sha256(loss.value.tobytes())
    for t in p.tensors():
        h.update(t.grad.tobytes())
    assert h.hexdigest() == want


@pytest.mark.parametrize("rows, Q, want", [
    (4096, None, "1889d385f47b097aafc5629e86710bc3bcae0dae7976469fb7615e63a11f7de9"),
    (None, None, "4bad47514da1dee1d30db16a5180c15f850e33e5fc46322e88b2eeb595e6968f"),
    (256, 64, "53057888aef71b9140322d4f9991967d50f0446f305acb05ea5b8d81e81d6a7b"),
], ids=["forward-4096", "forward-1", "query-64"])
def test_inference_bits_pinned(rows, Q, want):
    # forward on 4096 rows (dense spectral path, 8 row blocks) and on one
    # (d,) row, and query_at on 256 rows at 64 times (factored path), at the
    # default config; digests taken with float64 OpenBLAS 0.3.31 on x86-64
    cfg = DsnoConfig()
    grid = make_time_grid(cfg.M, "quadratic", NoiseSchedule())
    p = init_params(cfg, seed=31)
    x = np.random.default_rng(32).standard_normal(cfg.d if rows is None else (rows, cfg.d))
    if Q is None:
        y = forward(p, x, grid)
    else:
        y = query_at(p, x, grid, np.linspace(grid.times[0], grid.times[-1], Q))
    assert hashlib.sha256(y.tobytes()).hexdigest() == want


def test_inference_leaves_tape_recording(grid4):
    # forward/query_at build no graph, and neither leaves the tape off,
    # even when they raise inside the no-record scope
    cfg = DsnoConfig(d=2, C=4, L=1, J=3, M=4, E=8)
    p = init_params(cfg, seed=17)
    with pytest.raises(ValueError):
        forward(p, np.zeros((2, 3)), grid4)
    with pytest.raises(ValueError):
        query_at(p, np.zeros((2, 3)), grid4, grid4.times)
    forward(p, np.zeros((2, 2)), grid4)
    rng = np.random.default_rng(18)
    loss = forward_loss(p, rng.standard_normal((2, 2)), grid4,
                        rng.standard_normal((2, 4, 2)), np.ones(4))
    loss.backward()
    assert all(t.grad is not None and np.any(t.grad != 0) for t in p.tensors())


@pytest.mark.parametrize("call", ["forward", "forward_loss", "query_at"])
def test_model_refuses_a_grid_of_another_length(call):
    p = init_params(small_config(), seed=0)           # M = 4
    grid = make_time_grid(8, "quadratic", NoiseSchedule())
    x = np.zeros((3, 2))
    calls = {"forward": lambda: forward(p, x, grid),
             "forward_loss": lambda: forward_loss(p, x, grid, np.zeros((3, 8, 2)), np.ones(8)),
             "query_at": lambda: query_at(p, x, grid, grid.times[:2])}
    with pytest.raises(ValueError, match="grid M=8 != model M=4"):
        calls[call]()


# ------------------------------------------------------------------- queries

def test_query_positions_endpoints(grid4):
    pos = query_positions(grid4, grid4.times)
    assert np.array_equal(pos, np.arange(4.0))


def test_query_positions_monotone(grid4):
    q = np.linspace(grid4.times[-1], grid4.times[0], 50)
    pos = query_positions(grid4, q)
    assert np.all(np.diff(pos) < 0) or np.all(np.diff(pos[::-1]) > 0)
    assert pos.min() >= 0 and pos.max() <= 3


def test_query_positions_out_of_range(grid4):
    with pytest.raises(ValueError):
        query_positions(grid4, [grid4.times[0] + 0.1])
    with pytest.raises(ValueError):
        query_positions(grid4, [grid4.times[-1] / 2])


@pytest.mark.parametrize("times", [[], [np.nan], [0.5, np.nan], [np.inf], 0.5,
                                   [[0.5, 0.4]]])
def test_query_positions_rejects_empty_and_non_finite(grid4, times):
    # NaN passes the span check, and the spectral transform would spread it
    # over every output of the row; no times at all divides by zero in query_at;
    # times that are not a 1-D array fail deep inside the evaluator
    with pytest.raises(ValueError, match="non-empty set of finite times"):
        query_positions(grid4, times)
    params = init_params(small_config(), seed=0)
    with pytest.raises(ValueError, match="non-empty set of finite times"):
        query_at(params, np.zeros((3, 2)), grid4, times)


def test_query_at_grid_reproduces_forward(grid4):
    cfg = small_config()
    p = init_params(cfg, seed=7)
    # 1500 rows span three of the evaluator's row blocks at Q = 4
    for n in (3, 1500):
        x = np.random.default_rng(8).standard_normal((n, 2))
        assert np.array_equal(query_at(p, x, grid4, grid4.times), forward(p, x, grid4))


def test_query_at_dense_times_finite(grid4):
    cfg = small_config()
    p = init_params(cfg, seed=9)
    x = np.random.default_rng(10).standard_normal(2)
    q = np.linspace(grid4.times[0], grid4.times[-1], 33)
    out = query_at(p, x, grid4, q)
    assert out.shape == (33, 2)
    assert np.all(np.isfinite(out))


def test_dense_query_preserves_band_limited_modes(grid4, mode_stacks):
    # the spectral branch sampled at 2M equispaced index positions is
    # band-limited: its fine DFT vanishes above the retained band and
    # reproduces the mode stack it was decoded from
    cfg = small_config()
    p = init_params(cfg, seed=11)
    x = np.random.default_rng(12).standard_normal(2)
    M2 = 2 * cfg.M
    idx = np.arange(M2) * cfg.M / M2
    dense_times = np.interp(idx, np.arange(cfg.M), grid4.times)
    out, got = mode_stacks(lambda: query_at(p, x, grid4, dense_times))
    assert out.shape == (M2, 2)
    assert len(got) == cfg.L
    for W in got:                                      # (1, J, C) mode stack
        W = W[0]
        samples = idft_at(param(np.concatenate([W.real, W.imag], axis=-1)),
                          cfg.M, idx).value            # (2M, C) K-branch rows
        fine = np.fft.fft(samples, axis=0)
        # retained band: DC carries 2 Re(W_0), middle modes carry 2 W_j,
        # the coarse Nyquist (when retained) carries W_J-1 once
        assert np.max(np.abs(fine[0] - 2 * np.real(W[0]))) < 1e-10
        for j in range(1, cfg.J):
            factor = 1.0 if (cfg.M % 2 == 0 and j == cfg.M // 2) else 2.0
            assert np.max(np.abs(fine[j] - factor * W[j])) < 1e-10
        # everything between the band and its mirror image is empty
        assert np.max(np.abs(fine[cfg.J:M2 - cfg.J + 1])) < 1e-10


def test_query_positions_map_the_midpoint_time_to_half(grid4):
    # query_positions is linear between grid knots: the time halfway
    # between times[0] and times[1] sits at index position 0.5
    t_half = 0.5 * (grid4.times[0] + grid4.times[1])
    pos = query_positions(grid4, [t_half])
    assert pos[0] == pytest.approx(0.5, abs=1e-12)


# --------------------------------------------------------- row-block evaluator

def unblocked_inference(params, x, times, positions):
    """The evaluator's oracle: one `_forward_graph` pass over all rows under
    no_record(), with no work arrays and no prebuilt spectral matrices."""
    plan = [(emb, None) for emb, _ in operator._plan(params, times, positions)]
    with no_record():
        y = operator._forward_graph(params, np.atleast_2d(x), positions, plan).value
    return y[0] if np.ndim(x) == 1 else y


@pytest.mark.parametrize("Q", [4, 64])
@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_blocked_inference_matches_one_pass(grid4, monkeypatch, workers, Q):
    # default model; row counts around one block, and the benchmark's
    # shapes: no block may be small enough for BLAS to change kernels. The
    # blocks do not depend on how many workers share them out (None: this
    # machine's CPUs); a short switch interval interleaves the workers'
    # Python code finely
    if workers is not None:
        monkeypatch.setattr(operator, "_cpus", lambda: workers)
    p = init_params(DsnoConfig(), seed=23)
    x = np.random.default_rng(24).standard_normal((4096, 2))
    times = grid4.times if Q == 4 else np.linspace(grid4.times[0], grid4.times[-1], Q)
    positions = query_positions(grid4, times)
    rows = max(1, operator._BLOCK // Q)
    counts = (0, rows - 1, rows, rows + 1) + ((3000, 4096) if Q == 4 else (256,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for xs in [x[0]] + [x[:n] for n in counts]:
            want = unblocked_inference(p, xs, times, positions)
            assert np.array_equal(query_at(p, xs, grid4, times), want)
            if Q == 4:
                assert np.array_equal(forward(p, xs, grid4), want)
    finally:
        sys.setswitchinterval(interval)


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["block0", "block2", "every"])
@pytest.mark.parametrize("call", ["forward", "query_at"])
def test_block_error_reaches_the_caller(grid4, monkeypatch, call, failing):
    # an error in any block, the caller's or a worker's, is raised by the
    # call once every worker has ended; the tape still records afterwards.
    # 4096 rows make 13 blocks of 315 or 316 rows, dealt out in turn to 3
    # workers: block 0 is the caller's, block 2 the third worker's
    monkeypatch.setattr(operator, "_cpus", lambda: 3)
    p = init_params(small_config(), seed=29)
    x = np.random.default_rng(30).standard_normal((4096, 2))
    marked = {"block0": x[:1], "block2": x[700:701], "every": x}[failing]
    graph = operator._forward_graph

    def raising(params, rows, *args):
        if np.any((rows[:, None] == marked).all(axis=-1)):
            raise BlockFailed(failing)
        return graph(params, rows, *args)

    calls = {"forward": lambda: forward(p, x, grid4),
             "query_at": lambda: query_at(p, x, grid4, grid4.times)}
    threads = threading.active_count()
    want = calls[call]()
    assert threading.active_count() == threads
    monkeypatch.setattr(operator, "_forward_graph", raising)
    with pytest.raises(BlockFailed, match=failing):
        calls[call]()
    assert threading.active_count() == threads
    assert nnops._TAPE.recording
    monkeypatch.setattr(operator, "_forward_graph", graph)
    assert np.array_equal(calls[call](), want)


@pytest.mark.parametrize("cpus", [None, 64])
def test_inference_memory_does_not_grow_with_rows(grid4, monkeypatch, cpus):
    # the work arrays and the plan are sized by the block and the worker
    # count, not by the call, and the workers' arrays stay within
    # _WORK_BYTES on any machine (None: this one's CPUs; 64: more workers
    # than that holds): 4x the rows add only their own output. 4096 rows
    # are 13 blocks, more than the 8 workers _WORK_BYTES holds at C=64
    if cpus is not None:
        monkeypatch.setattr(operator, "_cpus", lambda: cpus)
    p = init_params(DsnoConfig(), seed=25)
    x = np.random.default_rng(26).standard_normal((16384, 2))

    def peak(n):
        tracemalloc.start()
        try:
            forward(p, x[:n], grid4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4096), peak(16384)
    assert large <= small + (16384 - 4096) * 4 * 2 * 8 + 2**20
    assert large <= 16384 * 4 * 2 * 8 + operator._WORK_BYTES + 4 * 2**20


FAULT_PROBE = """
import json, resource
import numpy as np
from flowop.operator import DsnoConfig, forward, init_params, query_at
from flowop.schedule import NoiseSchedule
from flowop.trajectories import make_time_grid
grid = make_time_grid(4, "quadratic", NoiseSchedule())
p = init_params(DsnoConfig(), seed=3)
x = np.random.default_rng(4).standard_normal((4096, 2))
q = np.linspace(grid.times[0], grid.times[-1], 64)

def faults(call):
    out = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        out.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

print(json.dumps([faults(lambda: query_at(p, x[:256], grid, q)),
                  faults(lambda: forward(p, x, grid))]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts follow glibc's allocator")
def test_inference_page_faults_stay_bounded():
    # in a fresh process, with no larger call before it to raise glibc's
    # mmap and trim thresholds, a dense query (256 rows, Q=64) and a
    # 4096-row forward must not page-fault their working set back in on
    # every call; one pass over all rows took 20k and 8k faults per call
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    query, fwd = json.loads(out.splitlines()[-1])
    assert max(query[1:]) < 2000 and max(fwd[1:]) < 2000, (query, fwd)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path, grid4):
    cfg = small_config()
    p = init_params(cfg, seed=15)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, extra={"step": 7})
    q, extra = load_checkpoint(path)
    assert extra == {"step": 7}
    assert q.config == cfg
    for (na, ta), (nb, tb) in zip(p.named_tensors(), q.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.value, tb.value)
    x = np.random.default_rng(16).standard_normal((4, 2))
    assert np.array_equal(forward(p, x, grid4), forward(q, x, grid4))


def test_checkpoint_corruption_detected(tmp_path):
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, seed=17))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoints_read_and_write_without_drawing_a_model(tmp_path, monkeypatch):
    # a checkpoint's layout comes from its config's shapes: saving and
    # loading either kind draws no model and takes no random numbers
    p = init_params(DsnoConfig(), seed=19)
    rng = np.random.default_rng(20)
    state = OptimizerState(m=[rng.standard_normal(t.value.shape) for t in p.tensors()],
                           v=[rng.random(t.value.shape) for t in p.tensors()], step=3)

    def fail(*args, **kwargs):
        raise AssertionError("a checkpoint read or write drew random numbers")

    monkeypatch.setattr(operator, "init_params", fail)
    monkeypatch.setattr(np.random, "default_rng", fail)
    model, trained = tmp_path / "model.bin", tmp_path / "train.bin"
    save_checkpoint(model, p)
    save_train_checkpoint(trained, p, state, TrainConfig())
    q, _ = load_checkpoint(model)
    r, loaded, _ = load_train_checkpoint(trained)
    assert q.config == r.config == p.config and loaded.step == 3
    for got in (q.tensors(), r.tensors()):
        assert all(np.array_equal(a.value, b.value)
                   for a, b in zip(p.tensors(), got, strict=True))
    assert all(np.array_equal(a, b) for a, b in
               zip(state.m + state.v, loaded.m + loaded.v, strict=True))


def test_checkpoint_of_a_huge_claimed_model_refused_unbuilt(tmp_path):
    # a checksummed header that claims C=1000 over an empty payload is
    # refused by its payload size before any array of that size is made
    header = json.dumps({"config": {"d": 2, "C": 1000, "L": 4, "J": 3, "M": 4, "E": 32}})
    path = tmp_path / "huge.bin"
    path.write_bytes(_with_checksum(_CKPT_MAGIC + len(header).to_bytes(8, "little")
                                    + header.encode()))
    for load in (load_checkpoint, load_train_checkpoint):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload has 0 bytes, expected"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _numbered_checkpoints(tmp_path):
    """A model and a train checkpoint of a tiny model whose values are
    fixed numbers, not draws, so their bytes are fixed. The kernel's value,
    m and v are computed as complex (J, C, C) arrays and stored as their
    float views, the kernel's layout."""
    p = init_params(DsnoConfig(d=2, C=2, L=1, J=1, M=1, E=2), seed=0)
    values = []
    for i, (name, t) in enumerate(p.named_tensors()):
        kernel = name.endswith("kernel")
        shape = (*t.value.shape[:-1], t.value.shape[-1] // 2) if kernel else t.value.shape
        v = np.arange(np.prod(shape, dtype=int), dtype=float).reshape(shape) / 7 + i
        values.append(v * (1 - 0.5j) if kernel else v)
        t.value = values[-1].view(float)
    state = OptimizerState(m=[(v / 3).view(float) for v in values],
                           v=[(v / 5).view(float) for v in values], step=9)
    model, trained = tmp_path / "model.bin", tmp_path / "train.bin"
    save_checkpoint(model, p, extra={"steps": 3})
    save_train_checkpoint(trained, p, state,
                          TrainConfig(batch_size=4, total_steps=5, warmup_steps=1))
    return model, trained


def test_checkpoint_bytes_pinned(tmp_path):
    # the on-disk format of both checkpoint kinds, byte for byte
    model, trained = _numbered_checkpoints(tmp_path)
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "a669712f37070f541f6b07ac6cc46c26726e84bf91f064d3aed5aa41ca889847")
    assert hashlib.sha256(trained.read_bytes()).hexdigest() == (
        "6f22ed8ad277bbee72e38bb2e81eb8cb9c8c3bb94d802e1cf1c8b1ae5e4ab4bc")


def _small_dataset(tmp_path):
    grid = make_time_grid(2, "quadratic", NoiseSchedule())
    path = tmp_path / "data.bin"
    generate_dataset(GaussianMixture([1.0], [[0.0, 0.0]], [1.0]), NoiseSchedule(), grid,
                     N=2, base_seed=0, substeps=1, path=path)
    return path


def test_checkpoint_truncated_at_every_length(tmp_path):
    for path in _numbered_checkpoints(tmp_path) + (_small_dataset(tmp_path),):
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            for load in (load_checkpoint, load_train_checkpoint, TrajectoryDataset.load):
                with pytest.raises(ValueError):
                    load(cut)
    # a header length that runs past the end, under a valid checksum
    cut.write_bytes(_with_checksum(_CKPT_MAGIC + (100).to_bytes(8, "little") + b"{}"))
    for load in (load_checkpoint, load_train_checkpoint):
        with pytest.raises(ValueError, match="truncated inside its header"):
            load(cut)


def test_checkpoint_kinds_not_interchangeable(tmp_path):
    # the two checkpoint kinds share the container and differ in payload
    # size; datasets have their own format and magic
    model, trained = _numbered_checkpoints(tmp_path)
    with pytest.raises(ValueError, match="payload has .* expected"):
        load_checkpoint(trained)
    with pytest.raises(ValueError, match="payload has .* expected"):
        load_train_checkpoint(model)
    data = _small_dataset(tmp_path)
    for load in (load_checkpoint, load_train_checkpoint):
        with pytest.raises(ValueError, match="not a checkpoint file: magic b'DSNO'"):
            load(data)
    for path in (model, trained):
        with pytest.raises(ValueError, match="not a trajectory dataset"):
            TrajectoryDataset.load(path)


def _with_checksum(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()[:8]


@pytest.mark.parametrize("header", [b"{}", b'{"config": {"q": 2}}', b"[]", b"7", b"{"])
def test_checkpoint_bad_header_refused(tmp_path, header):
    # a header without a usable config raises ValueError, not the
    # KeyError or TypeError of building the config from it; the files carry
    # a valid checksum, so they reach the header parse
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_checksum(_CKPT_MAGIC + len(header).to_bytes(8, "little") + header))
    for load in (load_checkpoint, load_train_checkpoint):
        with pytest.raises(ValueError, match="bad checkpoint header"):
            load(path)


def test_checkpoint_header_under_checksum(tmp_path):
    # an edit to the header that still parses is refused, and so is a file
    # of an earlier format: FOP1, whose checksum covered the payload only,
    # and FOP2, whose header held keys that are now constants
    model, trained = _numbered_checkpoints(tmp_path)
    for path, load in ((model, load_checkpoint), (trained, load_train_checkpoint)):
        raw = path.read_bytes()
        assert raw.count(b'"E":2') == 1
        path.write_bytes(raw.replace(b'"E":2', b'"E":4'))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load(path)
        body = raw[4:-8]
        payload = body[8 + int.from_bytes(body[:8], "little"):]
        path.write_bytes(b"FOP1" + body + hashlib.sha256(payload).digest()[:8])
        with pytest.raises(ValueError, match=f"magic b'FOP1', expected {_CKPT_MAGIC!r}"):
            load(path)
        path.write_bytes(_with_checksum(b"FOP2" + body))
        with pytest.raises(ValueError, match=f"magic b'FOP2', expected {_CKPT_MAGIC!r}"):
            load(path)


def test_checkpoint_casts_to_its_layout(tmp_path):
    # a tensor held as f32 or int is written as the f64 its config gives
    # it, so the file loads; one that does not fit is refused unwritten
    p = init_params(small_config(), seed=3)
    p.lift_W.value = p.lift_W.value.astype(np.float32)
    p.lift_b.value = np.arange(p.lift_b.value.size)
    path = tmp_path / "model.bin"
    save_checkpoint(path, p)
    q, _ = load_checkpoint(path)
    for ta, tb in zip(p.tensors(), q.tensors()):
        assert tb.value.dtype == np.float64
        assert np.array_equal(ta.value, tb.value)
    before = path.read_bytes()
    for bad in (p.proj_b.value[:-1], p.proj_b.value * 1j):
        p.proj_b.value = bad
        with pytest.raises(ValueError, match="does not fit"):
            save_checkpoint(path, p)
        assert path.read_bytes() == before


@pytest.mark.parametrize("failing", ["_checksum", "replace"])
def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, failing):
    # a failure mid-write (the checksum comes last) or at the rename
    # leaves the previous file byte-identical and no temporary behind
    import flowop.trajectories as container
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_params(small_config(), seed=1))
    before = path.read_bytes()

    def fail(*args):
        raise OSError("injected")

    monkeypatch.setattr(container if failing == "_checksum" else os, failing, fail)
    with pytest.raises(OSError, match="injected"):
        save_checkpoint(path, init_params(small_config(), seed=2))
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.bin"]
