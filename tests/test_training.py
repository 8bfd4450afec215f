import contextlib
import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowop import nnops, operator, training
from flowop.nnops import param
from flowop.operator import DsnoConfig, forward, forward_loss, init_params, params_from
from flowop.schedule import NoiseSchedule, loss_weight
from flowop.trajectories import (TrajectoryDataset, generate_dataset, make_time_grid,
                                 write_container)
from flowop.training import (OptimizerState, TrainConfig, adam_step,
                             _batch_indices, eval_trajectory_rmse, grid_weights,
                             load_train_checkpoint, lr_at,
                             save_train_checkpoint, sliced_wasserstein, train,
                             weighted_loss)

from checks import convergence_order


@pytest.fixture
def tiny_dataset(sched, bimodal, grid4):
    return generate_dataset(bimodal, sched, grid4, N=64, base_seed=0, substeps=8)


def tiny_train_config(**kw):
    base = dict(batch_size=16, total_steps=6, base_lr=1e-3, warmup_steps=3,
                weighting="snr_sqrt", seed=0)
    base.update(kw)
    return TrainConfig(**base)


TINY_MODEL = DsnoConfig(d=2, C=8, L=1, J=3, M=4, E=8)


# ------------------------------------------------------------- loss plumbing

def test_grid_weights(sched, grid4):
    assert np.array_equal(grid_weights(sched, grid4, "uniform"), np.ones(4))
    w = grid_weights(sched, grid4, "snr_sqrt")
    assert np.array_equal(w, [loss_weight(sched, t) for t in grid4.times])
    assert np.all(np.diff(w) > 0)  # later grid rows sit at smaller times


def test_weighted_loss_hand_value(sched, grid4):
    pred = np.zeros((4, 2))
    target = np.ones((4, 2))
    assert weighted_loss(pred, target, grid4, "uniform") == pytest.approx(2.0)
    expected = np.mean([2 * loss_weight(sched, t) for t in grid4.times])
    assert weighted_loss(pred, target, grid4, "snr_sqrt", sched) == pytest.approx(expected)


def test_weighted_loss_batch_average(sched, grid4):
    rng = np.random.default_rng(0)
    p, t = rng.standard_normal((5, 4, 2)), rng.standard_normal((5, 4, 2))
    batched = weighted_loss(p, t, grid4, "snr_sqrt", sched)
    singles = [weighted_loss(p[i], t[i], grid4, "snr_sqrt", sched) for i in range(5)]
    assert batched == pytest.approx(np.mean(singles), rel=1e-12)


def test_weighted_loss_needs_schedule(grid4):
    with pytest.raises(ValueError):
        weighted_loss(np.zeros((4, 2)), np.zeros((4, 2)), grid4, "snr_sqrt")
    for pred, target in ((np.zeros((4, 2)), np.zeros((4, 3))),
                         (np.zeros((3, 2)), np.zeros((3, 2)))):
        with pytest.raises(ValueError, match="shape mismatch"):
            weighted_loss(pred, target, grid4, "uniform")


# --------------------------------------------------------------- optimizer

def test_lr_warmup():
    tc = tiny_train_config(base_lr=1e-3, warmup_steps=4, total_steps=10)
    assert lr_at(tc, 0) == 0.0
    assert lr_at(tc, 2) == pytest.approx(5e-4)
    assert lr_at(tc, 4) == pytest.approx(1e-3)
    assert lr_at(tc, 9) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        lr_at(tc, -1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_train_config(warmup_steps=10, total_steps=5)
    with pytest.raises(ValueError):
        tiny_train_config(weighting="snr")
    for lr in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="base_lr must be positive and finite"):
            tiny_train_config(base_lr=lr)


def test_adam_first_step_is_signed_lr():
    # with zero state the first bias-corrected update is lr * g / (|g| + eps),
    # lr * sign(g) but for Adam's eps of 1e-8
    p = param(np.array([1.0, -2.0, 3.0]))
    g = np.array([0.3, -0.1, 2.0])
    st = OptimizerState.fresh([p])
    adam_step([p], [g], st, lr=0.1)
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.value, expected, rtol=1e-12)


@pytest.mark.parametrize("cfg", [DsnoConfig(d=2, C=4, L=1, J=3, M=4, E=8),
                                 DsnoConfig(d=2, C=4, L=1, J=5, M=8, E=8)],
                         ids=["dense", "factored"])
def test_params_grads_and_adam_state_are_float64(cfg):
    # one number type on the tape: the spectral kernel is held, differentiated
    # and updated as real (Re, Im) pairs, on both spectral paths
    assert nnops._dense_spectral_map(cfg.M, cfg.J) == (cfg.M == 4)
    grid = make_time_grid(cfg.M, "quadratic", NoiseSchedule())
    p = init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    loss = forward_loss(p, rng.standard_normal((3, cfg.d)), grid,
                        rng.standard_normal((3, cfg.M, cfg.d)), np.ones(cfg.M))
    loss.backward()
    tensors = p.tensors()
    grads = [t.grad for t in tensors]
    state = OptimizerState.fresh(tensors)
    adam_step(tensors, grads, state, lr=1e-3)
    arrays = [t.value for t in tensors] + grads + state.m + state.v
    assert [a.dtype for a in arrays] == [np.dtype(np.float64)] * 4 * len(tensors)


def test_adam_rejects_non_finite_gradient():
    p = param(np.array([1.0]))
    st = OptimizerState.fresh([p])
    with pytest.raises(FloatingPointError):
        adam_step([p], [np.array([np.nan])], st, lr=0.1)


def test_adam_checks_every_gradient_before_moving_any_state():
    # a NaN in the last gradient must leave the earlier tensors, both
    # moments and the step count as they were
    params = [param(np.array([1.0, -1.0])), param(np.array([2.0]))]
    st = OptimizerState.fresh(params)
    adam_step(params, [np.array([0.5, 0.25]), np.array([1.0])], st, lr=0.1)
    before = [a.copy() for a in [p.value for p in params] + st.m + st.v]
    with pytest.raises(FloatingPointError, match="tensor 1"):
        adam_step(params, [np.array([0.5, 0.25]), np.array([np.nan])], st, lr=0.1)
    after = [p.value for p in params] + st.m + st.v
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert st.step == 1


@pytest.mark.parametrize("cfg", [DsnoConfig(d=2, C=4, L=2, J=3, M=4, E=8),
                                 DsnoConfig(d=2, C=4, L=2, J=5, M=8, E=8)],
                         ids=["dense", "factored"])
def test_workspace_passes_match_fresh_arrays(cfg):
    # each pass in one workspace reuses the arrays the last pass let go;
    # its loss and gradients must equal those of a pass on fresh arrays,
    # bit for bit, on both spectral paths
    grid = make_time_grid(cfg.M, "quadratic", NoiseSchedule())
    p = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    batches = [(rng.standard_normal((5, cfg.d)), rng.standard_normal((5, cfg.M, cfg.d)))
               for _ in range(3)]

    def step(x, y):
        loss = forward_loss(p, x, grid, y, np.ones(cfg.M))
        loss.backward()
        out = [loss.value.copy()] + [t.grad.copy() for t in p.tensors()]
        for t in p.tensors():
            t.grad = None
        return out

    want = [step(x, y) for x, y in batches]
    with nnops.workspace():
        got = [step(x, y) for x, y in batches]
    for w, g in zip(want, got):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(w, g))


def test_batch_indices_cover_epoch():
    N, B = 32, 8
    seen = np.concatenate([_batch_indices(N, B, seed=1, step=s) for s in range(4)])
    assert sorted(seen.tolist()) == list(range(N))
    # the next epoch reshuffles
    nxt = np.concatenate([_batch_indices(N, B, seed=1, step=s) for s in range(4, 8)])
    assert sorted(nxt.tolist()) == list(range(N))
    assert not np.array_equal(seen, nxt)


def test_batch_indices_deterministic():
    a = _batch_indices(100, 16, seed=3, step=11)
    b = _batch_indices(100, 16, seed=3, step=11)
    assert np.array_equal(a, b)


# ------------------------------------------------------------- training loop

def test_train_loss_decreases(tiny_dataset):
    tc = tiny_train_config(total_steps=60, warmup_steps=10, base_lr=3e-3)
    res = train(tiny_dataset, tc, TINY_MODEL)
    losses = [lo for _, _, lo in res.loss_curve]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_deterministic(tiny_dataset):
    tc = tiny_train_config()
    a = train(tiny_dataset, tc, TINY_MODEL)
    b = train(tiny_dataset, tc, TINY_MODEL)
    for (_, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
        assert np.array_equal(ta.value, tb.value)
    assert a.loss_curve == b.loss_curve


def test_train_rejects_mismatched_model(tiny_dataset):
    with pytest.raises(ValueError, match="grid M=4 != model M=2"):
        train(tiny_dataset, tiny_train_config(), DsnoConfig(d=2, C=8, L=1, J=2, M=2, E=8))
    with pytest.raises(ValueError, match="dimension mismatch"):
        train(tiny_dataset, tiny_train_config(), DsnoConfig(d=3, C=8, L=1, J=3, M=4, E=8))
    p = init_params(DsnoConfig(d=2, C=8, L=1, J=2, M=2, E=8), seed=0)
    with pytest.raises(ValueError, match="grid M=4 != model M=2"):
        eval_trajectory_rmse(p, tiny_dataset)


def test_train_rejects_non_finite_loss(tiny_dataset):
    bad = dataclasses.replace(tiny_dataset, values=np.full_like(tiny_dataset.values, np.nan))
    with pytest.raises(FloatingPointError, match="non-finite loss at step 0"):
        train(bad, tiny_train_config(), TINY_MODEL)


def test_train_writes_loss_curve(tmp_path, tiny_dataset):
    tc = tiny_train_config()
    train(tiny_dataset, tc, TINY_MODEL, out_dir=str(tmp_path))
    lines = (tmp_path / "loss.tsv").read_text().strip().split("\n")
    assert lines[0] == "step\tlr\tloss"
    assert len(lines) == tc.total_steps + 1
    step, lr, loss = lines[1].split("\t")
    assert int(step) == 0 and float(lr) > 0 and float(loss) > 0


def test_failed_loss_write_keeps_previous_file(tmp_path, monkeypatch, tiny_dataset):
    # loss.tsv is renamed into place: a failed rename leaves the previous
    # curve byte-identical and no temporary behind
    result = train(tiny_dataset, tiny_train_config(), TINY_MODEL, out_dir=str(tmp_path))
    before = (tmp_path / "loss.tsv").read_bytes()
    assert before == ("step\tlr\tloss\n" + "".join(
        f"{s}\t{lr:.8g}\t{lo:.10g}\n" for s, lr, lo in result.loss_curve)).encode()

    def fail(*args, **kwargs):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="injected"):
        train(tiny_dataset, tiny_train_config(total_steps=3, seed=1), TINY_MODEL,
              out_dir=str(tmp_path))
    assert (tmp_path / "loss.tsv").read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["loss.tsv"]


def _checkpoint_at_step_4(tmp_path, dataset, tc):
    ckpt_dir = tmp_path / "ck"
    ckpt_dir.mkdir()
    train(dataset, TrainConfig(**{**vars(tc), "total_steps": 4}), TINY_MODEL,
          out_dir=str(ckpt_dir), checkpoint_every=4)
    return str(ckpt_dir / "ckpt_0000004.bin")


def test_train_refuses_a_dataset_without_records(tmp_path, tiny_dataset):
    # a file of 0 records loads; its batches would divide by their size
    empty = dataclasses.replace(tiny_dataset, x_T=tiny_dataset.x_T[:0],
                                values=tiny_dataset.values[:0])
    with pytest.raises(ValueError, match="holds no records"):
        train(empty, tiny_train_config(), TINY_MODEL, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_resume_matches_uninterrupted(tmp_path, tiny_dataset):
    # checkpoint mid-run, resume, and demand the exact same parameter trace
    tc = tiny_train_config(total_steps=8, warmup_steps=2)
    full = train(tiny_dataset, tc, TINY_MODEL)
    resumed = train(tiny_dataset, tc, TINY_MODEL,
                    resume_from=_checkpoint_at_step_4(tmp_path, tiny_dataset, tc))
    for (_, ta), (_, tb) in zip(full.params.named_tensors(),
                                resumed.params.named_tensors()):
        assert np.array_equal(ta.value, tb.value)


def test_resume_refuses_other_model(tmp_path, tiny_dataset):
    tc = tiny_train_config(total_steps=8, warmup_steps=2)
    ckpt = _checkpoint_at_step_4(tmp_path, tiny_dataset, tc)
    other = DsnoConfig(d=2, C=16, L=2, J=3, M=4, E=8)
    with pytest.raises(ValueError, match="model.C=8, this run has 16"):
        train(tiny_dataset, tc, other, resume_from=ckpt)


def test_resume_refuses_other_train_config(tmp_path, tiny_dataset):
    tc = tiny_train_config(total_steps=8, warmup_steps=2)
    ckpt = _checkpoint_at_step_4(tmp_path, tiny_dataset, tc)
    for key, val in (("seed", 5), ("batch_size", 32), ("base_lr", 2e-3)):
        other = TrainConfig(**{**vars(tc), key: val})
        with pytest.raises(ValueError, match=f"train.{key}="):
            train(tiny_dataset, other, TINY_MODEL, resume_from=ckpt)


def test_train_checkpoints_into_new_directory(tmp_path, tiny_dataset):
    out = tmp_path / "new" / "run"
    train(tiny_dataset, tiny_train_config(total_steps=4, warmup_steps=2),
          TINY_MODEL, out_dir=str(out), checkpoint_every=2)
    assert (out / "ckpt_0000002.bin").exists()
    assert (out / "ckpt_0000004.bin").exists()


@pytest.mark.parametrize("every, out, match", [
    (-1, "run", "checkpoint_every must be >= 0, got -1"),
    (1, None, "checkpoint_every needs an out_dir"),
], ids=["negative", "no-out-dir"])
def test_train_checks_checkpoint_every_before_the_first_step(tmp_path, monkeypatch,
                                                             tiny_dataset, every, out, match):
    # -1 would checkpoint after every step, and a period without a directory
    # would silently write nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=match):
        train(tiny_dataset, tiny_train_config(total_steps=2, warmup_steps=1), TINY_MODEL,
              out_dir=out, checkpoint_every=every)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cfg", [DsnoConfig(), DsnoConfig(C=32, J=5, M=8)],
                         ids=["dense", "factored"])
def test_train_steps_reuse_the_first_steps_arrays(monkeypatch, cfg):
    # two-shard models at B=256, the default (dense spectral map) and one on
    # the factored path (n M C^2 = 2^21): after the first step, no step's
    # traced memory may rise by one (B, Q, C) float64 array (512 KiB at both)
    # above its starting level; a step that allocates its graph afresh rises
    # by the whole graph. train reads only the dataset's shapes, grid and
    # schedule
    assert len(training._shard_edges(256, cfg)) == 2
    assert nnops._dense_spectral_map(cfg.M, cfg.J) == (cfg.M == 4)
    sched = NoiseSchedule()
    rng = np.random.default_rng(7)
    ds = TrajectoryDataset(sched, make_time_grid(cfg.M, "quadratic", sched),
                           rng.standard_normal((512, cfg.d)).astype(np.float32),
                           rng.standard_normal((512, cfg.M, cfg.d)).astype(np.float32))
    starts, rises = [], []

    def hooked(*args, fn=training._batch_indices):
        if starts:
            rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return fn(*args)

    monkeypatch.setattr(training, "_batch_indices", hooked)
    tracemalloc.start()
    try:
        res = train(ds, TrainConfig(batch_size=256, total_steps=5, warmup_steps=1), cfg)
        rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
    finally:
        tracemalloc.stop()
    assert len(rises) == 5
    assert max(rises[1:]) < 256 * cfg.M * cfg.C * 8, rises
    assert all(t.grad is None for t in res.params.tensors())
    assert nnops._TAPE.workspace is None


TRAIN_FAULT_PROBE = """
import copy, json, resource, tracemalloc
import numpy as np
from flowop import training
from flowop.operator import DsnoConfig, init_params
from flowop.schedule import NoiseSchedule
from flowop.trajectories import TrajectoryDataset, make_time_grid
cfg, sched = DsnoConfig(), NoiseSchedule()
rng = np.random.default_rng(7)
ds = TrajectoryDataset(sched, make_time_grid(cfg.M, "quadratic", sched),
                       rng.standard_normal((512, cfg.d)).astype(np.float32),
                       rng.standard_normal((512, cfg.M, cfg.d)).astype(np.float32))
tc = training.TrainConfig(batch_size=256, total_steps=8, warmup_steps=1)
faults, batch_indices = [], training._batch_indices

def hooked(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return batch_indices(*args)

training._batch_indices = hooked
training.train(ds, tc, cfg)
faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
training._batch_indices = batch_indices
# a second call in the same process: all it leaves behind is its result
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
result = training.train(ds, tc, cfg)
left = tracemalloc.get_traced_memory()[0] - base
# the result's size: params of the same config, drawn afresh, and a curve
base = tracemalloc.get_traced_memory()[0]
twin = init_params(cfg, seed=0), copy.deepcopy(result.loss_curve)
size = tracemalloc.get_traced_memory()[0] - base
print(json.dumps([np.diff(faults).tolist(), left, size]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts follow glibc's allocator")
def test_train_steps_do_not_fault_and_leave_only_their_result():
    # in a fresh process, steps 2..8 of one call of the default model at
    # B=256 run in the arrays the first step faulted in. They took 1 to
    # 4613 minor faults each (most about 350) while every step allocated
    # its graph afresh, and take 0 to 13 now; 100 lies between the two.
    # A second call may leave behind no more traced memory than its result
    # (params and loss curve) takes, give or take 64 KiB for the free lists
    # of the interpreter and numpy: the last step's parameter gradients
    # alone take 1.1 MB, one (B, Q, C) array 512 KiB
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", TRAIN_FAULT_PROBE], env=env,
                         check=True, capture_output=True, text=True, timeout=300).stdout
    steps, left, size = json.loads(out.splitlines()[-1])
    assert len(steps) == 8 and max(steps[1:]) <= 100, steps
    assert left <= size + 64 * 1024, (left, size)


# ------------------------------------------------------------ sharded steps

def random_dataset(cfg, N, seed):
    """A dataset of N random records on the default grid: train reads only
    its shapes, values, grid and schedule."""
    sched = NoiseSchedule()
    rng = np.random.default_rng(seed)
    return TrajectoryDataset(sched, make_time_grid(cfg.M, "quadratic", sched),
                             rng.standard_normal((N, cfg.d)).astype(np.float32),
                             rng.standard_normal((N, cfg.M, cfg.d)).astype(np.float32))


@contextlib.contextmanager
def short_switch_interval():
    """Let the interpreter switch threads every microsecond, so the shards'
    Python code interleaves finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("cfg, batch", [(DsnoConfig(), 256), (DsnoConfig(), 255),
                                        (DsnoConfig(C=16, L=2, J=5, M=8), 64)],
                         ids=["default", "odd-batch", "factored"])
def test_sharded_step_is_the_sum_of_its_shards(monkeypatch, cfg, batch, cpus):
    # one step's loss and gradients are, bit for bit, the serial sum in
    # shard order of forward_loss over the batch's row shards with weights
    # w * rows_k / B, run on fresh arrays; they are the batch's own loss and
    # gradients to 1e-12, relative
    ds = random_dataset(cfg, 512, seed=40)
    tc = TrainConfig(batch_size=batch, total_steps=1, warmup_steps=1, seed=3)
    seen = []

    def adam(tensors, grads, state, lr, fn=training.adam_step):
        seen.append([g.copy() for g in grads])
        return fn(tensors, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", adam)
    monkeypatch.setattr(training, "_SHARD_MACS", 0)     # the factored model is small
    monkeypatch.setattr(operator, "_cpus", lambda: cpus)
    with short_switch_interval():
        res = train(ds, tc, cfg)
    (got,) = seen
    loss = res.loss_curve[0][2]

    idx = training._batch_indices(ds.N, batch, tc.seed, 0)
    x, y = ds.x_T.astype(float)[idx], ds.values.astype(float)[idx]
    w = grid_weights(ds.sched, ds.grid, tc.weighting)
    arrays = [t.value for t in init_params(cfg, seed=tc.seed).tensors()]
    want_loss, want = 0, None
    for lo, hi in ((0, batch // 2), (batch // 2, batch)):
        p = params_from(cfg, arrays)
        part = forward_loss(p, x[lo:hi], ds.grid, y[lo:hi], w * ((hi - lo) / batch))
        part.backward()
        want_loss += float(part.value)
        if want is None:
            want = [t.grad.copy() for t in p.tensors()]
        else:
            for g, t in zip(want, p.tensors()):
                g += t.grad
    assert loss == want_loss
    assert all(g.tobytes() == h.tobytes() for g, h in zip(got, want))

    p = params_from(cfg, arrays)
    whole = forward_loss(p, x, ds.grid, y, w)
    whole.backward()
    assert loss == pytest.approx(float(whole.value), rel=1e-12, abs=0)
    for g, t in zip(got, p.tensors()):
        assert np.max(np.abs(g - t.grad)) <= 1e-12 * np.max(np.abs(t.grad))


def test_train_bits_do_not_depend_on_the_cpu_count(monkeypatch):
    # the shards run on min(CPUs, 2) threads: the caller and one worker
    # thread that lives for the whole call. The parameters and the loss
    # curve of a call are the same at any thread count. The tiny model
    # shards only with the size threshold off
    monkeypatch.setattr(training, "_SHARD_MACS", 0)
    ds = random_dataset(TINY_MODEL, 100, seed=41)
    tc = tiny_train_config(batch_size=33, total_steps=7)
    shard_loss, runs = training._shard_loss, []

    def recorded(params, pool, x, *args):
        runs.append((len(x), threading.current_thread()))
        return shard_loss(params, pool, x, *args)

    monkeypatch.setattr(training, "_shard_loss", recorded)
    results = {}
    with short_switch_interval():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(operator, "_cpus", lambda: cpus)
            runs.clear()
            results[cpus] = train(ds, tc, TINY_MODEL)
            assert sorted(n for n, _ in runs) == [16] * 7 + [17] * 7
            assert {t for n, t in runs if n == 16} == {threading.main_thread()}
            (second,) = {t for n, t in runs if n == 17}
            assert (second is threading.main_thread()) == (cpus == 1)
    for res in results.values():
        assert res.loss_curve == results[1].loss_curve
        assert all(a.value.tobytes() == b.value.tobytes()
                   for a, b in zip(res.params.tensors(), results[1].params.tensors()))


class ShardFailed(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_shard_error_reaches_the_caller(monkeypatch, tiny_dataset, where):
    # an error in a shard on either thread is raised by train() once its
    # worker has ended (no_leaked_threads), every tape scope is restored,
    # and the next call trains as if none had failed
    monkeypatch.setattr(training, "_SHARD_MACS", 0)
    monkeypatch.setattr(operator, "_cpus", lambda: 2)
    tc = tiny_train_config()
    want = train(tiny_dataset, tc, TINY_MODEL)
    shard_loss = training._shard_loss

    def failing(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if args[-1] == 3 and on_caller == (where == "caller"):
            raise ShardFailed(where)
        return shard_loss(*args)

    monkeypatch.setattr(training, "_shard_loss", failing)
    threads = threading.active_count()
    with pytest.raises(ShardFailed, match=where):
        train(tiny_dataset, tc, TINY_MODEL)
    assert threading.active_count() == threads
    assert nnops._TAPE.workspace is None and nnops._TAPE.recording
    monkeypatch.setattr(training, "_shard_loss", shard_loss)
    again = train(tiny_dataset, tc, TINY_MODEL)
    assert again.loss_curve == want.loss_curve
    assert all(np.array_equal(a.value, b.value)
               for a, b in zip(again.params.tensors(), want.params.tensors()))


@pytest.mark.parametrize("n, cfg, shards", [
    (256, DsnoConfig(), 2), (255, DsnoConfig(), 2), (128, DsnoConfig(), 2),
    (127, DsnoConfig(), 1), (256, DsnoConfig(C=32, L=2), 1),
    (64, DsnoConfig(C=32, L=2, J=5, M=8), 1), (1, DsnoConfig(C=2048), 1),
], ids=["default", "odd", "half", "under-half", "C32", "criterion-8-M8", "one-row"])
def test_small_batches_run_as_one_shard(n, cfg, shards):
    # two shards from n * M * C^2 = 2^21 multiply-adds per affine, half the
    # default model's; they cover the rows in order, equal to within one
    edges = training._shard_edges(n, cfg)
    assert len(edges) == shards
    assert edges[0][0] == 0 and edges[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    assert max(hi - lo for lo, hi in edges) - min(hi - lo for lo, hi in edges) <= 1


def test_batch_of_one_row_trains_as_one_shard(monkeypatch, tiny_dataset):
    # one row cannot be split: each step runs one shard of the whole batch,
    # and its loss is that of forward_loss on the row
    monkeypatch.setattr(training, "_SHARD_MACS", 0)
    monkeypatch.setattr(operator, "_cpus", lambda: 2)
    shard_loss, rows = training._shard_loss, []

    def recorded(params, pool, x, *args):
        rows.append(len(x))
        return shard_loss(params, pool, x, *args)

    monkeypatch.setattr(training, "_shard_loss", recorded)
    tc = tiny_train_config(batch_size=1, total_steps=3, warmup_steps=1)
    res = train(tiny_dataset, tc, TINY_MODEL)
    assert rows == [1, 1, 1]
    idx = training._batch_indices(tiny_dataset.N, 1, tc.seed, 0)
    w = grid_weights(tiny_dataset.sched, tiny_dataset.grid, tc.weighting)
    first = forward_loss(init_params(TINY_MODEL, seed=tc.seed), tiny_dataset.x_T[idx],
                         tiny_dataset.grid, tiny_dataset.values[idx].astype(float), w)
    assert res.loss_curve[0][2] == float(first.value)


def test_summed_gradients_keep_a_shared_gradient_array_apart():
    # add() hands both of its parents one gradient array; summing the next
    # shard into it in place would add that shard's gradients into both
    x = np.arange(8.0).reshape(1, 4, 2)
    target, w = np.zeros((1, 4, 2)), np.ones(4)
    shards, want = [], []
    for k in range(2):
        a, b = param(x.copy()), param(2 * x)
        nnops.weighted_l1(nnops.add(a, b), target + k, w).backward()
        shards.append([a, b])
        want.append([a.grad.copy(), b.grad.copy()])
    assert shards[0][0].grad is shards[0][1].grad
    grads = training._summed_grads(shards)
    for i in range(2):
        assert np.array_equal(grads[i], want[0][i] + want[1][i])


def test_train_checkpoint_round_trip(tmp_path):
    p = init_params(TINY_MODEL, seed=2)
    st = OptimizerState.fresh(p.tensors())
    rng = np.random.default_rng(3)
    st.m = [rng.standard_normal(m.shape).astype(m.dtype) for m in st.m]
    st.v = [np.abs(rng.standard_normal(v.shape)).astype(v.dtype) for v in st.v]
    st.step = 42
    path = tmp_path / "train.ckpt"
    tc = tiny_train_config()
    save_train_checkpoint(path, p, st, tc)
    q, st2, extra = load_train_checkpoint(path)
    assert st2.step == 42
    assert extra["train"]["batch_size"] == tc.batch_size
    for a, b in zip(p.tensors(), q.tensors()):
        assert np.array_equal(a.value, b.value)
    for a, b in zip(st.m + st.v, st2.m + st2.v):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("extra", [None, {"step": 3}, {"step": "x", "train": {}}],
                         ids=["no-extra", "no-train", "step-not-an-integer"])
def test_train_checkpoint_bad_extra_refused(tmp_path, extra):
    # a checksummed file whose extra lacks the step or the train config, or
    # holds a step that is no count, is refused as it is read, not by a
    # KeyError or TypeError once a resume uses it
    header = {"config": dataclasses.asdict(TINY_MODEL)}
    if extra is not None:
        header["extra"] = extra
    arrays = [t.value for t in init_params(TINY_MODEL, seed=2).tensors()] * 3
    path = tmp_path / "train.ckpt"
    write_container(path, header, arrays, operator.checkpoint_layout(groups=3))
    with pytest.raises(ValueError, match="bad checkpoint header"):
        load_train_checkpoint(path)


# ------------------------------------------------------------------- metrics

def test_eval_rmse_zero_on_targets(tiny_dataset):
    # a model that happened to emit the targets exactly would score zero;
    # check the arithmetic with a synthetic constant offset instead
    p = init_params(TINY_MODEL, seed=4)
    pred = forward(p, tiny_dataset.x_T.astype(float), tiny_dataset.grid)
    per_time, pooled = eval_trajectory_rmse(p, tiny_dataset)
    diff = pred - tiny_dataset.values.astype(float)
    ref_pooled = np.sqrt(np.mean(diff ** 2))
    assert pooled == pytest.approx(ref_pooled, rel=1e-10)
    ref_per_time = np.sqrt(np.mean(diff ** 2, axis=(0, 2)))
    assert np.allclose(per_time, ref_per_time, rtol=1e-10)


def test_sliced_wasserstein_identity_and_shift():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2000, 2))
    assert sliced_wasserstein(A, A) == pytest.approx(0.0, abs=1e-12)
    shift = np.array([3.0, 0.0])
    # mean absolute projection of a unit shift is E|v_1| = 2/pi for random
    # unit v in 2-D, so the distance concentrates near 3 * 2/pi
    d = sliced_wasserstein(A, A + shift, n_proj=256, seed=0)
    assert d == pytest.approx(3 * 2 / np.pi, rel=0.15)


def test_sliced_wasserstein_unequal_sizes():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((1500, 2))
    B = rng.standard_normal((900, 2))
    assert sliced_wasserstein(A, B, n_proj=64) < 0.15


def test_sliced_wasserstein_needs_a_projection():
    A = np.zeros((5, 2))
    with pytest.raises(ValueError, match="n_proj must be >= 1, got 0"):
        sliced_wasserstein(A, A, n_proj=0)


def test_sliced_wasserstein_errors():
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((0, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((5, 2)), np.zeros((5, 3)))


# --------------------------------------------------------- solver diagnostics

def _single_gaussian_analytic(sched, s2):
    def fn(x0, t):
        def tilde(tt):
            a, sg = sched.alpha(tt), sched.sigma(tt)
            return np.sqrt(a * a * s2 + sg * sg)
        return x0 * tilde(t) / tilde(sched.t_max)
    return fn


def test_convergence_orders(sched, single_gaussian):
    grid = make_time_grid(4, "quadratic", sched)
    fn = _single_gaussian_analytic(sched, 0.25)
    slope_e, status_e = convergence_order("euler", single_gaussian, sched, grid,
                                          analytic_fn=fn)
    slope_h, status_h = convergence_order("heun", single_gaussian, sched, grid,
                                          analytic_fn=fn)
    assert status_e == status_h == "fitted"
    assert slope_e == pytest.approx(1.0, abs=0.2)
    assert slope_h == pytest.approx(2.0, abs=0.2)


def test_convergence_exact_path(sched, standard_normal_2d):
    # on the invariant distribution the velocity field vanishes, so every
    # stepper is exact and the fit must report the degenerate status
    grid = make_time_grid(4, "quadratic", sched)
    fn = _single_gaussian_analytic(sched, 1.0)   # identity map
    slope, status = convergence_order("euler", standard_normal_2d, sched,
                                      grid, analytic_fn=fn)
    assert status == "exact"
