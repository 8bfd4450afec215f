import dataclasses
import os

import numpy as np
import pytest

from flowop.nnops import param
from flowop.operator import DsnoConfig, forward, init_params
from flowop.schedule import loss_weight
from flowop.trajectories import generate_dataset, make_time_grid
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


def test_adam_first_step_is_signed_lr():
    # with zero state the first bias-corrected update is lr * sign(g)
    p = param(np.array([1.0, -2.0, 3.0]))
    g = np.array([0.3, -0.1, 2.0])
    st = OptimizerState.fresh([p])
    adam_step([p], [g], st, lr=0.1, eps=0.0)
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * np.sign(g)
    assert np.allclose(p.value, expected, rtol=1e-12)


def test_adam_complex_updates_parts_independently():
    # a complex tensor's update is real Adam on its parts, bit for bit
    rng = np.random.default_rng(7)
    shape = (3, 8, 8)
    pc = param(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    pr, pi = param(pc.value.real.copy()), param(pc.value.imag.copy())
    st_c = OptimizerState.fresh([pc])
    st_r = OptimizerState.fresh([pr, pi])
    for _ in range(20):
        # transposed, as mode_multiply's kernel gradient is
        g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).transpose(0, 2, 1)
        adam_step([pc], [g], st_c, lr=0.05)
        adam_step([pr, pi], [g.real.copy(), g.imag.copy()], st_r, lr=0.05)
    assert pc.value.dtype == st_c.m[0].dtype == st_c.v[0].dtype == np.complex128
    assert np.array_equal(pc.value.real, pr.value)
    assert np.array_equal(pc.value.imag, pi.value)


def test_adam_rejects_non_finite_gradient():
    p = param(np.array([1.0]))
    st = OptimizerState.fresh([p])
    with pytest.raises(FloatingPointError):
        adam_step([p], [np.array([np.nan])], st, lr=0.1)


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
    with pytest.raises(ValueError, match="grid length mismatch"):
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
    grid = make_time_grid(4, "quadratic", sched.t_max, sched.t_min)
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
    grid = make_time_grid(4, "quadratic", sched.t_max, sched.t_min)
    fn = _single_gaussian_analytic(sched, 1.0)   # identity map
    slope, status = convergence_order("euler", standard_normal_2d, sched,
                                      grid, analytic_fn=fn)
    assert status == "exact"
