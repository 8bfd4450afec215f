"""Weighted empirical-risk training, Adam, metrics, and solver diagnostics."""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import nnops, operator
from .nnops import Tensor
from .operator import DsnoConfig, DsnoParams, forward, forward_loss, init_params
from .schedule import NoiseSchedule, loss_weight
from .trajectories import (TimeGrid, TrajectoryDataset, read_container, write_container,
                           write_tsv)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    total_steps: int = 20000
    base_lr: float = 2e-4
    warmup_steps: int = 500
    weighting: str = "snr_sqrt"  # "uniform" | "snr_sqrt"
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.total_steps, self.warmup_steps) < 1:
            raise ValueError("batch size, steps and warmup must be positive")
        if not 0 < self.base_lr < np.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup exceeds total steps")
        if self.weighting not in ("uniform", "snr_sqrt"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def grid_weights(sched: NoiseSchedule, grid: TimeGrid, weighting: str) -> np.ndarray:
    if weighting == "uniform":
        return np.ones(grid.M)
    return np.array([loss_weight(sched, t) for t in grid.times])


def weighted_loss(pred: np.ndarray, target: np.ndarray, grid: TimeGrid,
                  weighting: str, sched: NoiseSchedule | None = None) -> float:
    """(1/M) sum_m lambda(t_m) * l1(pred_m - target_m), batch-averaged."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.shape[-2] != grid.M:
        raise ValueError("prediction/target shape mismatch")
    if sched is None and weighting != "uniform":
        raise ValueError("snr_sqrt weighting needs a schedule")
    w = grid_weights(sched, grid, weighting)
    per_time = np.sum(np.abs(pred - target), axis=-1)        # (..., M)
    nbatch = int(np.prod(pred.shape[:-2], dtype=int))
    return float(np.sum(w * per_time) / (grid.M * max(nbatch, 1)))


def lr_at(config: TrainConfig, step: int) -> float:
    """Linear warmup to the base rate, constant afterwards."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return config.base_lr * min(1.0, step / config.warmup_steps)


@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: list[Tensor]) -> "OptimizerState":
        return cls(m=[np.zeros_like(p.value) for p in params],
                   v=[np.zeros_like(p.value) for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray],
              state: OptimizerState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> list[Tensor]:
    """Standard bias-corrected Adam. Every gradient is checked before any
    state moves; then the moments and the parameters are updated in place,
    with their temporaries from `nnops.empty`."""
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in tensor {i}")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = nnops.empty(g.shape), nnops.empty(g.shape)
        np.multiply(g, 1 - beta1, out=a)
        m *= beta1
        m += a                                  # beta1 m + (1 - beta1) g
        np.multiply(g, 1 - beta2, out=a)
        a *= g
        v *= beta2
        v += a                                  # beta2 v + (1 - beta2) g g
        np.divide(m, 1 - beta1 ** t, out=a)
        np.divide(v, 1 - beta2 ** t, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        a *= lr
        p.value -= a
    return params


def _batch_indices(N: int, batch_size: int, seed: int, step: int) -> np.ndarray:
    """Deterministic epoch-shuffled batch for a given global step."""
    per_epoch = max(N // batch_size, 1)
    epoch, pos = divmod(step, per_epoch)
    perm = np.random.default_rng(1_000_003 * seed + epoch).permutation(N)
    lo = pos * batch_size
    return perm[lo:lo + batch_size]


@dataclass
class TrainResult:
    params: DsnoParams
    loss_curve: list[tuple[int, float, float]]  # (step, lr, loss)


def save_train_checkpoint(path, params: DsnoParams, state: OptimizerState,
                          tc: TrainConfig) -> None:
    """The model checkpoint container holding params, then Adam m, then v;
    the header's extra holds the step and the train config."""
    header = {"config": asdict(params.config),
              "extra": {"step": state.step, "train": asdict(tc)}}
    write_container(path, header, [t.value for t in params.tensors()] + state.m + state.v,
                    operator.checkpoint_layout(groups=3))


def load_train_checkpoint(path) -> tuple[DsnoParams, OptimizerState, dict]:
    header, arrays = read_container(path, operator.checkpoint_layout(groups=3))
    n = len(arrays) // 3
    extra = header["extra"]
    return (operator.params_from(DsnoConfig(**header["config"]), arrays[:n]),
            OptimizerState(m=arrays[n:2 * n], v=arrays[2 * n:], step=extra["step"]), extra)


def check_config_match(section: str, saved: dict, given: dict, refusal: str,
                       ignore=()) -> None:
    """Refuse a saved config `section` that differs from this run's in a key
    outside `ignore`: ValueError naming the first such key, sorted."""
    for key in sorted(saved.keys() | given.keys()):
        was, now = saved.get(key), given.get(key)
        if key not in ignore and was != now:
            raise ValueError(f"{refusal}: {section}.{key}={was!r}, this run has {now!r}")


def train(dataset: TrajectoryDataset, tc: TrainConfig, mc: DsnoConfig,
          out_dir=None, checkpoint_every: int = 0,
          resume_from=None) -> TrainResult:
    """Deterministic training loop over a persisted trajectory dataset.

    Emits loss.tsv under out_dir when given; optional periodic train
    checkpoints carry optimizer state so resuming reproduces the
    uninterrupted trace exactly.
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_every and not out_dir:
        raise ValueError("checkpoint_every needs an out_dir to write checkpoints to")
    if dataset.grid.M != mc.M:
        raise ValueError(f"dataset grid M={dataset.grid.M} != model M={mc.M}")
    if dataset.d != mc.d:
        raise ValueError("dataset/model dimension mismatch")
    if resume_from is not None:
        params, state, extra = load_train_checkpoint(resume_from)
        check_config_match("model", vars(params.config), vars(mc), "cannot resume")
        check_config_match("train", extra["train"], vars(tc), "cannot resume",
                           ignore=("total_steps",))
        start = state.step
    else:
        params = init_params(mc, seed=tc.seed)
        state = OptimizerState.fresh(params.tensors())
        start = 0
    grid = dataset.grid
    w = grid_weights(dataset.sched, grid, tc.weighting)
    x_all = dataset.x_T.astype(float)
    y_all = dataset.values.astype(float)
    curve: list[tuple[int, float, float]] = []
    tensors = params.tensors()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # every step records the same graph, so the step's arrays (node values,
    # gradients, Adam's temporaries) are allocated by the first step only
    with nnops.workspace():
        for step in range(start, tc.total_steps):
            idx = _batch_indices(dataset.N, tc.batch_size, tc.seed, step)
            loss = forward_loss(params, x_all[idx], grid, y_all[idx], w)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite loss at step {step}")
            loss.backward()
            grads = [np.zeros_like(t.value) if t.grad is None else t.grad for t in tensors]
            lr = lr_at(tc, step + 1)
            adam_step(tensors, grads, state, lr)
            curve.append((step, lr, float(loss.value)))
            # free this step's arrays for the next one
            loss = grads = None
            for t in tensors:
                t.grad = None
            if checkpoint_every and (step + 1) % checkpoint_every == 0:
                save_train_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1:07d}.bin"),
                                      params, state, tc)
    if out_dir:
        write_tsv(os.path.join(out_dir, "loss.tsv"), ("step", "lr", "loss"),
                  ((s, f"{lr:.8g}", f"{lo:.10g}") for s, lr, lo in curve))
    return TrainResult(params=params, loss_curve=curve)


def eval_trajectory_rmse(params: DsnoParams, dataset: TrajectoryDataset
                         ) -> tuple[np.ndarray, float]:
    """Per-grid-time and pooled RMSE of one-call predictions on held-out data."""
    pred = forward(params, dataset.x_T.astype(float), dataset.grid)
    sq_sum = np.sum((pred - dataset.values.astype(float)) ** 2, axis=(0, 2))
    count = dataset.N * dataset.d
    per_time = np.sqrt(sq_sum / count)
    pooled = float(np.sqrt(sq_sum.sum() / (count * dataset.grid.M)))
    return per_time, pooled


def sliced_wasserstein(A: np.ndarray, B: np.ndarray, n_proj: int = 128,
                       seed: int = 0) -> float:
    """Average 1-D Wasserstein-1 over seeded random unit projections."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("empty sample set")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    rng = np.random.default_rng(seed)
    d = A.shape[1]
    total = 0.0
    for _ in range(n_proj):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        a = np.sort(A @ v)
        b = np.sort(B @ v)
        if a.size != b.size:
            q = np.linspace(0, 1, 512)
            a = np.quantile(a, q)
            b = np.quantile(b, q)
        total += np.mean(np.abs(a - b))
    return total / n_proj
