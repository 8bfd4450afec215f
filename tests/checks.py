"""Numerical checks shared by several test files: a central-difference
gradient checker for the nnops tape and a solver convergence-order fit;
and the default 2-D mixture the tests run on."""
import numpy as np

from flowop.mixture import GaussianMixture
from flowop.schedule import NoiseSchedule
from flowop.trajectories import TimeGrid, solve_trajectory


def grad_check(f, params, step: float = 1e-5, guard: float = 1e-3) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients of the scalar f(params) over every coordinate; the
    denominator is guarded for near-zero gradients.
    """
    loss = f(params)
    loss.backward()
    analytic = [np.zeros_like(p.value) if p.grad is None else np.array(p.grad)
                for p in params]

    def eval_loss():
        v = f(params).value
        if not np.isfinite(v):
            raise FloatingPointError("non-finite loss during grad check")
        return float(v)

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = eval_loss()
            flat[i] = orig - step
            lo = eval_loss()
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), guard)
            worst = max(worst, err)
    return worst


def convergence_order(solver: str, gm, sched: NoiseSchedule, grid: TimeGrid,
                      step_counts=(8, 16, 32, 64, 128), n_init: int = 16,
                      seed: int = 0, analytic_fn=None) -> tuple[float, str]:
    """Least-squares slope of log2(endpoint error) vs log2(substeps) on a
    problem with a known solution; returns (slope, status)."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n_init, gm.d))
    if analytic_fn is None:
        raise ValueError("need an analytic reference solution")
    ref = analytic_fn(x0, grid.times[-1])
    errs = []
    for n in step_counts:
        traj = solve_trajectory(gm, sched, x0, grid, solver=solver, substeps=n)
        errs.append(np.max(np.abs(traj.values[:, -1, :] - ref)))
    errs = np.array(errs)
    if np.all(errs < 1e-13):
        return 0.0, "exact"
    logn = np.log2(np.array(step_counts, dtype=float))
    loge = np.log2(errs)
    slope = -np.polyfit(logn, loge, 1)[0]
    return float(slope), "fitted"


def default_bimodal() -> GaussianMixture:
    """The default 2-D task: two tight modes at (+-2, 0)."""
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        variances=np.array([0.01, 0.01]),
    )
