"""Desk-scale lab for distilling probability-flow ODE trajectories of a
Gaussian-mixture diffusion into a one-call Fourier temporal operator."""

import os as _os

# One BLAS thread unless the caller chose otherwise: inference runs its row
# blocks on every CPU itself, and each block's BLAS threads would contend
# with the other blocks for the cores. This takes effect only when numpy
# loads after flowop, as under the `flowop` command.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .schedule import NoiseSchedule, ScheduleCoeffs, coefficients_at, loss_weight
from .mixture import GaussianMixture, epsilon_hat, marginal_params, sample_data, score
from .trajectories import (TimeGrid, Trajectory, TrajectoryDataset, generate_dataset,
                           make_time_grid, pf_rhs, solve_trajectory, step_euler,
                           step_exponential, step_heun)
from .operator import (DsnoConfig, DsnoParams, forward, init_params, load_checkpoint,
                       query_at, save_checkpoint)
from .training import (TrainConfig, adam_step, eval_trajectory_rmse,
                       lr_at, sliced_wasserstein, train, weighted_loss)
from .spectrum import PowerSpectrum, power_spectrum, trajectory_spectrum_report

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
