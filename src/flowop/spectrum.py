"""Temporal power spectra of probability-flow trajectories.

Used to show that trajectory energy lives in a handful of low Fourier
modes, which is what justifies kernel mode truncation. The spectrum
definition applies the factor 2 uniformly across modes, DC included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import GaussianMixture
from .schedule import NoiseSchedule
from .trajectories import TimeGrid, solve_trajectory, write_tsv


def power_spectrum(signal: np.ndarray, period: float = 1.0) -> np.ndarray:
    """One-sided power S_j = (2*Delta^2/period) |X_j|^2 with Delta = 1/N,
    for modes j = 0..N//2."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("signal must be 1-D with at least 2 samples")
    if not 0 < period < np.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
    delta = 1.0 / x.size
    return (2.0 * delta * delta / period) * np.abs(np.fft.rfft(x)) ** 2


@dataclass(frozen=True)
class SpectrumReport:
    modes: np.ndarray
    freq: np.ndarray
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    band_fraction_j5: float          # DC included
    band_fraction_j5_nodc: float


def trajectory_spectrum_report(gm: GaussianMixture, sched: NoiseSchedule,
                               n_traj: int, N: int = 1000, seed: int = 0) -> SpectrumReport:
    """Aggregate per-coordinate spectra of n_traj Heun trajectories, one
    step between each of N uniform times on [t_min, t_max]."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    times = np.linspace(sched.t_max, sched.t_min, N)
    grid = TimeGrid(times=times)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n_traj, gm.d))
    traj = solve_trajectory(gm, sched, x0, grid, solver="heun", substeps=1)
    # (n_traj, N, d) -> one spectrum per trajectory per coordinate
    sigs = traj.values.transpose(0, 2, 1).reshape(-1, N)
    period = sched.t_max - sched.t_min
    all_S = np.stack([power_spectrum(s, period) for s in sigs])
    total = all_S.sum()
    nondc = all_S[:, 1:].sum()
    frac = all_S[:, :6].sum() / total
    frac_nodc = all_S[:, 1:6].sum() / nondc if nondc > 0 else 1.0
    return SpectrumReport(
        modes=np.arange(all_S.shape[1]),
        freq=np.arange(all_S.shape[1]) / period,
        mean=all_S.mean(axis=0),
        min=all_S.min(axis=0),
        max=all_S.max(axis=0),
        band_fraction_j5=float(frac),
        band_fraction_j5_nodc=float(frac_nodc),
    )


def write_report(report: SpectrumReport, path) -> None:
    """Per-mode spectrum table and its band-fraction row, through `write_tsv`."""
    rows = [(report.modes[j], f"{report.freq[j]:.8g}", f"{report.mean[j]:.10g}",
             f"{report.min[j]:.10g}", f"{report.max[j]:.10g}")
            for j in range(report.modes.size)]
    rows.append(("# band_fraction_j<=5", f"{report.band_fraction_j5:.10g}",
                 "nondc", f"{report.band_fraction_j5_nodc:.10g}"))
    write_tsv(path, ("mode", "freq", "mean", "min", "max"), rows)
