import os

import numpy as np
import pytest

from flowop.spectrum import power_spectrum, trajectory_spectrum_report, write_report


def band_fraction(S: np.ndarray, j_max: int, exclude_dc: bool = False) -> float:
    """Fraction of total power carried by modes <= j_max."""
    if not (0 <= j_max < S.size):
        raise ValueError("j_max out of range")
    if exclude_dc:
        total = S[1:].sum()
        upto = S[1:j_max + 1].sum()
    else:
        total = S.sum()
        upto = S[:j_max + 1].sum()
    if total == 0:
        raise ValueError("all-zero spectrum has no defined band fraction")
    return float(upto / total)


def test_cosine_power_in_single_mode():
    # unit cosine, period 1: energy 1/2 concentrated at mode 1
    N = 256
    n = np.arange(N)
    x = np.cos(2 * np.pi * n / N)
    S = power_spectrum(x, period=1.0)
    assert S.shape == (N // 2 + 1,)
    assert S[1] == pytest.approx(0.5, rel=1e-12)
    others = np.delete(S, 1)
    assert np.max(np.abs(others)) < 1e-24


def test_constant_signal_is_pure_dc():
    S = power_spectrum(np.full(64, 3.0), period=1.0)
    # DC carries the uniform factor 2: S_0 = 2 * c^2
    assert S[0] == pytest.approx(18.0, rel=1e-12)
    assert np.max(np.abs(S[1:])) < 1e-24


def test_period_scaling():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(128)
    a = power_spectrum(x, period=1.0)
    b = power_spectrum(x, period=2.0)
    assert np.allclose(a, 2.0 * b)


def test_power_spectrum_validation(sched, bimodal):
    with pytest.raises(ValueError):
        power_spectrum(np.array([1.0]))
    with pytest.raises(ValueError):
        power_spectrum(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="n_traj must be >= 1"):
        trajectory_spectrum_report(bimodal, sched, n_traj=0)


def test_power_spectrum_needs_a_positive_period():
    with pytest.raises(ValueError, match="period must be positive and finite, got 0.0"):
        power_spectrum(np.ones(8), period=0.0)


def test_band_fraction_cosine_pair():
    N = 128
    n = np.arange(N)
    x = np.cos(2 * np.pi * n / N) + np.cos(2 * np.pi * 10 * n / N)
    S = power_spectrum(x)
    assert band_fraction(S, 5) == pytest.approx(0.5, rel=1e-10)
    assert band_fraction(S, 10) == pytest.approx(1.0, rel=1e-12)
    assert band_fraction(S, 5, exclude_dc=True) == pytest.approx(0.5, rel=1e-10)


def test_band_fraction_errors():
    S = power_spectrum(np.zeros(16) + 1.0)
    with pytest.raises(ValueError):
        band_fraction(S, 99)
    with pytest.raises(ValueError):
        band_fraction(S, 3, exclude_dc=True)  # all-zero after removing DC


def test_trajectory_report_low_mode_dominance(sched, bimodal):
    rep = trajectory_spectrum_report(bimodal, sched, n_traj=8, N=200, seed=0)
    assert rep.mean.shape == (101,)
    assert 0.9 <= rep.band_fraction_j5 <= 1.0
    assert 0.5 <= rep.band_fraction_j5_nodc <= 1.0
    # power decays with mode index in aggregate
    assert rep.mean[:6].sum() > rep.mean[6:].sum()


def test_trajectory_report_deterministic(sched, bimodal):
    a = trajectory_spectrum_report(bimodal, sched, n_traj=4, N=128, seed=3)
    b = trajectory_spectrum_report(bimodal, sched, n_traj=4, N=128, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert a.band_fraction_j5 == b.band_fraction_j5


def test_write_report(tmp_path, sched, bimodal):
    rep = trajectory_spectrum_report(bimodal, sched, n_traj=2, N=64, seed=1)
    path = tmp_path / "spectrum.tsv"
    write_report(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "mode\tfreq\tmean\tmin\tmax"
    assert len(lines) == 1 + rep.modes.size + 1
    assert lines[-1].startswith("# band_fraction")


def test_failed_report_write_keeps_previous_file(tmp_path, monkeypatch, sched, bimodal):
    path = tmp_path / "spectrum.tsv"
    write_report(trajectory_spectrum_report(bimodal, sched, n_traj=2, N=64, seed=1), path)
    before = path.read_bytes()
    rep = trajectory_spectrum_report(bimodal, sched, n_traj=2, N=64, seed=2)

    def fail(*args, **kwargs):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="injected"):
        write_report(rep, path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["spectrum.tsv"]
