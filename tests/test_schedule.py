import math

import numpy as np
import pytest

from flowop.schedule import NoiseSchedule, coefficients_at, loss_weight


def phi(sched: NoiseSchedule, t: float, s: float) -> float:
    """Homogeneous transition scale exp(int_s^t h) = alpha(t)/alpha(s)."""
    sched._check_time(t)
    sched._check_time(s)
    return math.exp(-0.5 * (sched.beta_integral(t) - sched.beta_integral(s)))


def test_zero_time_identity(sched):
    c = coefficients_at(sched, 0.0)
    assert c.alpha == 1.0
    assert c.sigma == 0.0
    assert c.beta == pytest.approx(0.1)


def test_alpha_at_horizon_closed_form(sched):
    # integral of the linear ramp over [0,1] is 0.1 + 19.9/2 = 10.05
    c = coefficients_at(sched, 1.0)
    assert c.alpha == pytest.approx(math.exp(-5.025), rel=1e-14)


def test_normalization_at_random_times(sched):
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1, 10_000):
        c = coefficients_at(sched, t)
        assert abs(c.alpha**2 + c.sigma**2 - 1.0) <= 1e-12
        assert c.h == -0.5 * c.beta


def test_monotonicity(sched):
    ts = np.linspace(0, 1, 2001)
    alphas = np.array([sched.alpha(t) for t in ts])
    sigmas = np.array([sched.sigma(t) for t in ts])
    assert np.all(np.diff(alphas) < 0)
    assert np.all(np.diff(sigmas) > 0)


def test_time_domain_error(sched):
    with pytest.raises(ValueError):
        coefficients_at(sched, -0.1)
    with pytest.raises(ValueError):
        coefficients_at(sched, 1.5)


def test_phi_identity_and_reciprocal(sched):
    assert phi(sched, 0.37, 0.37) == pytest.approx(1.0, abs=1e-15)
    assert phi(sched, 0.2, 0.9) * phi(sched, 0.9, 0.2) == pytest.approx(1.0, rel=1e-12)


def test_phi_is_reciprocal_alpha_ratio(sched):
    # phi(0, 1) = alpha(0)/alpha(1) = exp(5.025)
    assert phi(sched, 0.0, 1.0) == pytest.approx(math.exp(5.025), rel=1e-13)


def test_phi_cocycle(sched):
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = rng.uniform(0, 1, 3)
        assert phi(sched, a, b) * phi(sched, b, c) == pytest.approx(
            phi(sched, a, c), rel=1e-10)


def test_alpha_derivative_matches_drift(sched):
    # d(alpha)/dt = h(t) * alpha(t), the semi-linear structure
    h_step = 1e-6
    for t in (0.1, 0.35, 0.6, 0.9):
        fd = (sched.alpha(t + h_step) - sched.alpha(t - h_step)) / (2 * h_step)
        expected = coefficients_at(sched, t).h * sched.alpha(t)
        assert fd == pytest.approx(expected, rel=1e-6)


def test_loss_weight_unit_crossing(sched):
    # find t where alpha == sigma by bisection; lambda there is 1
    lo, hi = 0.1, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sched.alpha(mid) > sched.sigma(mid):
            lo = mid
        else:
            hi = mid
    assert loss_weight(sched, 0.5 * (lo + hi)) == pytest.approx(1.0, abs=1e-9)


def test_loss_weight_at_horizon(sched):
    expected = math.exp(-5.025) / math.sqrt(1 - math.exp(-5.025) ** 2)
    assert loss_weight(sched, 1.0) == pytest.approx(expected, rel=1e-12)


def test_loss_weight_clamped_below(sched):
    assert loss_weight(sched, 1e-9) == loss_weight(sched, sched.t_min)
    assert loss_weight(sched, 0.0) == loss_weight(sched, sched.t_min)


def test_invalid_schedule_params():
    with pytest.raises(ValueError):
        NoiseSchedule(beta_min=-1.0)
    with pytest.raises(ValueError):
        NoiseSchedule(beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError):
        NoiseSchedule(t_min=0.0)
    for field in ("beta_min", "beta_max", "t_min", "t_max"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="< inf"):
                NoiseSchedule(**{field: value})
