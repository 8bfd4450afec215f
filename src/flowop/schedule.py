"""Variance-preserving noise schedule and semi-linear ODE coefficients.

The forward diffusion uses a linear beta(t), giving closed forms for
every derived quantity (alpha, sigma, drift factor, transition scale).
Everything here is exact; no quadrature anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta VP schedule on [0, t_max]."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    t_max: float = 1.0
    t_min: float = 1e-3

    def __post_init__(self):
        # a NaN fails every comparison
        if not (0 < self.beta_min <= self.beta_max < math.inf):
            raise ValueError("need 0 < beta_min <= beta_max < inf")
        if not (0 < self.t_min < self.t_max < math.inf):
            raise ValueError("need 0 < t_min < t_max < inf")

    def _check_time(self, t: float) -> None:
        if not (0.0 <= t <= self.t_max):
            raise ValueError(f"time {t} outside [0, {self.t_max}]")

    def beta_integral(self, t: float) -> float:
        """Closed-form integral of beta over [0, t] for the linear ramp."""
        return self.beta_min * t + (self.beta_max - self.beta_min) * t * t / (2.0 * self.t_max)

    def beta(self, t: float) -> float:
        self._check_time(t)
        return self.beta_min + t * (self.beta_max - self.beta_min) / self.t_max

    def alpha(self, t: float) -> float:
        self._check_time(t)
        return math.exp(-0.5 * self.beta_integral(t))

    def sigma(self, t: float) -> float:
        a = self.alpha(t)
        return math.sqrt(max(0.0, 1.0 - a * a))


@dataclass(frozen=True)
class ScheduleCoeffs:
    """All schedule-derived coefficients at one time."""

    beta: float
    alpha: float
    sigma: float
    h: float


def coefficients_at(sched: NoiseSchedule, t: float) -> ScheduleCoeffs:
    """Drift coefficients and noise scales at time t; h = -beta/2 is the
    affine drift factor."""
    b = sched.beta(t)
    a = sched.alpha(t)
    return ScheduleCoeffs(beta=b, alpha=a, sigma=sched.sigma(t), h=-0.5 * b)


def loss_weight(sched: NoiseSchedule, t: float) -> float:
    """SNR^0.5 weight alpha/sigma, clamped below at t_min where it diverges."""
    tc = max(t, sched.t_min)
    return sched.alpha(tc) / sched.sigma(tc)
