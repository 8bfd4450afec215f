"""Gaussian-mixture data distribution with exact perturbed score.

Each component is isotropic, so diffusing the mixture keeps it a mixture
with scaled means and inflated variances; the score of the perturbed
density is available in closed form and plays the role of the
pre-trained model being distilled.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedule import NoiseSchedule


@dataclass(frozen=True)
class GaussianMixture:
    weights: np.ndarray   # (K,), sums to 1
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K,), isotropic per component

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        if self.weights.ndim != 1 or self.means.ndim != 2 or self.variances.ndim != 1:
            raise ValueError("weights (K,), means (K,d), variances (K,) expected")
        K = self.weights.shape[0]
        if self.means.shape[0] != K or self.variances.shape[0] != K:
            raise ValueError("component counts disagree")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def d(self) -> int:
        return self.means.shape[1]


def default_bimodal() -> GaussianMixture:
    """The default 2-D task: two tight modes at (+-2, 0)."""
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        variances=np.array([0.01, 0.01]),
    )


@dataclass(frozen=True)
class MarginalParams:
    weights: np.ndarray
    means_t: np.ndarray
    vars_t: np.ndarray


def marginal_params(gm: GaussianMixture, sched: NoiseSchedule, t: float) -> MarginalParams:
    """Parameters of the diffused mixture at time t.

    Convolving N(mu, s^2 I) with the VP transition kernel gives
    N(alpha*mu, (alpha^2 s^2 + sigma^2) I).
    """
    a = sched.alpha(t)
    sig = sched.sigma(t)
    return MarginalParams(
        weights=gm.weights,
        means_t=a * gm.means,
        vars_t=a * a * gm.variances + sig * sig,
    )


def _log_responsibilities(gm, sched, x, t):
    """Log of per-component posterior weights at (x, t); log-sum-exp stabilized.

    x may be (d,) or (n, d); returns (log_r, mp) with log_r matching the
    leading shape plus a trailing K axis.
    """
    x = np.asarray(x, dtype=float)
    mp = marginal_params(gm, sched, t)
    diff = x[..., None, :] - mp.means_t          # (..., K, d)
    sq = np.sum(diff * diff, axis=-1)            # (..., K)
    d = gm.d
    log_comp = (np.log(mp.weights)
                - 0.5 * sq / mp.vars_t
                - 0.5 * d * np.log(2.0 * np.pi * mp.vars_t))
    log_norm = np.logaddexp.reduce(log_comp, axis=-1, keepdims=True)
    return log_comp - log_norm, mp


def responsibilities(gm: GaussianMixture, sched: NoiseSchedule, x, t: float) -> np.ndarray:
    log_r, _ = _log_responsibilities(gm, sched, x, t)
    return np.exp(log_r)


def score(gm: GaussianMixture, sched: NoiseSchedule, x, t: float) -> np.ndarray:
    """Gradient of log p_t at x: responsibility-weighted component scores."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to score")
    log_r, mp = _log_responsibilities(gm, sched, x, t)
    r = np.exp(log_r)                                      # (..., K)
    comp_score = -(x[..., None, :] - mp.means_t) / mp.vars_t[:, None]
    return np.sum(r[..., None] * comp_score, axis=-2)


def epsilon_hat(gm: GaussianMixture, sched: NoiseSchedule, x, t: float) -> np.ndarray:
    """Noise-prediction parameterization: -sigma_t * score."""
    return -sched.sigma(t) * score(gm, sched, x, t)


def sample_data(gm: GaussianMixture, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the mixture; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    comp = rng.choice(gm.weights.shape[0], size=n, p=gm.weights)
    eps = rng.standard_normal((n, gm.d))
    return gm.means[comp] + np.sqrt(gm.variances[comp])[:, None] * eps
