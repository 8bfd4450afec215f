"""Gaussian-mixture data distribution with exact perturbed score.

Each component is isotropic, so diffusing the mixture keeps it a mixture
with scaled means and inflated variances; the score of the perturbed
density is available in closed form and plays the role of the
pre-trained model being distilled.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.variances)):
            raise ValueError("weights, means and variances must be finite")
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


def score(gm: GaussianMixture, sched: NoiseSchedule, x, t: float) -> np.ndarray:
    """Gradient of log p_t at x (shape (..., d)): responsibility-weighted
    component scores, with log-sum-exp stabilized responsibilities.

    Runs feature-major: x is copied once to (d, n), n the rows of
    x.reshape(-1, d), so the sums over the K components and the d
    coordinates are whole-row ops rather than numpy inner loops of length
    K or d. They add in sequential order, as numpy does over a trailing
    axis shorter than 8, so for K, d < 8 the result is bit-identical to
    the (..., K, d) broadcast form.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (gm.d,):
        raise ValueError(f"score needs points of dimension {gm.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to score")
    mp = marginal_params(gm, sched, t)
    var = mp.vars_t[:, None]                                   # (K, 1)
    rows = np.ascontiguousarray(x.reshape(-1, gm.d).T)          # (d, n)
    diff = rows - mp.means_t[:, :, None]                       # (K, d, n)
    sq = np.sum(diff * diff, axis=1)                           # (K, n)
    log_comp = (np.log(mp.weights)[:, None]
                - 0.5 * sq / var
                - 0.5 * gm.d * np.log(2.0 * np.pi * var))
    r = np.exp(log_comp - np.logaddexp.reduce(log_comp, axis=0))
    np.negative(diff, out=diff)
    diff /= var[:, None]                         # component scores
    return np.ascontiguousarray(np.sum(r[:, None] * diff, axis=0).T).reshape(x.shape)


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
