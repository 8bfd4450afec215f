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
    """Gradient of log p_t at x (shape (..., d)): sum_k (r_k / v_k)(mu_k - x).
    The responsibilities are a max-shifted softmax, r_k = exp(l_k - m) /
    sum_k exp(l_k - m) with m = max_k l_k, of the log-components
    l_k = c_k - |x - mu_k|^2 (0.5 / v_k), c_k = log w_k - (d/2) log(2 pi v_k);
    a zero weight makes l_k = -inf and r_k = 0.

    Runs feature-major, on a (d, n) copy of x's n rows, in loops over the K
    components and d coordinates of whole-row ops on one (K, n) block and one
    (n,) row, writing each coordinate's row into the (n, d) output. They add
    in sequential order, as numpy does over a trailing axis shorter than 8, so
    for K, d < 8 the result is bit-identical to the (..., K, d) broadcast form.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (gm.d,):
        raise ValueError(f"score needs points of dimension {gm.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to score")
    mp = marginal_params(gm, sched, t)
    mu, var = mp.means_t, mp.vars_t
    with np.errstate(divide="ignore"):                         # log(0) = -inf
        log_c = np.log(mp.weights) - 0.5 * gm.d * np.log(2.0 * np.pi * var)
    xt = np.ascontiguousarray(x.reshape(-1, gm.d).T)           # (d, n)
    r = np.empty((len(var), xt.shape[1]))                      # (K, n)
    row = np.empty(xt.shape[1])
    for k, rk in enumerate(r):                                 # log-components
        np.subtract(xt[0], mu[k, 0], out=rk)
        rk *= rk
        for j in range(1, gm.d):
            np.subtract(xt[j], mu[k, j], out=row)
            row *= row
            rk += row
        rk *= -0.5 / var[k]
        rk += log_c[k]
    r -= np.max(r, axis=0)
    np.exp(r, out=r)
    r /= np.sum(r, axis=0)                                     # responsibilities
    r /= var[:, None]
    out = np.empty(x.shape)
    for j, col in enumerate(out.reshape(-1, gm.d).T):
        np.subtract(mu[0, j], xt[j], out=col)
        col *= r[0]
        for k in range(1, len(r)):
            np.subtract(mu[k, j], xt[j], out=row)
            row *= r[k]
            col += row
    return out


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
