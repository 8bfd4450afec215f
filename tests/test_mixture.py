import tracemalloc

import numpy as np
import pytest

from flowop import mixture, trajectories
from flowop.mixture import (GaussianMixture, epsilon_hat, marginal_params,
                            sample_data, score)
from flowop.schedule import NoiseSchedule
from flowop.trajectories import generate_dataset, solve_trajectory

# Oracles in the trailing-axis (..., K, d) layout. score_oracle is score's
# formula: every elementwise op is the same and, for K, d < 8, numpy adds the
# length-K and length-d axes in sequential order in both layouts, so score
# must match it bit for bit. score_logaddexp_oracle is the formula score had
# before its softmax responsibilities: log-components
# log w - 0.5 |x - mu|^2 / v - (d/2) log(2 pi v), log-sum-exp responsibilities
# and the component scores -(x - mu) / v.


def _log_components(gm: GaussianMixture, sched: NoiseSchedule, x, t: float):
    """Per-component log of weight times density at (x, t), shape (..., K)."""
    x = np.asarray(x, dtype=float)
    mp = marginal_params(gm, sched, t)
    diff = x[..., None, :] - mp.means_t          # (..., K, d)
    sq = np.sum(diff * diff, axis=-1)            # (..., K)
    return (np.log(mp.weights)
            - 0.5 * sq / mp.vars_t
            - 0.5 * gm.d * np.log(2.0 * np.pi * mp.vars_t))


def log_density(gm: GaussianMixture, sched: NoiseSchedule, x, t: float):
    """Exact log of the perturbed mixture density at (x, t)."""
    return np.logaddexp.reduce(_log_components(gm, sched, x, t), axis=-1)


def responsibilities(gm: GaussianMixture, sched: NoiseSchedule, x, t: float):
    """Per-component posterior weights at (x, t), shape (..., K)."""
    log_comp = _log_components(gm, sched, x, t)
    return np.exp(log_comp - np.logaddexp.reduce(log_comp, axis=-1, keepdims=True))


def score_oracle(gm: GaussianMixture, sched: NoiseSchedule, x, t: float):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to score")
    mp = marginal_params(gm, sched, t)
    diff = x[..., None, :] - mp.means_t                    # (..., K, d)
    with np.errstate(divide="ignore"):
        log_c = np.log(mp.weights) - 0.5 * gm.d * np.log(2.0 * np.pi * mp.vars_t)
    log_comp = np.sum(diff * diff, axis=-1) * (-0.5 / mp.vars_t) + log_c
    e = np.exp(log_comp - np.max(log_comp, axis=-1, keepdims=True))
    r = e / np.sum(e, axis=-1, keepdims=True)              # (..., K)
    return np.sum((r / mp.vars_t)[..., None] * -diff, axis=-2)


def score_logaddexp_oracle(gm: GaussianMixture, sched: NoiseSchedule, x, t: float):
    x = np.asarray(x, dtype=float)
    mp = marginal_params(gm, sched, t)
    r = responsibilities(gm, sched, x, t)                  # (..., K)
    comp_score = -(x[..., None, :] - mp.means_t) / mp.vars_t[:, None]
    return np.sum(r[..., None] * comp_score, axis=-2)


def _random_mixture(K: int, d: int, seed: int) -> GaussianMixture:
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, K)
    return GaussianMixture(weights=w / w.sum(), means=rng.uniform(-3, 3, (K, d)),
                           variances=rng.uniform(0.01, 1.0, K))


def test_validation(bimodal):
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.6, 0.6], means=[[0.0], [1.0]], variances=[1.0, 1.0])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0]], variances=[0.0])
    with pytest.raises(ValueError, match=r"means \(K,d\)"):
        GaussianMixture(weights=[1.0], means=[0.0, 0.0], variances=[1.0])
    with pytest.raises(ValueError, match="component counts disagree"):
        GaussianMixture(weights=[0.5, 0.5], means=[[0.0]], variances=[1.0, 1.0])
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_data(bimodal, 0, seed=0)


def test_marginal_standard_normal_is_invariant(sched, standard_normal_2d):
    for t in (0.0, 0.3, 0.7, 1.0):
        mp = marginal_params(standard_normal_2d, sched, t)
        assert mp.vars_t[0] == pytest.approx(1.0, abs=1e-12)


def test_marginal_at_zero_time(sched, bimodal):
    mp = marginal_params(bimodal, sched, 0.0)
    assert np.allclose(mp.means_t, bimodal.means)
    assert np.allclose(mp.vars_t, bimodal.variances)


def test_marginal_at_horizon(sched):
    gm = GaussianMixture(weights=[1.0], means=[[10.0, 0.0]], variances=[1.0])
    mp = marginal_params(gm, sched, 1.0)
    assert mp.means_t[0, 0] == pytest.approx(10 * sched.alpha(1.0), rel=1e-12)
    assert mp.vars_t[0] == pytest.approx(1.0, abs=1e-4)


def test_marginal_approaches_prior(sched, bimodal):
    mp = marginal_params(bimodal, sched, 1.0)
    # component means shrink by alpha(1) = exp(-5.025)
    assert np.linalg.norm(mp.means_t) == pytest.approx(
        sched.alpha(1.0) * np.linalg.norm(bimodal.means), rel=1e-12)
    assert np.linalg.norm(mp.means_t) < 2e-2
    assert np.all(np.abs(mp.vars_t - 1.0) < 1e-3)


def test_score_standard_normal(sched, standard_normal_2d):
    x = np.array([1.3, -0.4])
    for t in (0.01, 0.5, 1.0):
        assert np.allclose(score(standard_normal_2d, sched, x, t), -x, atol=1e-12)


def test_score_single_component_closed_form(sched):
    gm = GaussianMixture(weights=[1.0], means=[[1.5, -2.0]], variances=[0.36])
    t = 0.4
    a, sg = sched.alpha(t), sched.sigma(t)
    var_t = a * a * 0.36 + sg * sg
    x = np.array([0.2, 0.9])
    expected = -(x - a * np.array([1.5, -2.0])) / var_t
    assert np.allclose(score(gm, sched, x, t), expected, rtol=1e-12)


def test_score_matches_log_density_gradient(sched, bimodal):
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        t = rng.uniform(sched.t_min, 1.0)
        analytic = score(bimodal, sched, x, t)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (log_density(bimodal, sched, x + e, t)
                     - log_density(bimodal, sched, x - e, t)) / (2 * h)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("field, value", [
    ("weights", [np.nan, 0.5]),
    ("means", [[2.0, np.nan], [-2.0, 0.0]]),
    ("variances", [np.nan, 0.01]),
    ("variances", [np.inf, 0.01]),
    ("means", [[np.inf, 0.0], [-2.0, 0.0]]),
])
def test_validation_rejects_non_finite(field, value):
    # NaN passes both the sign and the sum checks, so it needs its own
    fields = dict(weights=[0.5, 0.5], means=[[2.0, 0.0], [-2.0, 0.0]],
                  variances=[0.01, 0.01])
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        GaussianMixture(**fields)


def test_score_rejects_non_finite(sched, bimodal):
    with pytest.raises(ValueError):
        score(bimodal, sched, np.array([np.nan, 0.0]), 0.5)


def test_score_stable_far_from_modes(sched, bimodal):
    # log-sum-exp keeps responsibilities sane where densities underflow
    s = score(bimodal, sched, np.array([200.0, -150.0]), 0.2)
    assert np.all(np.isfinite(s))


def test_responsibilities_sum_to_one(sched, bimodal):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-5, 5, 2)
        t = rng.uniform(sched.t_min, 1.0)
        r = responsibilities(bimodal, sched, x, t)
        assert abs(r.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("K", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_score_bit_identical_to_oracle(sched, K, d):
    gm = _random_mixture(K, d, seed=10 * K + d)
    rng = np.random.default_rng(K * d)
    for shape in [(d,), (50, d), (2, 3, d), (4096, d), (0, d), (0, 3, d)]:
        near = rng.uniform(-4, 4, shape)
        far = rng.choice([-200.0, 200.0], shape)    # densities underflow here
        for x in (near, far):
            for t in (sched.t_min, 0.05, 0.5, sched.t_max):
                got = score(gm, sched, x, t)
                assert got.shape == x.shape and got.flags.c_contiguous
                assert np.array_equal(got, score_oracle(gm, sched, x, t))


@pytest.mark.parametrize("K", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_score_agrees_with_logaddexp_oracle(sched, K, d):
    # the softmax and log-sum-exp responsibilities round differently; far
    # from the modes at t_min the log-components reach 1e6, and the gap
    # there read at most 4.3e-11 of the row's largest |score|
    gm = _random_mixture(K, d, seed=10 * K + d)
    rng = np.random.default_rng(K * d)
    for shape in [(d,), (50, d), (2, 3, d), (4096, d), (0, d), (0, 3, d)]:
        near = rng.uniform(-4, 4, shape)
        far = rng.choice([-200.0, 200.0], shape)
        for x in (near, far):
            for t in (sched.t_min, 0.05, 0.5, sched.t_max):
                got = score(gm, sched, x, t)
                scale = np.max(np.abs(got), axis=-1, keepdims=True)
                assert np.all(np.abs(got - score_logaddexp_oracle(gm, sched, x, t))
                              <= 1e-10 * scale)


def test_zero_weight_component_is_ignored(sched, grid4):
    # log(0) = -inf is a valid log-component: its responsibility is 0, so
    # the mixture scores and solves as its other component alone, with no
    # divide-by-zero warning (an error under the suite's warning filter)
    one = GaussianMixture(weights=[1.0], means=[[1.0, -0.5]], variances=[0.04])
    two = GaussianMixture(weights=[1.0, 0.0], means=[[1.0, -0.5], [-3.0, 2.0]],
                          variances=[0.04, 0.3])
    x = np.random.default_rng(6).standard_normal((300, 2)) * 2.0
    for t in (sched.t_min, 0.05, 0.5, sched.t_max):
        assert np.array_equal(score(two, sched, x, t), score(one, sched, x, t))
    assert np.array_equal(solve_trajectory(two, sched, x, grid4, "heun", 16).values,
                          solve_trajectory(one, sched, x, grid4, "heun", 16).values)


def test_score_allocates_no_second_component_array(sched, bimodal):
    # score builds no (K, d, n) array: past its (d, n) copy of x and its
    # (K, n) block it needs at most three (n,) rows and the (n, d) output
    x = np.random.default_rng(0).standard_normal((4096, bimodal.d))
    K, d = bimodal.means.shape
    tracemalloc.start()
    try:
        score(bimodal, sched, x, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (K + 2 * d + 3) * x.shape[0] * 8


def _with_oracle_score(monkeypatch):
    """Route the solvers' score calls (pf_rhs by trajectories.score,
    epsilon_hat by mixture.score) to score_oracle; returns the call count."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return score_oracle(*args)

    monkeypatch.setattr(trajectories, "score", counted)
    monkeypatch.setattr(mixture, "score", counted)
    return calls


def test_solvers_bit_identical_with_oracle_score(monkeypatch, sched, bimodal, grid4):
    x_T = np.random.default_rng(5).standard_normal((64, 2)) * 1.5
    solvers = ("euler", "heun", "exponential")
    got = {s: solve_trajectory(bimodal, sched, x_T, grid4, s, substeps=8).values
           for s in solvers}
    calls = _with_oracle_score(monkeypatch)
    for s in solvers:
        before = calls[0]
        want = solve_trajectory(bimodal, sched, x_T, grid4, s, substeps=8).values
        assert calls[0] > before
        assert np.array_equal(got[s], want)


def test_dataset_bytes_bit_identical_with_oracle_score(monkeypatch, tmp_path, sched,
                                                       bimodal, grid4):
    generate_dataset(bimodal, sched, grid4, 40, base_seed=3, path=tmp_path / "new.bin")
    calls = _with_oracle_score(monkeypatch)
    generate_dataset(bimodal, sched, grid4, 40, base_seed=3, path=tmp_path / "oracle.bin")
    assert calls[0] > 0
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "oracle.bin").read_bytes()


def test_epsilon_hat_definition(sched, standard_normal_2d, bimodal):
    x = np.array([0.4, -1.1])
    t = 0.6
    assert np.allclose(epsilon_hat(standard_normal_2d, sched, x, t),
                       sched.sigma(t) * x, rtol=1e-12)
    eh = epsilon_hat(bimodal, sched, x, t)
    assert np.allclose(-eh / sched.sigma(t), score(bimodal, sched, x, t), rtol=1e-12)


def test_epsilon_hat_small_at_t_min(sched, bimodal):
    x = np.array([0.5, 0.5])
    eh = epsilon_hat(bimodal, sched, x, sched.t_min)
    assert np.linalg.norm(eh) <= sched.sigma(sched.t_min) * np.linalg.norm(
        score(bimodal, sched, x, sched.t_min))


def test_sample_data_deterministic(bimodal):
    a = sample_data(bimodal, 100, seed=7)
    b = sample_data(bimodal, 100, seed=7)
    assert np.array_equal(a, b)


def test_sample_data_clt_bound():
    gm = GaussianMixture(weights=[1.0], means=[[0.7, -0.2]], variances=[0.25])
    n = 100_000
    x = sample_data(gm, n, seed=0)
    bound = 4 * 0.5 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0) - np.array([0.7, -0.2])) < bound)


def test_sample_data_degenerate_weights():
    gm = GaussianMixture(weights=[1.0, 0.0], means=[[5.0, 5.0], [-5.0, -5.0]],
                         variances=[0.01, 0.01])
    x = sample_data(gm, 1000, seed=1)
    assert np.all(np.linalg.norm(x - np.array([5.0, 5.0]), axis=1) < 1.0)


@pytest.mark.parametrize("shape", [(4,), (2, 4), (3,), ()])
def test_score_rejects_wrong_dimension(sched, bimodal, shape):
    # score flattens its input to rows of d; a trailing axis of any other
    # length must not be read as rows of d
    with pytest.raises(ValueError):
        score(bimodal, sched, np.zeros(shape), 0.5)
