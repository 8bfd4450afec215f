import json
import os

import numpy as np
import pytest
from scipy.integrate import quad

from flowop import cli
from flowop.mixture import GaussianMixture, sample_data
from flowop import trajectories as traj_mod
from flowop.schedule import coefficients_at
from flowop.trajectories import (IntegrationDiverged, TimeGrid, TrajectoryDataset,
                                 generate_dataset, make_time_grid, pf_rhs,
                                 solve_trajectory, step_euler, step_exponential,
                                 step_heun)


def _sigma_tilde(sched, t, s2):
    a, sg = sched.alpha(t), sched.sigma(t)
    return np.sqrt(a * a * s2 + sg * sg)


def _analytic_single_gaussian(sched, x_T, t, s2):
    # the flow field is linear; the solution scales with the marginal std
    return x_T * _sigma_tilde(sched, t, s2) / _sigma_tilde(sched, sched.t_max, s2)


# ---------------------------------------------------------------- time grids

def test_quadratic_grid_values():
    g = make_time_grid(4, "quadratic", 1.0, 1e-12)
    assert np.allclose(g.times, [1.0, 0.5625, 0.25, 0.0625], atol=1e-10)


def test_uniform_grid_values():
    g = make_time_grid(4, "uniform", 1.0, 1e-12)
    assert np.allclose(g.times, [1.0, 0.75, 0.5, 0.25], atol=1e-10)


def test_single_point_grid():
    g = make_time_grid(1, "uniform", 0.8, 1e-3)
    assert g.times.tolist() == [0.8]


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        make_time_grid(0, "uniform", 1.0, 1e-3)
    with pytest.raises(ValueError):
        make_time_grid(4, "uniform", 0.5, 0.5)
    with pytest.raises(ValueError):
        make_time_grid(4, "cubic", 1.0, 1e-3)
    for times, match in (([], "at least one time"), ([0.5, 0.5], "strictly decreasing"),
                         ([0.5, 0.0], "positive")):
        with pytest.raises(ValueError, match=match):
            TimeGrid(times=np.array(times))


def test_grid_descending_in_range(sched):
    for scheme in ("uniform", "quadratic"):
        g = make_time_grid(7, scheme, 1.0, 1e-3)
        assert np.all(np.diff(g.times) < 0)
        assert g.times[0] <= 1.0 and g.times[-1] > 1e-3


# ------------------------------------------------------------------- the ODE

def test_rhs_vanishes_for_standard_normal(sched, standard_normal_2d):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(2)
        t = rng.uniform(sched.t_min, 1.0)
        assert np.max(np.abs(pf_rhs(standard_normal_2d, sched, x, t))) < 1e-12


def test_rhs_single_gaussian_closed_form(sched, single_gaussian):
    x = np.array([0.8, -0.6])
    t = 0.45
    c = coefficients_at(sched, t)
    var = c.alpha**2 * 0.25 + c.sigma**2
    expected = -0.5 * c.beta * x * (1 - 1 / var)
    assert np.allclose(pf_rhs(single_gaussian, sched, x, t), expected, rtol=1e-12)


def test_rhs_shape(sched, bimodal):
    assert pf_rhs(bimodal, sched, np.zeros(2), 0.5).shape == (2,)
    assert pf_rhs(bimodal, sched, np.zeros((7, 2)), 0.5).shape == (7, 2)


# ------------------------------------------------------------------- solvers

def test_steps_fix_zero_field():
    rhs = lambda x, t: np.zeros_like(x)
    x = np.array([1.0, 2.0])
    assert np.array_equal(step_euler(rhs, x, 0.9, 0.5), x)
    assert np.array_equal(step_heun(rhs, x, 0.9, 0.5), x)


def test_score_and_steps_leave_x_unchanged(sched, bimodal):
    # score builds its result in place, so nothing on the way may write
    # into the caller's state; an rhs may return its own input, so the
    # explicit steps must not update rhs's result in place either
    from flowop.mixture import epsilon_hat, score
    x = np.random.default_rng(3).standard_normal((64, 2))
    keep = x.copy()
    rhs = lambda y, t: pf_rhs(bimodal, sched, y, t)
    identity = lambda y, t: y
    for call in (lambda: score(bimodal, sched, x, 0.5),
                 lambda: epsilon_hat(bimodal, sched, x, 0.5),
                 lambda: pf_rhs(bimodal, sched, x, 0.5),
                 lambda: step_euler(rhs, x, 0.7, 0.5),
                 lambda: step_heun(rhs, x, 0.7, 0.5),
                 lambda: step_exponential(bimodal, sched, x, 0.7, 0.5),
                 lambda: step_euler(identity, x, 0.7, 0.5),
                 lambda: step_heun(identity, x, 0.7, 0.5)):
        out = call()
        assert np.array_equal(x, keep)
        assert not np.shares_memory(out, x)


def test_zero_length_step(sched, bimodal):
    rhs = lambda x, t: pf_rhs(bimodal, sched, x, t)
    x = np.array([0.3, -0.2])
    assert np.array_equal(step_euler(rhs, x, 0.7, 0.7), x)
    assert np.array_equal(step_heun(rhs, x, 0.7, 0.7), x)
    assert np.allclose(step_exponential(bimodal, sched, x, 0.7, 0.7), x, atol=1e-15)


def test_step_error_scaling(sched, single_gaussian):
    # Richardson on the analytic solution: halving the step size should
    # halve Euler's error and quarter Heun's
    rhs = lambda x, t: pf_rhs(single_gaussian, sched, x, t)
    x0 = np.array([1.0, -1.0])
    t0, t1 = 0.8, 0.6

    def endpoint_error(stepper, n):
        x = x0.copy()
        for a, b in zip(np.linspace(t0, t1, n + 1)[:-1], np.linspace(t0, t1, n + 1)[1:]):
            x = stepper(rhs, x, a, b)
        ref = _analytic_single_gaussian(sched, x0 * _sigma_tilde(sched, sched.t_max, 0.25)
                                        / _sigma_tilde(sched, t0, 0.25), t1, 0.25)
        return np.max(np.abs(x - ref))

    e8, e16 = endpoint_error(step_euler, 8), endpoint_error(step_euler, 16)
    h8, h16 = endpoint_error(step_heun, 8), endpoint_error(step_heun, 16)
    assert e8 / e16 == pytest.approx(2.0, rel=0.2)
    assert h8 / h16 == pytest.approx(4.0, rel=0.25)


def test_exponential_step_homogeneous_part(sched, bimodal):
    # at a point where eps_hat vanishes the step is the pure transition scale
    x = np.zeros(2)  # symmetric point: the bimodal score is zero on the axis
    t, tn = 0.9, 0.4
    out = step_exponential(bimodal, sched, x, t, tn)
    assert np.allclose(out, (sched.alpha(tn) / sched.alpha(t)) * x, atol=1e-14)


def test_exponential_step_standard_normal(sched, standard_normal_2d):
    x = np.array([0.7, -0.3])
    t, tn = 0.8, 0.3
    out = step_exponential(standard_normal_2d, sched, x, t, tn)
    shrink = sched.alpha(tn) * sched.alpha(t) + sched.sigma(tn) * sched.sigma(t)
    assert np.allclose(out, shrink * x, rtol=1e-12)


def test_exponential_step_exact_for_constant_eps(sched):
    # quadrature oracle on the semi-linear solution with a frozen noise term
    c_eps = 1.7
    s, t = 1.0, sched.t_min

    def integrand(tau):
        b = sched.beta(tau)
        return (sched.alpha(t) / sched.alpha(tau)) * (b / 2) * (-c_eps / sched.sigma(tau))

    integral, _ = quad(integrand, s, t, epsabs=1e-14, epsrel=1e-13, limit=500)
    closed = (sched.sigma(t) - (sched.alpha(t) / sched.alpha(s)) * sched.sigma(s)) * c_eps
    assert abs(-integral - closed) <= 1e-12 * max(1.0, abs(closed))


# -------------------------------------------------------------- trajectories

def test_constant_trajectory_standard_normal(sched, standard_normal_2d, grid4):
    x0 = np.random.default_rng(5).standard_normal((8, 2))
    traj = solve_trajectory(standard_normal_2d, sched, x0, grid4,
                            solver="heun", substeps=32)
    assert np.max(np.abs(traj.values - x0[:, None, :])) < 1e-4


def test_single_gaussian_matches_analytic(sched, single_gaussian, grid4):
    x0 = np.random.default_rng(6).standard_normal((8, 2))
    traj = solve_trajectory(single_gaussian, sched, x0, grid4,
                            solver="heun", substeps=64)
    for m, t in enumerate(grid4.times):
        ref = _analytic_single_gaussian(sched, x0, t, 0.25)
        assert np.max(np.abs(traj.values[:, m, :] - ref)) < 1e-4


def test_solver_determinism(sched, bimodal, grid4):
    x0 = np.random.default_rng(7).standard_normal((4, 2))
    a = solve_trajectory(bimodal, sched, x0, grid4, substeps=16)
    b = solve_trajectory(bimodal, sched, x0, grid4, substeps=16)
    assert np.array_equal(a.values, b.values)


def test_recorded_rows_match_grid_length(sched, bimodal):
    g = make_time_grid(6, "uniform", 0.9, 1e-3)
    traj = solve_trajectory(bimodal, sched, np.zeros(2), g, substeps=4)
    assert traj.values.shape == (6, 2)
    assert np.all(np.isfinite(traj.values))


@pytest.mark.parametrize("solver, substeps, match", [
    ("rk4", 4, "unknown solver 'rk4'"), ("Heun", 4, "unknown solver"),
    ("heun", 0, "substeps must be >= 1")])
def test_solver_and_substeps_checked_before_any_step(sched, bimodal, grid4, monkeypatch,
                                                     solver, substeps, match):
    # _advance dispatches on a name already checked: an unknown one must
    # not fall through to a stepper
    def no_step(*args):
        raise AssertionError("stepped")

    for name in ("step_euler", "step_heun", "step_exponential"):
        monkeypatch.setattr(traj_mod, name, no_step)
    with pytest.raises(ValueError, match=match):
        solve_trajectory(bimodal, sched, np.zeros((3, 2)), grid4, solver=solver,
                         substeps=substeps)


def test_divergence_reports_time(sched):
    gm = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])
    g = make_time_grid(2, "uniform", 1.0, 1e-3)

    # force divergence by integrating a deliberately huge state
    with pytest.raises(IntegrationDiverged) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        solve_trajectory(gm, sched, np.full(2, 1e300), g, solver="euler", substeps=4)
    assert exc.value.t <= 1.0


# ------------------------------------------------------------------ datasets

def test_dataset_round_trip_bit_exact(tmp_path, sched, bimodal, grid4):
    ds = generate_dataset(bimodal, sched, grid4, N=16, base_seed=3, substeps=8)
    path = tmp_path / "data.bin"
    ds.save(path)
    loaded = TrajectoryDataset.load(path)
    assert np.array_equal(loaded.x_T, ds.x_T)
    assert np.array_equal(loaded.values, ds.values)
    assert np.array_equal(loaded.grid.times, grid4.times)
    assert loaded.sched == sched


def test_dataset_regeneration_identical_bytes(tmp_path, sched, bimodal, grid4):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    generate_dataset(bimodal, sched, grid4, N=8, base_seed=11, substeps=8, path=p1)
    generate_dataset(bimodal, sched, grid4, N=8, base_seed=11, substeps=8, path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_header_layout(tmp_path, sched, bimodal, grid4):
    path = tmp_path / "h.bin"
    generate_dataset(bimodal, sched, grid4, N=2, base_seed=0, substeps=4, path=path)
    raw = path.read_bytes()
    assert raw[:4] == b"DSNO"
    d = int.from_bytes(raw[8:12], "little")
    M = int.from_bytes(raw[12:16], "little")
    N = int.from_bytes(raw[16:24], "little")
    assert (d, M, N) == (2, 4, 2)
    header_len = 4 + 4 + 4 + 4 + 8 + 4 * 8 + M * 8
    assert len(raw) == header_len + N * (d + M * d) * 4
    # another version is refused; a set holds at least one record
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(ValueError, match="unsupported dataset version 2"):
        TrajectoryDataset.load(path)
    with pytest.raises(ValueError, match="N must be >= 1"):
        generate_dataset(bimodal, sched, grid4, N=0, base_seed=0, substeps=4)


def test_dataset_truncation_detected(tmp_path, sched, bimodal, grid4):
    path = tmp_path / "t.bin"
    generate_dataset(bimodal, sched, grid4, N=4, base_seed=0, substeps=4, path=path)
    full = path.read_bytes()
    path.write_bytes(full[:-8])
    with pytest.raises(ValueError, match="truncated"):
        TrajectoryDataset.load(path)
    for cut in (20, 60, 77):       # inside the fixed header, inside the grid times
        path.write_bytes(full[:cut])
        with pytest.raises(ValueError, match="dataset truncated"):
            TrajectoryDataset.load(path)


@pytest.mark.parametrize("failing", ["concatenate", "replace"])
def test_failed_dataset_write_keeps_previous_file(tmp_path, monkeypatch, sched, bimodal,
                                                  grid4, failing):
    # a failure mid-write (the records come after the header and the grid
    # times) or at the rename leaves the previous file byte-identical and
    # no temporary behind
    path = tmp_path / "data.bin"
    generate_dataset(bimodal, sched, grid4, N=4, base_seed=0, substeps=4, path=path)
    before = path.read_bytes()
    ds = generate_dataset(bimodal, sched, grid4, N=8, base_seed=1, substeps=4)

    def fail(*args, **kwargs):
        raise OSError("injected")

    monkeypatch.setattr(np if failing == "concatenate" else os, failing, fail)
    with pytest.raises(OSError, match="injected"):
        ds.save(path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["data.bin"]


# ------------------------------------------------------------------ seeding

def oracle_x_T(base_seed, N, d):
    """Record j's noise drawn the per-record way: its own default_rng."""
    return np.stack([np.random.default_rng(base_seed + j).standard_normal(d)
                     for j in range(N)])


# single records, small seeds, and ranges that cross 2**32, 2**64 (2 -> 3
# words) and 2**128 (4 -> 5 words, which takes the hash's extra mixing loop)
SEED_RANGES = [(0, 1), (7, 1), (0, 40), (2**32 - 5, 10), (2**63 - 3, 6), (2**64 - 5, 10),
               (2**96 - 2, 4), (2**128 - 4, 8), (2**160 + 12345, 3),
               (2_000_003 * (2**31 - 1) + 1, 5)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("base_seed, N", SEED_RANGES)
def test_seeded_normals_bit_identical_to_default_rng(base_seed, N, d):
    got = traj_mod._seeded_normals(base_seed, N, d)
    assert got.shape == (N, d)
    assert np.array_equal(got, oracle_x_T(base_seed, N, d))


def test_seeded_normals_random_seeds():
    for base_seed in np.random.default_rng(3).integers(0, 2**63, 100).tolist():
        assert np.array_equal(traj_mod._seeded_normals(base_seed, 3, 2),
                              oracle_x_T(base_seed, 3, 2))


def test_dataset_subset_regenerates_from_its_seed(sched, bimodal, grid4):
    # records j..j+k of a set are the set generated from base_seed + j
    base, j, k = 2**32 - 6, 4, 5
    full = generate_dataset(bimodal, sched, grid4, N=12, base_seed=base, substeps=4)
    part = generate_dataset(bimodal, sched, grid4, N=k, base_seed=base + j, substeps=4)
    assert np.array_equal(full.x_T[j:j + k], part.x_T)
    assert np.array_equal(full.values[j:j + k], part.values)
    assert np.array_equal(full.x_T, oracle_x_T(base, 12, 2).astype(np.float32))


def test_seeding_guard_rejects_a_wrong_hash(monkeypatch, sched, bimodal, grid4):
    seed_state = traj_mod._seed_state
    monkeypatch.setattr(traj_mod, "_seed_state",
                        lambda base_seed, N: seed_state(base_seed, N) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="differs from default_rng"):
        generate_dataset(bimodal, sched, grid4, N=4, base_seed=5, substeps=2)


@pytest.mark.parametrize("base_seed, error", [(-1, ValueError), (2.0, TypeError)])
def test_seeding_rejects_what_default_rng_rejects(base_seed, error):
    with pytest.raises(error):
        traj_mod._seeded_normals(base_seed, 3, 2)


def test_seeding_takes_numpy_integers():
    assert np.array_equal(traj_mod._seeded_normals(np.int64(2**40), 3, 2),
                          oracle_x_T(2**40, 3, 2))


@pytest.mark.parametrize("dataset", [
    {},                                                   # the default config
    {"N": 2000, "base_seed": 2_000_003 * (2**31 - 1) + 1},  # the benchmark's gen config
])
def test_gen_data_file_identical_with_per_record_seeding(monkeypatch, tmp_path, dataset):
    def gen(name):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": {**dataset, "path": str(tmp_path / name)},
                                   "out_dir": str(tmp_path / "run")}))
        assert cli.run(["gen-data", "--config", str(cfg)]) == 0
        return (tmp_path / name).read_bytes()

    new = gen("new.bin")
    monkeypatch.setattr(traj_mod, "_seeded_normals", oracle_x_T)
    assert gen("oracle.bin") == new


def test_dataset_endpoints_match_data_statistics(sched, bimodal, grid4):
    n = 10_000
    ds = generate_dataset(bimodal, sched, grid4, N=n, base_seed=0, substeps=32)
    endpoints = ds.values[:, -1, :].astype(float)
    ref = sample_data(bimodal, 200_000, seed=9)
    sd = ref.std(axis=0)
    bound = 4 * sd / np.sqrt(n)
    assert np.all(np.abs(endpoints.mean(axis=0) - ref.mean(axis=0)) < bound)
