"""The names the benchmark under perfbench/ reaches into the package by.

perfbench/spans.py wraps package functions by name for its traced runs
and perfbench/run.py calls a few internals as oracles; a rename or
deletion here would otherwise surface only when the benchmark runs.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
RUN_CALLS = [("training", "weighted_loss"), ("training", "_batch_indices"),
             ("cli", "parse_config"), ("cli", "_DEFAULTS")]


@pytest.mark.parametrize(
    "module, name",
    [(m, f) for m, f, _ in SPANS.FUNCTIONS]
    + [("nnops", op) for op in SPANS.NNOPS] + RUN_CALLS)
def test_benchmark_name_exists(module, name):
    assert hasattr(importlib.import_module(f"flowop.{module}"), name)


def test_dense_query_runs_the_traced_spectral_ops(monkeypatch):
    # spans.py measures the factored spectral path through these three
    # names, so a query at Q = 2M (factored, past the dense-map crossover)
    # must call each of them once per block
    from flowop import nnops
    from flowop.operator import DsnoConfig, init_params, query_at
    from flowop.trajectories import make_time_grid
    names = ("dft_at_positions", "mode_multiply", "idft_at")
    assert set(names) <= set(SPANS.NNOPS)
    calls = Counter()
    for name in names:
        def counted(*args, name=name, fn=getattr(nnops, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(nnops, name, counted)
    cfg = DsnoConfig(d=2, C=8, L=2, J=3, M=4, E=8)
    grid = make_time_grid(cfg.M, "quadratic", 1.0, 1e-3)
    q = np.linspace(grid.times[0], grid.times[-1], 2 * cfg.M)
    assert not nnops._dense_spectral_map(q.size, cfg.J)
    query_at(init_params(cfg, seed=0), np.zeros((3, 2)), grid, q)
    assert calls == dict.fromkeys(names, cfg.L)


def test_teacher_calls_score_384_times(monkeypatch):
    # mixture.score_calls and claim.teacher_score_calls count calls of the
    # module-global score: Heun x64 on the default M=4 quadratic grid makes
    # 2 calls per step over 3 non-empty segments (the first grid time is
    # t_max), so a private score fork would read fewer here
    from flowop import trajectories
    from flowop.cli import ExperimentConfig
    cfg = ExperimentConfig({})
    calls = [0]

    def counted(*args, fn=trajectories.score):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(trajectories, "score", counted)
    trajectories.solve_trajectory(cfg.mixture, cfg.sched, np.zeros((4, cfg.mixture.d)),
                                  cfg.grid, solver="heun", substeps=64)
    assert calls[0] == 3 * 64 * 2 == 384


def test_exponential_teacher_calls_score_192_times(monkeypatch):
    # the exponential solver reaches score through mixture.epsilon_hat, one
    # call per step, so mixture.score_calls counts 3 segments x 64 steps
    from flowop import mixture, trajectories
    from flowop.cli import ExperimentConfig
    cfg = ExperimentConfig({})
    calls = [0]

    def counted(*args, fn=mixture.score):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(mixture, "score", counted)
    trajectories.solve_trajectory(cfg.mixture, cfg.sched, np.zeros((4, cfg.mixture.d)),
                                  cfg.grid, solver="exponential", substeps=64)
    assert calls[0] == 3 * 64 == 192


def test_traced_methods_keep_their_shape(tmp_path):
    # spans.install also wraps three methods, Tensor.backward,
    # TrajectoryDataset.save (its path the second positional argument) and
    # the classmethod TrajectoryDataset.load; each traced call must reach
    # the original and fill its span and counter
    from flowop import nnops
    from flowop.mixture import GaussianMixture
    from flowop.schedule import NoiseSchedule
    from flowop.trajectories import TrajectoryDataset, generate_dataset, make_time_grid
    methods = {name: TrajectoryDataset.__dict__[name] for name in ("save", "load")}
    assert isinstance(methods["load"], classmethod)
    ds = generate_dataset(GaussianMixture([1.0], [[0.0, 0.0]], [1.0]), NoiseSchedule(),
                          make_time_grid(2, "quadratic", 1.0, 1e-3), N=3, base_seed=0,
                          substeps=1)
    path = tmp_path / "data.bin"
    pred = nnops.param(np.ones((1, 2, 2)))
    tracer = SPANS.Tracer()
    undo = SPANS.install(tracer)
    try:
        tracer.begin_op("op.contract")
        ds.save(path)
        loaded = TrajectoryDataset.load(path)
        nnops.weighted_l1(pred, np.zeros((1, 2, 2)), np.ones(2)).backward()
        tracer.close()
    finally:
        SPANS.uninstall(undo)
    assert {name: TrajectoryDataset.__dict__[name] for name in methods} == methods
    assert np.array_equal(loaded.values, ds.values)
    assert pred.grad is not None
    counts = tracer.counts
    for span in ("trajectories.save", "trajectories.load", "nnops.backward"):
        assert counts[span + ".calls"] == 1, span
    assert counts["trajectories.bytes_written"] == path.stat().st_size
