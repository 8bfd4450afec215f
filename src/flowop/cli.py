"""Command-line front end: data generation, training, sampling,
evaluation, and spectrum analysis driven by one strict JSON config."""
from __future__ import annotations

import argparse
import contextlib
import copy
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .mixture import GaussianMixture, sample_data
from .operator import DsnoConfig, forward, load_checkpoint, save_checkpoint
from .schedule import NoiseSchedule
from .spectrum import trajectory_spectrum_report, write_report
from .trajectories import (TrajectoryDataset, atomic_open, check_solver, generate_dataset,
                           make_time_grid)
from .training import (TrainConfig, eval_trajectory_rmse, sliced_wasserstein,
                       train)


class ConfigError(ValueError):
    pass


# the dataclasses' own defaults; the model's d and M follow the mixture and the grid
_DEFAULTS = {
    "schedule": asdict(NoiseSchedule()),
    "mixture": {
        "weights": [0.5, 0.5],
        "means": [[2.0, 0.0], [-2.0, 0.0]],
        "variances": [0.01, 0.01],
    },
    "grid": {"M": 4, "scheme": "quadratic", "s": 1.0, "t_floor": 1e-3},
    "dataset": {"N": 1000, "base_seed": 0, "solver": "heun", "substeps": 64,
                "path": "trajectories.bin"},
    "model": {k: v for k, v in asdict(DsnoConfig()).items() if k not in ("d", "M")},
    "training": asdict(TrainConfig()),
    "out_dir": "runs/default",
}


# a leaf's type follows its default's: what it accepts, and its name
_LEAF_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _merge_strict(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path[:-1] or '<root>'} must be an object")
    out = {}
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
    for key, dval in defaults.items():
        if key in given:
            gval = given[key]
            if isinstance(dval, dict):
                out[key] = _merge_strict(dval, gval, path + key + ".")
            else:
                rule = _LEAF_TYPES.get(type(dval))
                if rule and (isinstance(gval, bool) or not isinstance(gval, rule[0])):
                    raise ConfigError(f"config key {path + key!r} must be {rule[1]}, "
                                      f"got {gval!r}")
                out[key] = gval
        else:
            out[key] = copy.deepcopy(dval)
    return out


@contextlib.contextmanager
def _section(name: str):
    """Reports a section's rejected values as a ConfigError named after it."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from e


class ExperimentConfig:
    """Materialized, validated experiment settings. `overrides` maps dotted
    keys (``"training.total_steps"``, ``"out_dir"``) to values that replace
    the file's before anything is validated."""

    def __init__(self, raw: dict, overrides: dict | None = None):
        cfg = _merge_strict(_DEFAULTS, raw)
        for key, value in (overrides or {}).items():
            *sections, leaf = key.split(".")
            node = cfg
            for name in sections:
                node = node[name]
            node[leaf] = value
        self.raw = cfg
        with _section("schedule"):
            self.sched = NoiseSchedule(**cfg["schedule"])
        with _section("mixture"):
            self.mixture = GaussianMixture(**cfg["mixture"])
        with _section("grid"):
            self.grid = make_time_grid(**cfg["grid"])
            if self.grid.times[0] > self.sched.t_max:
                raise ValueError(f"s={self.grid.times[0]:g} exceeds "
                                 f"schedule.t_max={self.sched.t_max:g}")
        with _section("model"):
            self.model = DsnoConfig(d=self.mixture.d, M=self.grid.M, **cfg["model"])
        with _section("training"):
            self.training = TrainConfig(**cfg["training"])
        self.dataset = cfg["dataset"]
        with _section("dataset"):
            check_solver(self.dataset["solver"], self.dataset["substeps"])
            if self.dataset["N"] < 1:
                raise ValueError("N must be >= 1")
            if self.dataset["base_seed"] < 0:
                raise ValueError(f"base_seed must be >= 0, got {self.dataset['base_seed']}")
        self.out_dir = cfg["out_dir"]

    def flat_items(self):
        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield from walk(f"{prefix}{k}.", v)
            else:
                yield prefix[:-1], json.dumps(obj)
        yield from walk("", self.raw)


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    return ExperimentConfig(raw, overrides)


def _write_tsv(path: str, header, rows) -> None:
    """A header and tab-separated rows of str() cells, written through
    `atomic_open`; rows may be a generator, consumed while writing."""
    with atomic_open(path) as f:
        for row in itertools.chain([header], rows):
            f.write(("\t".join(map(str, row)) + "\n").encode())


def _model_path(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out_dir, "model.bin")


def cmd_gen_data(cfg: ExperimentConfig) -> dict:
    ds = cfg.dataset
    path = ds["path"]
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    generate_dataset(cfg.mixture, cfg.sched, cfg.grid, ds["N"], ds["base_seed"],
                     solver=ds["solver"], substeps=ds["substeps"], path=path)
    print(f"wrote {ds['N']} trajectories to {path}")
    return {"dataset_path": path, "dataset_N": ds["N"]}


def cmd_train(cfg: ExperimentConfig) -> dict:
    data = TrajectoryDataset.load(cfg.dataset["path"])
    result = train(data, cfg.training, cfg.model, out_dir=cfg.out_dir)
    save_checkpoint(_model_path(cfg), result.params,
                    extra={"steps": cfg.training.total_steps})
    final = result.loss_curve[-1][2] if result.loss_curve else float("nan")
    print(f"trained {cfg.training.total_steps} steps, final loss {final:.6g}")
    return {"model_path": _model_path(cfg), "final_loss": final}


def _sample_endpoints(params, cfg: ExperimentConfig, n: int, seed: int) -> np.ndarray:
    x_T = np.random.default_rng(seed).standard_normal((n, cfg.mixture.d))
    return forward(params, x_T, cfg.grid)[:, -1, :]


def cmd_sample(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    params, _ = load_checkpoint(_model_path(cfg))
    samples = _sample_endpoints(params, cfg, n, seed)
    path = os.path.join(cfg.out_dir, "samples.tsv")
    rows, d = samples.shape
    with atomic_open(path) as f:
        f.write(("\t".join(f"x{i}" for i in range(d)) + "\n").encode())
        # one %-format pass over every value; "%.8g" % v is f"{v:.8g}"
        f.write(((("\t".join(["%.8g"] * d) + "\n") * rows)
                 % tuple(samples.ravel().tolist())).encode())
    print(f"wrote {n} one-call samples to {path}")
    return {"samples_path": path, "n_samples": n}


def cmd_eval(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    params, _ = load_checkpoint(_model_path(cfg))
    # held-out solver trajectories, disjoint seeds from the training set
    heldout = generate_dataset(cfg.mixture, cfg.sched, cfg.grid, min(n, 2000),
                               base_seed=cfg.dataset["base_seed"] + 10_000_000,
                               solver=cfg.dataset["solver"],
                               substeps=cfg.dataset["substeps"])
    per_time, pooled = eval_trajectory_rmse(params, heldout)
    _write_tsv(os.path.join(cfg.out_dir, "eval.tsv"), ("time", "rmse"),
               ((f"{t:.8g}", f"{r:.10g}") for t, r in zip(cfg.grid.times, per_time)))
    model_samples = _sample_endpoints(params, cfg, n, seed + 1)
    data_samples = sample_data(cfg.mixture, n, seed + 2)
    sw = sliced_wasserstein(model_samples, data_samples, n_proj=128, seed=seed + 3)
    print(f"pooled trajectory RMSE {pooled:.6g}, sliced-Wasserstein {sw:.6g}")
    return {"rmse_pooled": pooled, "sliced_wasserstein": sw}


def cmd_spectrum(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    report = trajectory_spectrum_report(cfg.mixture, cfg.sched, n_traj=n, seed=seed)
    path = os.path.join(cfg.out_dir, "spectrum.tsv")
    write_report(report, path)
    print(f"band fraction (modes<=5, non-DC) {report.band_fraction_j5_nodc:.6g}")
    return {"spectrum_path": path,
            "band_fraction_j5": report.band_fraction_j5,
            "band_fraction_j5_nodc": report.band_fraction_j5_nodc}


def _int_at_least(low: int, what: str):
    """argparse type: a decimal integer >= low; `what` names the range."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flowop",
                                description="probability-flow trajectory distillation lab")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "sample", "eval", "spectrum"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if name != "gen-data":
            sp.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"),
                            default=None)
        if name == "train":
            sp.add_argument("--steps", type=int, default=None)
        if name in ("sample", "eval", "spectrum"):
            sp.add_argument("--n", type=_int_at_least(1, "a positive integer"),
                            default={"sample": 1000, "eval": 10000, "spectrum": 100}[name])
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # --seed replaces the training seed on train only; elsewhere it seeds
    # that command's own draws
    flags = {"out": "out_dir", "steps": "training.total_steps"}
    if args.command == "train":
        flags["seed"] = "training.seed"
    overrides = {key: getattr(args, flag) for flag, key in flags.items()
                 if getattr(args, flag, None) is not None}
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command == "gen-data":
            results = cmd_gen_data(cfg)
        elif args.command == "train":
            results = cmd_train(cfg)
        else:
            seed = cfg.training.seed if args.seed is None else args.seed
            cmd = {"sample": cmd_sample, "eval": cmd_eval, "spectrum": cmd_spectrum}
            results = {**cmd[args.command](cfg, args.n, seed), "seed": seed}
        _write_tsv(os.path.join(cfg.out_dir, f"summary_{args.command}.tsv"),
                   ("key", "value"), [("command", args.command),
                                      *cfg.flat_items(), *results.items()])
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
