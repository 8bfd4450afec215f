import copy
import json
import os
import re

import numpy as np
import pytest

from flowop import cli
from flowop.cli import _DEFAULTS, ConfigError, parse_config, run
from flowop.trajectories import TrajectoryDataset


def write_config(tmp_path, **overrides):
    cfg = {
        "grid": {"M": 4, "scheme": "quadratic"},
        "dataset": {"N": 48, "substeps": 8, "path": str(tmp_path / "data.bin")},
        "model": {"C": 8, "L": 1, "J": 3, "E": 8},
        "training": {"batch_size": 16, "total_steps": 8, "warmup_steps": 2,
                     "base_lr": 1e-3},
        "out_dir": str(tmp_path / "run"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------- config IO

def test_defaults_fill_in(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{}")
    cfg = parse_config(path)
    assert cfg.sched.beta_max == 20.0
    assert cfg.grid.M == 4
    assert cfg.model.C == 64
    assert cfg.training.total_steps == 20000
    assert cfg.mixture.d == 2


def test_unknown_key_rejected_with_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"training": {"lr": 1e-3}}))
    with pytest.raises(ConfigError, match="training.lr"):
        parse_config(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/config.json")


# leaves whose type differs from their default's
BAD_TYPES = [
    ({"grid": {"M": "4"}}, r"'grid.M' must be an integer, got '4'"),
    ({"dataset": {"N": 2.5}}, r"'dataset.N' must be an integer, got 2.5"),
    ({"model": {"C": True}}, r"'model.C' must be an integer, got True"),
    ({"grid": {"M": 4.0}}, r"'grid.M' must be an integer, got 4.0"),
    ({"training": {"base_lr": True}}, r"'training.base_lr' must be a number, got True"),
    ({"out_dir": 5}, r"'out_dir' must be a string, got 5"),
]


def test_invalid_section_values(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schedule": {"beta_min": -1.0}}))
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(path)
    path.write_text(json.dumps({"mixture": {"weights": [0.4, 0.4]}}))
    with pytest.raises(ConfigError, match="mixture"):
        parse_config(path)
    path.write_text(json.dumps({"model": {"J": 9}}))
    with pytest.raises(ConfigError, match="model"):
        parse_config(path)
    path.write_text(json.dumps({"model": {"slope": 1.5}}))
    with pytest.raises(ConfigError, match="model: slope"):
        parse_config(path)
    for raw, match in BAD_TYPES:
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=match):
            parse_config(path)


def test_model_dimension_follows_mixture(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mixture": {
        "weights": [1.0], "means": [[0.0, 0.0, 0.0]], "variances": [1.0]}}))
    cfg = parse_config(path)
    assert cfg.model.d == 3


# -------------------------------------------------------------- subcommands

def test_cli_round_trip_pipeline(tmp_path, capsys):
    cfg_path = write_config(tmp_path)

    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    data_path = tmp_path / "data.bin"
    assert data_path.exists()
    ds = TrajectoryDataset.load(data_path)
    assert ds.N == 48 and ds.grid.M == 4

    assert run(["train", "--config", str(cfg_path)]) == 0
    run_dir = tmp_path / "run"
    assert (run_dir / "model.bin").exists()
    assert (run_dir / "loss.tsv").exists()
    assert (run_dir / "summary_train.tsv").exists()

    assert run(["sample", "--config", str(cfg_path), "--n", "32"]) == 0
    lines = (run_dir / "samples.tsv").read_text().strip().split("\n")
    assert lines[0] == "x0\tx1"
    assert len(lines) == 33

    assert run(["eval", "--config", str(cfg_path), "--n", "64"]) == 0
    eval_lines = (run_dir / "eval.tsv").read_text().strip().split("\n")
    assert eval_lines[0] == "time\trmse"
    assert len(eval_lines) == 5

    assert run(["spectrum", "--config", str(cfg_path), "--n", "4"]) == 0
    assert (run_dir / "spectrum.tsv").exists()

    out = capsys.readouterr().out
    assert "wrote 48 trajectories" in out
    assert "trained 8 steps" in out


def test_eval_loads_the_model_once(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    load, paths = cli.load_checkpoint, []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: paths.append(path) or load(path))
    assert run(["eval", "--config", str(cfg_path), "--n", "16"]) == 0
    assert paths == [str(tmp_path / "run" / "model.bin")]


def test_cli_steps_and_out_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    alt = tmp_path / "alt"
    assert run(["train", "--config", str(cfg_path), "--steps", "3",
                "--out", str(alt)]) == 0
    lines = (alt / "loss.tsv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 steps


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for raw in [{"bogus": 1}] + [raw for raw, _ in BAD_TYPES]:
        bad.write_text(json.dumps(raw))
        assert run(["train", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_bad_slope_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, model={"slope": 1.5})
    assert run(["gen-data", "--config", str(cfg_path)]) == 2
    assert "config error: model: " in capsys.readouterr().err


def test_cli_integer_slope_trains(tmp_path):
    # "slope": 0 is a plain ReLU and arrives from JSON as an int
    cfg_path = write_config(tmp_path, model={"slope": 0})
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path), "--steps", "3"]) == 0


def test_cli_bad_steps_override_exit_code(tmp_path, capsys):
    # default warmup is 500 steps, so 7 total steps is invalid as well as 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"path": str(tmp_path / "none.bin")}}))
    for steps in ("0", "7"):
        assert run(["train", "--config", str(path), "--steps", steps]) == 2
        assert "config error: training: " in capsys.readouterr().err


def test_cli_flags_only_where_used(tmp_path):
    # --steps belongs to train alone, and gen-data draws no seeded samples,
    # so it takes no --seed; an unknown flag exits 2 before any work
    cfg_path = write_config(tmp_path)
    for argv in (["gen-data", "--steps", "7"], ["gen-data", "--seed", "5"],
                 ["sample", "--steps", "7"], ["spectrum", "--steps", "7"]):
        assert run([*argv, "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "data.bin").exists()
    assert not (tmp_path / "run").exists()


def test_cli_overrides_leave_defaults_alone(tmp_path):
    # no training section: the override must not write into _DEFAULTS
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"path": str(tmp_path / "none.bin")},
                                "out_dir": str(tmp_path / "run")}))
    assert run(["train", "--config", str(path), "--steps", "600", "--seed", "3"]) == 1
    assert _DEFAULTS["training"]["total_steps"] == 20000
    assert _DEFAULTS["training"]["seed"] == 0


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # training without a dataset fails with a reported error, not a traceback
    cfg_path = write_config(tmp_path)
    assert run(["train", "--config", str(cfg_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_summary_contains_flattened_config(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    summary = (tmp_path / "run" / "summary_gen-data.tsv").read_text()
    assert "schedule.beta_max\t20.0" in summary
    assert "command\tgen-data" in summary
    assert "dataset_N\t48" in summary


def test_seed_override_changes_training(tmp_path):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path), "--seed", "1",
                "--out", str(tmp_path / "s1")]) == 0
    assert run(["train", "--config", str(cfg_path), "--seed", "2",
                "--out", str(tmp_path / "s2")]) == 0
    a = (tmp_path / "s1" / "loss.tsv").read_text()
    b = (tmp_path / "s2" / "loss.tsv").read_text()
    assert a != b


def _summary(path):
    rows = path.read_text().strip().split("\n")[1:]
    return dict(row.split("\t", 1) for row in rows)


def test_seed_override_is_not_the_training_seed(tmp_path):
    # sample --seed draws the noise; the model was still trained with seed 0
    cfg_path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    assert run(["sample", "--config", str(cfg_path), "--n", "8"]) == 0
    default = (run_dir / "samples.tsv").read_text()
    assert _summary(run_dir / "summary_sample.tsv")["seed"] == "0"
    assert run(["sample", "--config", str(cfg_path), "--n", "8", "--seed", "5"]) == 0
    summary = _summary(run_dir / "summary_sample.tsv")
    assert summary["training.seed"] == "0"
    assert summary["seed"] == "5"
    assert (run_dir / "samples.tsv").read_text() != default


def test_later_commands_keep_the_train_summary(tmp_path):
    cfg_path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    final_loss = _summary(run_dir / "summary_train.tsv")["final_loss"]
    assert run(["sample", "--config", str(cfg_path), "--n", "8"]) == 0
    train_summary = _summary(run_dir / "summary_train.tsv")
    assert train_summary["command"] == "train"
    assert train_summary["final_loss"] == final_loss
    assert _summary(run_dir / "summary_sample.tsv")["command"] == "sample"
    assert not (run_dir / "summary.tsv").exists()


def _only_config_left(tmp_path):
    return [f.name for f in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("raw, match", [
    ({"mixture": {"variances": {"a": 1}}}, "config error: mixture: "),
    ({"mixture": {"weights": [None, 0.5]}}, "config error: mixture: .*finite"),
    ({"mixture": {"means": [[2.0, float("nan")], [-2.0, 0.0]]}},
     "config error: mixture: .*finite"),
    ({"mixture": {"variances": [float("inf"), 0.01]}}, "config error: mixture: .*finite"),
    ({"dataset": {"solver": "rk4"}}, "config error: dataset: unknown solver 'rk4'"),
    ({"dataset": {"substeps": 0}}, "config error: dataset: substeps"),
    ({"dataset": {"N": 0}}, "config error: dataset: N"),
    ({"dataset": {"base_seed": -5}}, "config error: dataset: base_seed must be >= 0"),
    ({"training": {"seed": -1}}, "config error: training: seed must be >= 0"),
    ({"model": 5}, "config error: config section model must be an object"),
])
@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_cli_bad_section_exits_2_before_any_write(tmp_path, capsys, raw, match, command):
    # rejected while the config is read: eval would otherwise fail only
    # after loading a checkpoint, and gen-data only after solving
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "run")}))
    assert run([command, "--config", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)
    assert _only_config_left(tmp_path)


@pytest.mark.parametrize("raw, s, t_max", [
    ({"grid": {"s": 2.0}}, "2", "1"),
    ({"schedule": {"t_max": 0.5}}, "1", "0.5"),
])
@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_cli_grid_beyond_schedule_exits_2(tmp_path, capsys, raw, s, t_max, command):
    # the solver would start at t_max and step up to the first grid time
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "run")}))
    assert run([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: grid: s={s} exceeds schedule.t_max={t_max}" in err
    assert _only_config_left(tmp_path)


@pytest.mark.parametrize("n", ["0", "-3", "abc"])
def test_cli_n_must_be_positive(tmp_path, capsys, n):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "run")}))
    assert run(["sample", "--config", str(path), f"--n={n}"]) == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert _only_config_left(tmp_path)


@pytest.mark.parametrize("command", ["train", "sample", "eval", "spectrum"])
def test_cli_seed_must_be_non_negative(tmp_path, capsys, command):
    # numpy refuses a negative seed only once the command draws from it
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "run")}))
    assert run([command, "--config", str(path), "--seed", "-1"]) == 2
    assert "must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert _only_config_left(tmp_path)


@pytest.mark.parametrize("failing", ["partway", "replace"])
def test_failed_cli_write_keeps_previous_files(tmp_path, monkeypatch, failing):
    # a failure while samples.tsv is half written, or at its rename, leaves
    # the previous samples and summary byte-identical and no temporary behind
    cfg_path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    assert run(["sample", "--config", str(cfg_path), "--n", "8"]) == 0
    before = {f.name: f.read_bytes() for f in run_dir.iterdir()}

    if failing == "partway":
        # the third row cannot be formatted, after the header is written
        rows = np.array([[1.0, 2.0], [3.0, 4.0], ["x", 5.0]], dtype=object)
        monkeypatch.setattr(cli, "_sample_endpoints", lambda *args: rows)
    else:
        def fail(*args, **kwargs):
            raise OSError("injected")
        monkeypatch.setattr(os, "replace", fail)
    assert run(["sample", "--config", str(cfg_path), "--n", "8", "--seed", "5"]) == 1
    assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before


@pytest.mark.parametrize("d", [1, 2, 3])
def test_samples_tsv_bytes_match_per_value_format(tmp_path, monkeypatch, d):
    # samples.tsv is formatted in one pass; each cell must read as
    # format(v, ".8g") would write it, at the edges of float formatting
    values = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 123456789.0, 1e22, -1e22,
              0.1, 1 / 3, 1e-5, 12345678.9, 1e16, float("inf"), float("nan")]
    samples = np.array(values * d).reshape(-1, d)
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: (None, None))
    monkeypatch.setattr(cli, "_sample_endpoints", lambda *args: samples)
    cfg = parse_config(write_config(tmp_path))
    os.makedirs(cfg.out_dir)
    cli.cmd_sample(cfg, samples.shape[0], 0)
    want = "\t".join(f"x{i}" for i in range(d)) + "\n" + "".join(
        "\t".join(format(v, ".8g") for v in row) + "\n" for row in samples.tolist())
    assert (tmp_path / "run" / "samples.tsv").read_bytes() == want.encode()


def test_cli_flags_match_the_same_values_in_the_file(tmp_path):
    # --steps/--seed/--out are overrides of training.total_steps,
    # training.seed and out_dir: the run and its summary are the same
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    out = tmp_path / "alt"
    assert run(["train", "--config", str(cfg_path), "--steps", "3", "--seed", "4",
                "--out", str(out)]) == 0
    by_flags = (out / "summary_train.tsv").read_text()
    model = (out / "model.bin").read_bytes()
    in_file = write_config(tmp_path, training={"total_steps": 3, "seed": 4},
                           out_dir=str(out))
    assert run(["train", "--config", str(in_file)]) == 0
    assert (out / "summary_train.tsv").read_text() == by_flags
    assert (out / "model.bin").read_bytes() == model
    assert _summary(out / "summary_train.tsv")["training.total_steps"] == "3"


def test_cli_out_leaves_defaults_alone(tmp_path):
    # no out_dir and no training section in the file: the flags must not
    # write into _DEFAULTS
    before = copy.deepcopy(_DEFAULTS)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"N": 4, "substeps": 2,
                                            "path": str(tmp_path / "d.bin")}}))
    assert run(["gen-data", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert run(["train", "--config", str(path), "--steps", "1", "--seed", "2",
                "--out", str(tmp_path / "b")]) == 2
    assert _DEFAULTS == before
    assert parse_config(path).out_dir == "runs/default"
