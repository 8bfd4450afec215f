import copy
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_config_table_matches_the_defaults():
    # README's table of settable values: each row's backticked keys are its
    # section's keys in order (the row without a section holds the top-level
    # leaves), each "(default)" that is a JSON literal is the default, and
    # the count it states is the number of leaves
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def leaves(node):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in node.values())

    assert int(re.search(r"The (\d+) settable values", readme)[1]) == leaves(_DEFAULTS) == 25
    table = readme[readme.index("| Section | Keys (defaults) |"):].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.split("|")[1:3]] for line in table.splitlines()[2:]]
    assert [name for name, _ in rows] == [f"`{k}`" for k, v in _DEFAULTS.items()
                                          if isinstance(v, dict)] + [""]
    top = {k: v for k, v in _DEFAULTS.items() if not isinstance(v, dict)}
    for name, cell in rows:
        section = _DEFAULTS[name.strip("`")] if name else top
        keys = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cell)
        assert [k for k, _ in keys] == list(section)
        for key, text in keys:
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                continue        # no default, or one given in words
            assert value == section[key], key


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


# sha256 of every file a gen-data, train, sample, eval and spectrum run
# writes; digests taken with float64 OpenBLAS 0.3.31 on x86-64
GOLDEN_RUN = {
    "data.bin": "6fab61a371c517d6ea450356568d4d717a7b31a37f1851568564a14f20d5acc4",
    "run/eval.tsv": "1e7dd1b7f1a7206ae4a8bdb0a1a186763bdf5ec26d489dca1e4fe190802e0dda",
    "run/loss.tsv": "8ae311376d0f673f0a142afa963c96c0cccdddea51ec117320e2f79cffc1e41c",
    "run/model.bin": "371e3a9d5d5113d4abfa173a68d207012b61a08656749c87e2ddb6ceb6deac79",
    "run/samples.tsv": "806d90acefc415442f5b0b8f6a154a3ec04391a2e7841bf4cf4b493d7ed2528d",
    "run/spectrum.tsv": "dd7a658fc5f0c01d664086b6fe75bef8c318238951c5297cf5d8a9bcbb5afab4",
    "run/summary_eval.tsv": "3f1b0a2773ca40e1bf95f4ef1a9bddd6fb9171cc091b81a0511d0075abf546d3",
    "run/summary_gen-data.tsv": "9dd8c3501cb83c4973a0be9a936a586f9d0083e3f8ee492fefdd3199c3033aa8",
    "run/summary_sample.tsv": "e787c5ba3450a4943884fd5b71d05488c50c972542e5125567e31b42e45401af",
    "run/summary_spectrum.tsv": "c88be593266ff5657d5d129637788c104ef179939e125c0577f4f2a7ad3cddf7",
    "run/summary_train.tsv": "a1e2a8a35e66484b09f285dd87d9b89f61da4b1973a63989c05fe08df48efd2c",
}


def test_cli_golden_run(tmp_path, monkeypatch):
    # relative paths, so the summaries hold no name of the temporary directory
    write_config(tmp_path, dataset={"path": "data.bin"}, out_dir="run")
    monkeypatch.chdir(tmp_path)
    for argv in (["gen-data"], ["train"], ["sample", "--n", "32"], ["eval", "--n", "64"],
                 ["spectrum", "--n", "4"]):
        assert run([*argv, "--config", "config.json"]) == 0
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.name != "config.json"}
    assert written == GOLDEN_RUN


def test_cli_module_entry_point(tmp_path):
    # `python -m flowop.cli` runs the same command line as the installed
    # `flowop` script, exit status included
    cfg_path = write_config(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def flowop_cli(*args):
        return subprocess.run([sys.executable, "-m", "flowop.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = flowop_cli("gen-data", "--config", str(cfg_path))
    assert done.returncode == 0, done.stderr
    assert "wrote 48 trajectories" in done.stdout
    assert TrajectoryDataset.load(tmp_path / "data.bin").N == 48
    assert flowop_cli("gen-data", "--config", str(tmp_path / "missing.json")).returncode == 2


def test_eval_loads_the_model_once(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    load, paths = cli.load_checkpoint, []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: paths.append(path) or load(path))
    assert run(["eval", "--config", str(cfg_path), "--n", "16"]) == 0
    assert paths == [str(tmp_path / "run" / "model.bin")]


@pytest.mark.parametrize("command", ["sample", "eval"])
@pytest.mark.parametrize("change, differs", [
    ({"grid": {"M": 8}}, "model.M=4, this run has 8"),
    ({"model": {"C": 16}}, "model.C=8, this run has 16"),
], ids=["grid-M", "model-C"])
def test_sample_and_eval_refuse_another_model(tmp_path, capsys, command, change, differs):
    # the checkpoint holds a C=8, M=4 model and the config asks for another:
    # the run exits 1 naming the first field that differs, before any write
    cfg_path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path)]) == 0
    before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
    capsys.readouterr()
    assert run([command, "--config", str(write_config(tmp_path, **change)), "--n", "8"]) == 1
    assert f"model.bin holds another model: {differs}" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "sample", "eval"])
@pytest.mark.parametrize("change, differs", [
    ({"grid": {"scheme": "uniform"}},
     "grid.times=[1.0, 0.5629375, 0.25075, 0.0634375], this run has [1.0, 0.75025,"),
    ({"schedule": {"beta_max": 10.0}}, "schedule.beta_max=20.0, this run has 10.0"),
], ids=["grid-scheme", "schedule-beta_max"])
def test_train_sample_and_eval_refuse_another_setup(tmp_path, capsys, command, change,
                                                    differs):
    # the dataset and the model were made on the default quadratic grid and
    # schedule: a config with other times or schedule constants exits 1
    # naming the field, before any write
    def files():
        return {f: f.read_bytes() for f in tmp_path.rglob("*")
                if f.is_file() and f.name != "config.json"}

    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path), "--steps", "3"]) == 0
    before = files()
    capsys.readouterr()
    argv = [command, "--config", str(write_config(tmp_path, **change))]
    assert run(argv + ([] if command == "train" else ["--n", "8"])) == 1
    holder = "data.bin holds trajectories" if command == "train" else "model.bin holds"
    err = capsys.readouterr().err
    assert holder in err and differs in err
    assert files() == before


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


def test_cli_train_refuses_a_dataset_without_records(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert run(["gen-data", "--config", str(cfg_path)]) == 0
    path = tmp_path / "data.bin"
    data = TrajectoryDataset.load(path)
    dataclasses.replace(data, x_T=data.x_T[:0], values=data.values[:0]).save(path)
    capsys.readouterr()
    assert run(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: the dataset holds no records\n"
    assert not (tmp_path / "run" / "model.bin").exists()


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
    ({"grid": {"s": 2.0}}, "config error: unknown config key 'grid.s'"),
    ({"model": {"E": 3}}, "config error: model: E=3 must be even and >= 2"),
    ({"model": {"E": 1}}, "config error: model: E=1 must be even and >= 2"),
    ({"schedule": {"t_max": float("inf")}}, r"config error: schedule: need 0 < t_min < t_max"),
    ({"schedule": {"t_min": float("nan")}}, r"config error: schedule: need 0 < t_min < t_max"),
    ({"schedule": {"beta_max": float("inf")}},
     r"config error: schedule: need 0 < beta_min <= beta_max"),
    ({"training": {"base_lr": -1.0}},
     r"config error: training: base_lr must be positive and finite, got -1.0"),
    ({"training": {"base_lr": 0}}, "config error: training: base_lr must be positive"),
    ({"training": {"base_lr": float("inf")}}, "config error: training: base_lr must be"),
    ({"training": {"base_lr": float("nan")}}, "config error: training: base_lr must be"),
    # Adam's constants and the leaky-ReLU slope are not config keys
    ({"model": {"slope": 0.01}}, "config error: unknown config key 'model.slope'"),
    ({"training": {"beta1": 0.9}}, "config error: unknown config key 'training.beta1'"),
    ({"training": {"beta2": 0.999}}, "config error: unknown config key 'training.beta2'"),
    ({"training": {"eps": 1e-8}}, "config error: unknown config key 'training.eps'"),
    # an empty path would fail only at the first write, after the solve
    ({"dataset": {"N": 4, "path": ""}}, "config error: dataset: path must not be empty"),
    ({"out_dir": ""}, "config error: out_dir must not be empty"),
])
@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_cli_bad_section_exits_2_before_any_write(tmp_path, capsys, raw, match, command):
    # rejected while the config is read: eval would otherwise fail only
    # after loading a checkpoint, and gen-data only after solving
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **raw}))
    assert run([command, "--config", str(path)]) == 2
    assert re.search(match, capsys.readouterr().err)
    assert _only_config_left(tmp_path)


def test_cli_grid_spans_the_schedule(tmp_path):
    # the grid's first time is the schedule's t_max, whatever t_max is
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schedule": {"t_max": 0.5},
                                "dataset": {"N": 4, "substeps": 2,
                                            "path": str(tmp_path / "d.bin")},
                                "out_dir": str(tmp_path / "run")}))
    assert run(["gen-data", "--config", str(path)]) == 0
    ds = TrajectoryDataset.load(tmp_path / "d.bin")
    assert ds.grid.times[0] == 0.5 and ds.sched.t_max == 0.5
    assert np.allclose(ds.grid.times, [0.5, 0.2817, 0.1258, 0.0322], atol=1e-4)


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
    monkeypatch.setattr(cli, "_load_model", lambda cfg: None)
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
