"""The names the benchmark under perfbench/ reaches into the package by.

perfbench/spans.py wraps package functions by name for its traced runs
and perfbench/run.py calls a few internals as oracles; a rename or
deletion here would otherwise surface only when the benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

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
