"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, prints exactly
   the metrics BENCHMARK.json names, with their units, and no failures.
2. The exact per-round counts of two traced runs with different seeds agree.
3. Every check counts a deliberately corrupted output as a failed operation.
4. Without a flowop package next to it, the benchmark exits non-zero and
   prints no result.
Exits 1 on the first thing that does not hold.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def bench_run(workload: str, seed: int, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for wl in (w["name"] for w in BENCH["workloads"]):
            proc = bench_run(wl, 1, trace)
            if proc.returncode != 0:
                fail(f"{wl} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{wl} trace {trace}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{wl} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                     f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not result["correct"] or result["failed"]:
                fail(f"{wl} trace {trace}: {json.loads(lines[-2])['details']['errors']}")
            print(f"selftest: {wl} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, all correct")


def check_counts_repeat() -> None:
    counts = []
    for seed in (1, 2):
        proc = bench_run("train", seed, 1)
        counts.append(json.loads(proc.stdout.splitlines()[-2])["details"]["round_counts"])
    if not counts[0] or counts[0] != counts[1]:
        fail(f"per-round counts differ between seeds: {counts}")
    print(f"selftest: {len(counts[0])} per-round counts repeat exactly across seeds")


def _corrupt_train(b, kind, rc):
    path = b.work / "train" / "loss.tsv"
    lines = path.read_text().splitlines(keepends=True)
    step, lr, loss = lines[1].rstrip("\n").split("\t")
    lines[1] = f"{step}\t{lr}\t{float(loss) * (1 + 1e-6):.10g}\n"
    path.write_text("".join(lines))
    return rc


def _corrupt_gen(b, kind, rc):
    raw = bytearray(b.gen_path.read_bytes())
    records = b.sizes.gen_records * (b.mixture.d + b.grid.M * b.mixture.d) * 4
    raw[len(raw) - records + 1] ^= 0xFF    # a byte of record 0's x_T
    b.gen_path.write_bytes(bytes(raw))
    return rc


def _corrupt_student(b, kind, rc):
    path = b.work / "sample" / "samples.tsv"
    lines = path.read_text().splitlines(keepends=True)
    vals = lines[1].rstrip("\n").split("\t")
    vals[0] = f"{float(vals[0]) + 1e-3:.8g}"
    lines[1] = "\t".join(vals) + "\n"
    path.write_text("".join(lines))
    return rc


def _corrupt_query(b, kind, out):
    out = out.copy()
    out[0, 0, 0] += 1e-12
    return out


def _corrupt_teacher(b, kind, traj):
    values = traj.values.copy()
    values[-1, -1, -1] = float("nan")
    return dataclasses.replace(traj, values=values)


def _corrupt_defaults(b, kind, out):
    b.fo.cli._DEFAULTS["training"]["total_steps"] = 900
    return out


def _corrupt_exit(b, kind, rc):
    return 1


def check_corruptions() -> None:
    b = run.Bench(run.import_flowop(), run.SIZES["tiny"], 5,
                  run.ROOT / ".perfbench" / "selftest-work")
    cases = [("train", _corrupt_train), ("gen", _corrupt_gen),
             ("student", _corrupt_student), ("query", _corrupt_query),
             ("teacher", _corrupt_teacher)]
    cases += [(kind, _corrupt_defaults) for kind, _ in cases]
    cases += [(kind, _corrupt_exit) for kind in ("train", "gen", "student")]
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            b.setup()
            for kind, _ in cases[:5]:            # the first, good output of each kind
                if b.run_op(kind) is None:
                    fail(f"clean {kind} failed: {b.errors}")
            for kind, corrupt in cases:
                before = b.failed
                if b.run_op(kind, corrupt) is not None or b.failed != before + 1:
                    fail(f"{corrupt.__name__} on {kind} was not counted as a failure")
                if b.run_op(kind) is None:
                    fail(f"{kind} after {corrupt.__name__} still fails: {b.errors[-1]}")
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    before = b.failed
    for calls in (384, 384, 385):
        b.check_round({"mixture.score.calls": calls})
    if b.failed != before + 1:
        fail("a round with different counts was not counted as a failure")
    print(f"selftest: {len(cases) + 1} corrupted outputs, each counted as one failure")


def check_without_package() -> None:
    bare = run.ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("train", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"selftest: without a flowop package it exits {proc.returncode}, printing nothing")


if __name__ == "__main__":
    check_metrics()
    check_counts_repeat()
    check_corruptions()
    check_without_package()
    print("selftest: OK")
