"""Benchmark of the flowop package: train steps, dataset generation, and
one-call sampling next to the teacher solver.

    python3 perfbench/run.py --workload {train,gen_data,sample} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from `src/` as
it is, without installing it; the benchmark exits with code 2 when `src/`
holds no flowop package.

One client runs operations in a closed loop: each starts after the last
one ends. A workload repeats one fixed round of operations until the
measured seconds are up. Every workload reports every end-to-end metric,
so every round holds one call of each operation kind as a probe, and the
workload's own operations fill the rest of the round. After every
operation the benchmark checks its output against an oracle the package
already has, and checks that the CLI's defaults did not change. Times are
scaled to a reference machine speed (see REF_KERNEL_MS).

With `--trace 0` the last line of standard output is the end-to-end
metrics; with `--trace 1` the first half of the time runs untraced and the
second half traced (see spans.py), and the last line is the per-layer
metrics, the tracing overhead on each end-to-end metric, and the paper's
teacher/student ratios. The line before it, and a file under
`.perfbench/results/`, hold the details: environment, unscaled wall times,
sample counts, failures, and the exact per-round counts of the traced run.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: one thread keeps timings on a
# shared two-core machine steadier than two, and stays below nproc anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import copy
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each workload is one round of operations, repeated. The probes (one call
# of every other kind) let every workload report every end-to-end metric.
ROUNDS = {
    "train": ("train", "train", "gen", "train", "train", "student",
              "train", "query", "train", "teacher"),
    "gen_data": ("gen", "gen", "train", "gen", "gen", "student",
                 "gen", "query", "gen", "teacher"),
    "sample": ("student", "query", "teacher", "train",
               "student", "query", "teacher", "gen"),
}


# The host's speed drifts by up to 30% over minutes, more than any bound the
# benchmark may set. So a fixed numpy kernel that shares no code with flowop
# is timed before every set-up and every operation, and each run's times are
# scaled by REF_KERNEL_MS / (the run's median kernel time): they read as if
# the kernel had taken REF_KERNEL_MS. A change to flowop moves the scaled
# times exactly as it moves wall time; the raw wall times are in the details.
REF_KERNEL_MS = 5.0
_KA = np.random.default_rng(0).standard_normal((1024, 64))
_KW = np.random.default_rng(1).standard_normal((64, 64))
_KS = np.random.default_rng(2).standard_normal((4096, 2))


def reference_kernel() -> float:
    """Seconds taken by the fixed kernel: a tape-sized GEMM, pointwise ops,
    and small reductions like those of the teacher's score calls."""
    t0 = time.perf_counter()
    for _ in range(4):
        x = _KA @ _KW
    for _ in range(4):
        np.maximum(x, 0.01 * x) + x
    for _ in range(40):
        np.sum(_KS * _KS, axis=-1)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Sizes:
    train_records: int = 2048     # dataset made during set-up for `train`
    train_steps: int = 10         # steps per `flowop train` call
    batch: int = 256
    model: dict = field(default_factory=dict)   # overrides of the default model
    gen_records: int = 2000       # records per `flowop gen-data` call
    sample_n: int = 4096          # `flowop sample --n` and teacher rows
    query_rows: int = 256
    query_times: int = 64         # Q >> M fractional query times
    setup_reps: int = 3


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(train_records=64, train_steps=2, batch=16,
                  model={"C": 8, "L": 1, "E": 8}, gen_records=32, sample_n=64,
                  query_rows=8, query_times=16, setup_reps=2),
}


def import_flowop():
    """The package under `src/` of this checkout, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import flowop
        import flowop.cli
    except ImportError:
        return None
    if Path(flowop.__file__).resolve().parent.parent != SRC.resolve():
        return None
    return flowop


class Bench:
    """Inputs, expected outputs and results of one benchmark run."""

    def __init__(self, fo, sizes: Sizes, seed: int, work: Path):
        self.fo = fo
        self.sizes = sizes
        self.seed = seed % 2**31      # numpy seeds must be non-negative
        self.work = work
        self.defaults = copy.deepcopy(fo.cli._DEFAULTS)
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, object] = {}   # first good output of each kind
        self.round_counts: dict | None = None  # exact counts of the first traced round
        self.kernel_s: list[float] = []        # reference kernel times, in order

    # ------------------------------------------------------------ set-up
    def _write_config(self, name: str, dataset: dict, training: dict, out: str) -> str:
        cfg = copy.deepcopy(self.defaults)    # every section stated explicitly
        cfg["model"].update(self.sizes.model)
        cfg["dataset"].update(dataset)
        cfg["training"].update(training)
        cfg["out_dir"] = str(self.work / out)
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return str(path)

    def setup(self) -> None:
        fo, sz, seed = self.fo, self.sizes, self.seed
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_train = self._write_config(
            "train", {"N": sz.train_records, "base_seed": 1_000_003 * seed,
                      "path": str(self.work / "train.bin")},
            {"batch_size": sz.batch, "total_steps": sz.train_steps,
             "warmup_steps": sz.train_steps, "seed": seed}, "train")
        gen_base = 2_000_003 * seed + 1
        self.gen_path = self.work / "gen.bin"
        self.cfg_gen = self._write_config(
            "gen", {"N": sz.gen_records, "base_seed": gen_base,
                    "path": str(self.gen_path)}, {}, "gen")
        self.cfg_sample = self._write_config("sample", {}, {}, "sample")
        self.noise_seed = seed + 1

        if fo.cli.run(["gen-data", "--config", self.cfg_train]) != 0:
            raise RuntimeError("set-up: gen-data of the training set failed")
        cfg = fo.cli.parse_config(self.cfg_train)
        self.cfg = cfg
        self.grid, self.sched, self.mixture = cfg.grid, cfg.sched, cfg.mixture
        self.params = fo.operator.init_params(cfg.model, seed + 2)
        (self.work / "sample").mkdir(exist_ok=True)
        fo.operator.save_checkpoint(str(self.work / "sample" / "model.bin"), self.params)

        # train: the numpy oracle's loss of the initial model on the first batch
        data = fo.trajectories.TrajectoryDataset.load(cfg.dataset["path"])
        tc = cfg.training
        idx = fo.training._batch_indices(data.N, tc.batch_size, tc.seed, 0)
        pred = fo.operator.forward(fo.operator.init_params(cfg.model, tc.seed),
                                   data.x_T.astype(float)[idx], self.grid)
        self.loss0 = fo.training.weighted_loss(pred, data.values.astype(float)[idx],
                                               self.grid, tc.weighting, self.sched)
        # gen-data: record j starts from default_rng(base_seed + j), cast to f32
        d = self.mixture.d
        self.gen_x = np.stack([np.random.default_rng(gen_base + j).standard_normal(d)
                               for j in range(sz.gen_records)]).astype(np.float32)
        # sample: `flowop sample` draws its noise in one chunk when n <= 4096
        self.noise = np.random.default_rng(self.noise_seed).standard_normal((sz.sample_n, d))
        self.samples = fo.operator.forward(self.params, self.noise, self.grid)[:, -1, :]
        self.xq = self.noise[:sz.query_rows]
        self.qtimes = np.linspace(self.grid.times[0], self.grid.times[-1], sz.query_times)

    # ------------------------------------------------------------ operations
    def op_train(self):
        return self.fo.cli.run(["train", "--config", self.cfg_train])

    def op_gen(self):
        return self.fo.cli.run(["gen-data", "--config", self.cfg_gen])

    def op_student(self):
        return self.fo.cli.run(["sample", "--config", self.cfg_sample,
                                "--n", str(self.sizes.sample_n),
                                "--seed", str(self.noise_seed)])

    def op_query(self):
        return self.fo.operator.query_at(self.params, self.xq, self.grid, self.qtimes)

    def op_teacher(self):
        ds = self.cfg.dataset
        return self.fo.trajectories.solve_trajectory(
            self.mixture, self.sched, self.noise, self.grid,
            solver=ds["solver"], substeps=ds["substeps"])

    # ------------------------------------------------------------ checks
    # Each returns None when the output is right, else what is wrong.
    def _same_as_first(self, kind: str, value) -> bool:
        first = self.first.setdefault(kind, value)
        if isinstance(value, str):
            return first == value
        return np.array_equal(first, value)

    def check_train(self, rc):
        if rc != 0:
            return f"flowop train exited {rc}"
        text = (self.work / "train" / "loss.tsv").read_text()
        rows = text.splitlines()[1:]
        if len(rows) != self.sizes.train_steps:
            return f"loss.tsv has {len(rows)} rows"
        loss0 = float(rows[0].split("\t")[2])
        if not abs(loss0 - self.loss0) <= 1e-9 * abs(self.loss0):
            return f"first-step loss {loss0!r} != oracle {self.loss0!r}"
        if not self._same_as_first("train", text):
            return "loss curve differs from the first call's"
        return None

    def check_gen(self, rc):
        if rc != 0:
            return f"flowop gen-data exited {rc}"
        ds = self.fo.trajectories.TrajectoryDataset.load(self.gen_path)
        n, m, d = self.sizes.gen_records, self.grid.M, self.mixture.d
        if ds.x_T.shape != (n, d) or ds.values.shape != (n, m, d):
            return f"dataset shapes {ds.x_T.shape}, {ds.values.shape}"
        if not np.all(np.isfinite(ds.values)):
            return "non-finite trajectory values"
        if not np.array_equal(ds.x_T, self.gen_x):
            return "x_T rows differ from default_rng(base_seed + j)"
        if not np.array_equal(ds.grid.times, self.grid.times):
            return "dataset grid differs from the config's"
        if not self._same_as_first("gen", hashlib.sha256(self.gen_path.read_bytes()).hexdigest()):
            return "dataset file differs from the first call's"
        return None

    def check_student(self, rc):
        if rc != 0:
            return f"flowop sample exited {rc}"
        got = np.loadtxt(self.work / "sample" / "samples.tsv", skiprows=1, ndmin=2)
        if got.shape != self.samples.shape:
            return f"samples.tsv shape {got.shape}"
        # printed with 8 significant digits
        if not np.all(np.abs(got - self.samples) <= 1e-7 * np.abs(self.samples)):
            return "samples.tsv differs from forward() on the regenerated noise"
        return None

    def check_query(self, out):
        op = self.fo.operator
        want = (self.sizes.query_rows, self.sizes.query_times, self.mixture.d)
        if out.shape != want:
            return f"query_at shape {out.shape}"
        if not np.all(np.isfinite(out)):
            return "non-finite dense query output"
        if not self._same_as_first("query", out):
            return "dense query output differs from the first call's"
        x = self.xq[:64]
        if not np.array_equal(op.query_at(self.params, x, self.grid, self.grid.times),
                              op.forward(self.params, x, self.grid)):
            return "query_at at the grid times is not forward() bit for bit"
        return None

    def check_teacher(self, traj):
        if traj.values.shape != (self.sizes.sample_n, self.grid.M, self.mixture.d):
            return f"teacher shape {traj.values.shape}"
        if not np.all(np.isfinite(traj.values)):
            return "non-finite teacher trajectory"
        if not self._same_as_first("teacher", traj.values):
            return "teacher trajectory differs from the first call's"
        return None

    # ------------------------------------------------------------ loop
    def run_op(self, kind: str, corrupt=None):
        """Run, time and check one operation; the wall time, or None if it failed.

        `corrupt(bench, kind, out)` may replace the output before the check;
        the self-test uses it to prove that the checks catch bad outputs.
        """
        do, check = getattr(self, "op_" + kind), getattr(self, "check_" + kind)
        tracer = self.tracer
        err = None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op("op." + kind)
        try:
            out = do()
        except Exception as e:  # an operation that raises counts as failed
            err = f"{type(e).__name__}: {e}"
        finally:
            if tracer is not None:
                tracer.close()
        wall = time.perf_counter() - t0
        if err is None:
            if corrupt is not None:
                out = corrupt(self, kind, out)
            err = check(out)
        if self.fo.cli._DEFAULTS != self.defaults:
            err = (err + "; " if err else "") + "cli._DEFAULTS changed"
            self.fo.cli._DEFAULTS.clear()
            self.fo.cli._DEFAULTS.update(copy.deepcopy(self.defaults))
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {err}")
            return None
        return wall

    def check_round(self, counts: dict) -> None:
        """Exact counts of a traced round must repeat those of the first one."""
        if self.round_counts is None:
            self.round_counts = counts
        elif counts != self.round_counts:
            self.attempted += 1
            self.failed += 1
            diff = sorted(k for k in counts.keys() | self.round_counts.keys()
                          if counts.get(k) != self.round_counts.get(k))
            self.errors.append(f"round counts differ from the first traced round: {diff}")

    def run_rounds(self, kinds, until: float, walls: dict, after_round=None) -> int:
        rounds = 0
        while True:
            for kind in kinds:
                self.kernel_s.append(reference_kernel())
                wall = self.run_op(kind)
                if wall is not None:
                    walls.setdefault(kind, []).append(wall)
            rounds += 1
            if after_round is not None:
                after_round()
            if time.perf_counter() >= until:
                return rounds


# ---------------------------------------------------------------- metrics
def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def speed_scale(kernel_s: list[float]) -> float:
    """Factor that brings times to the speed at which the kernel takes REF_KERNEL_MS."""
    return REF_KERNEL_MS / (1e3 * statistics.median(kernel_s))


def e2e_timings(walls: dict, sizes: Sizes, scale: float) -> dict[str, tuple[float, str]]:
    """End-to-end timing metrics from per-kind wall times (seconds), scaled."""
    out = {}
    per_kind = {
        "train": ("train_step_ms", 1e3 * scale / sizes.train_steps),
        "gen": ("gen_call_ms", 1e3 * scale),
        "student": ("student_ms", 1e3 * scale),
        "query": ("query_ms", 1e3 * scale),
        "teacher": ("teacher_ms", 1e3 * scale),
    }
    for kind, (name, factor) in per_kind.items():
        xs = [factor * w for w in walls.get(kind, [])]
        if xs:
            out[name + "_p50"] = (statistics.median(xs), "ms")
            out[name + "_p90"] = (_p90(xs), "ms")
    if walls.get("gen"):
        out["gen_traj_per_s"] = (sizes.gen_records / (scale * statistics.median(walls["gen"])),
                                 "1/s")
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout's git repository, or None (an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(bench: Bench, workload: str, seconds: int, trace: bool):
    """Set up, warm up and measure; returns (metrics, details, tracer or None)."""
    setup_s = []
    for _ in range(bench.sizes.setup_reps):
        bench.kernel_s.append(reference_kernel())
        t0 = time.perf_counter()
        bench.setup()
        setup_s.append(time.perf_counter() - t0)
    kinds = ROUNDS[workload]
    for kind in dict.fromkeys(kinds):      # warm-up: one call of each kind, checked
        bench.run_op(kind)
    details = {"setup_s": setup_s}
    walls: dict = {}
    start = time.perf_counter()
    if not trace:
        details["rounds"] = bench.run_rounds(kinds, start + seconds, walls)
        scale = speed_scale(bench.kernel_s)
        metrics = e2e_timings(walls, bench.sizes, scale)
        metrics["setup_s"] = (scale * statistics.median(setup_s), "s")
        details.update(kernel_ms=1e3 * statistics.median(bench.kernel_s), scale=scale,
                       raw={k: v for k, (v, _) in e2e_timings(walls, bench.sizes, 1.0).items()})
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        details["samples"] = {k: len(v) for k, v in walls.items()}
        return metrics, details, None

    details["untraced_rounds"] = bench.run_rounds(kinds, start + seconds / 2, walls)
    split = len(bench.kernel_s)
    tracer = spans.Tracer()
    traced_walls: dict = {}
    snapshot = {}

    def after_round():
        nonlocal snapshot
        now = dict(tracer.counts)
        bench.check_round({k: v - snapshot.get(k, 0) for k, v in now.items()})
        snapshot = now

    undo = spans.install(tracer)
    bench.tracer = tracer
    try:
        rounds = bench.run_rounds(kinds, start + seconds, traced_walls, after_round)
    finally:
        bench.tracer = None
        spans.uninstall(undo)
    scale_u = speed_scale(bench.kernel_s[:split])
    scale_t = speed_scale(bench.kernel_s[split:])
    metrics = spans.layer_metrics(tracer, rounds, scale_t)
    plain = e2e_timings(walls, bench.sizes, scale_u)
    traced = e2e_timings(traced_walls, bench.sizes, scale_t)
    for name, (value, unit) in plain.items():
        if name in traced:
            ratio = traced[name][0] / value
            metrics["trace_overhead." + name] = (1 / ratio - 1 if unit == "1/s" else ratio - 1,
                                                 "frac")
    accounted = spans.accounted(tracer)
    metrics["trace.accounted_frac"] = (accounted["all"], "frac")
    claim = spans.paper_claim(tracer)
    if claim:
        metrics["claim.teacher_student_wall_ratio"] = (claim["wall_ratio"], "ratio")
        metrics["claim.nfe_ratio"] = (claim["nfe_ratio"], "ratio")
        metrics["claim.teacher_score_calls"] = (claim["score_calls_per_solve"], "count")
    details.update(traced_rounds=rounds, accounted_frac=accounted,
                   scale_untraced=scale_u, scale_traced=scale_t,
                   round_counts=bench.round_counts,
                   samples_untraced={k: len(v) for k, v in walls.items()},
                   samples_traced={k: len(v) for k, v in traced_walls.items()})
    return metrics, details, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input sizes; 'tiny' is for the self-test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    fo = import_flowop()
    if fo is None:
        print(f"perfbench: no flowop package under {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    bench = Bench(fo, SIZES[args.size], args.seed, work)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            metrics, details, tracer = measure(bench, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        spans_path = out_dir / "results" / f"{tag}.spans.tsv"
        spans.write_spans(tracer, str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size, env=environment(),
                   error_rate=bench.failed / max(bench.attempted, 1),
                   errors=bench.errors[:20])
    (out_dir / "results" / f"{tag}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
