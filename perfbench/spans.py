"""Per-layer span tracing of the flowop package, done from outside it.

`install` replaces module-level functions of the package (and three
methods) with wrappers that open a span around each call; `uninstall` puts
the originals back. Nothing inside the package changes. A wrapper records
only while an operation's root span is open, so the benchmark's own checks,
which call the same functions, are never traced.

Span names are `<layer>.<function>`, with the layers named after the
modules: cli, trajectories, mixture, schedule, nnops, operator, training.
The backward pass of an nnops op is timed by wrapping the `_backward`
closure of the node the op returns (span `nnops.<op>.bwd`), and the rest
of `Tensor.backward` is the tape's self time.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

NNOPS = ("affine_pointwise", "leaky_relu", "add", "dft_at_positions",
         "mode_multiply", "idft_at", "weighted_l1")


class Tracer:
    """In-memory spans plus running totals per span name and counters.

    A span is (id, parent id, root id, name, start, end); spans of one
    operation share the root id, which is the operation's own span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.total_s = defaultdict(float)   # name -> inclusive seconds
        self.self_s = defaultdict(float)    # name -> seconds outside child spans
        self.counts = defaultdict(int)      # exact counters
        self.param_ids: set[int] = set()    # ids of the model's parameter tensors
        self._open: list[list] = []         # [id, name, start, child seconds]
        self._next_id = 0

    @property
    def recording(self) -> bool:
        return bool(self._open)

    def open(self, name: str) -> None:
        self._next_id += 1
        self._open.append([self._next_id, name, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._open.pop()
        dur = end - start
        if self._open:
            parent = self._open[-1]
            parent[3] += dur
            pid, root = parent[0], self._open[0][0]
        else:
            pid, root = 0, sid
        self.spans.append((sid, pid, root, name, start, end))
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.counts[name + ".calls"] += 1

    def begin_op(self, name: str) -> None:
        """Open an operation's root span; parameter ids of the last op are stale."""
        self.param_ids.clear()
        self.open(name)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, name, out, args)
        return out
    return wrapper


# ---------------------------------------------------------------- computed flops
# Real floating-point operations implied by the array shapes, counted as one
# per add or multiply; a complex multiply-add counts 8, complex times real 4.
# They are computed, not measured.

def _size(a) -> int:
    return int(a.value.size)


def _flops(op: str, out, args) -> tuple[int, int]:
    """(forward, backward) computed flops of one nnops call."""
    n = int(out.value.size)
    if op == "affine_pointwise":
        W, _, u = args[:3]
        k, m = W.value.shape[1], W.value.shape[0]
        rows = _size(u) // k
        return 2 * rows * k * m + rows * m, 4 * rows * k * m + rows * m
    if op == "leaky_relu":
        return 2 * n, n
    if op == "add":
        a, b = args[:2]
        return n, n * sum(x.value.shape != out.value.shape for x in (a, b))
    if op == "dft_at_positions":
        u = args[0]
        J, C = out.value.shape[-2:]
        Q = u.value.shape[-2]
        mac = (_size(u) // (Q * C)) * J * Q * C
        return 4 * mac, 8 * mac
    if op == "mode_multiply":
        R, u_hat = args[:2]
        J, K, Cin = R.value.shape
        mac = (_size(u_hat) // Cin) * K * Cin
        return 8 * mac, 16 * mac
    if op == "idft_at":
        u_hat = args[0]
        J, C = u_hat.value.shape[-2:]
        Q = out.value.shape[-2]
        mac = (_size(u_hat) // (J * C)) * J * Q * C
        return 8 * mac, 8 * mac
    if op == "weighted_l1":
        m = _size(args[0])
        return 4 * m, 3 * m
    raise KeyError(op)


def _after_nnop(tracer: Tracer, name: str, out, args) -> None:
    op = name.split(".", 1)[1]
    fwd, bwd = _flops(op, out, args)
    tracer.counts[name + ".flops"] += fwd
    backward = out._backward
    parents = out._parents          # not `out`: no reference cycle through the closure
    bname = name + ".bwd"

    def timed_backward(g):
        if not tracer.recording:
            return backward(g)
        tracer.open(bname)
        try:
            grads = backward(g)
        finally:
            tracer.close()
        tracer.counts[name + ".flops"] += bwd
        for parent, pg in zip(parents, grads):
            if pg is None:
                continue
            tracer.counts["nnops.grad_elems"] += pg.size
            if parent._backward is None and id(parent) not in tracer.param_ids:
                tracer.counts["nnops.grad_elems_wasted"] += pg.size
        return grads

    out._backward = timed_backward


def _after_params(tracer: Tracer, name: str, params, args) -> None:
    tracer.param_ids.update(id(t) for t in params.tensors())


def _after_file(counter: str, path_arg: int):
    def after(tracer: Tracer, name: str, out, args) -> None:
        tracer.counts[counter] += os.path.getsize(args[path_arg])
    return after


# (module, function, after-hook); the span is named <module>.<function>
FUNCTIONS = [
    ("cli", "run", None),
    ("trajectories", "generate_dataset", None),
    ("trajectories", "solve_trajectory", None),
    ("mixture", "score", None),
    ("schedule", "coefficients_at", None),
    ("operator", "forward", None),
    ("operator", "forward_loss", None),
    ("operator", "query_at", None),
    ("operator", "init_params", _after_params),
    ("operator", "save_checkpoint", _after_file("operator.ckpt_bytes", 0)),
    ("operator", "load_checkpoint", None),
    ("training", "train", None),
    ("training", "adam_step", None),
    ("training", "_batch_indices", None),
] + [("nnops", op, _after_nnop) for op in NNOPS]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every reference to the traced functions in the loaded flowop
    modules; returns what `uninstall` needs to undo it."""
    mods = [m for n, m in sys.modules.items() if n == "flowop" or n.startswith("flowop.")]
    undo = []
    for modname, fname, after in FUNCTIONS:
        fn = getattr(sys.modules["flowop." + modname], fname)
        wrapper = _spanned(tracer, f"{modname}.{fname}", fn, after)
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    undo.append((m, attr, val))
                    setattr(m, attr, wrapper)
    nnops = sys.modules["flowop.nnops"]
    traj = sys.modules["flowop.trajectories"]
    Tensor, Dataset = nnops.Tensor, traj.TrajectoryDataset
    methods = [
        (Tensor, "backward", _spanned(tracer, "nnops.backward", Tensor.backward)),
        (Dataset, "save", _spanned(tracer, "trajectories.save", Dataset.save,
                                   _after_file("trajectories.bytes_written", 1))),
        (Dataset, "load", classmethod(_spanned(tracer, "trajectories.load",
                                               Dataset.__dict__["load"].__func__))),
    ]
    for cls, attr, new in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for obj, attr, val in reversed(undo):
        setattr(obj, attr, val)


def layer_metrics(tracer: Tracer, per: float, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each divided by `per` (the number of traced rounds);
    times are multiplied by `scale`."""
    tot, slf, cnt = tracer.total_s, tracer.self_s, tracer.counts
    ms = lambda s: 1e3 * scale * s / per
    out = {}
    for op in NNOPS:
        out[f"nnops.{op}.fwd_ms"] = (ms(tot[f"nnops.{op}"]), "ms/round")
        out[f"nnops.{op}.bwd_ms"] = (ms(tot[f"nnops.{op}.bwd"]), "ms/round")
        out[f"nnops.{op}.calls"] = (cnt[f"nnops.{op}.calls"] / per, "count/round")
        out[f"nnops.{op}.flops"] = (cnt[f"nnops.{op}.flops"] / per, "flop_calc/round")
    out["nnops.tape_self_ms"] = (ms(slf["nnops.backward"]), "ms/round")
    elems = cnt["nnops.grad_elems"]
    out["nnops.grad_useful_frac"] = (
        (elems - cnt["nnops.grad_elems_wasted"]) / elems if elems else 1.0, "frac")
    graph = ("operator.forward", "operator.forward_loss", "operator.query_at",
             "operator.init_params")
    out.update({
        "operator.forward_ms": (ms(tot["operator.forward"]), "ms/round"),
        "operator.query_at_ms": (ms(tot["operator.query_at"]), "ms/round"),
        "operator.self_ms": (ms(sum(slf[n] for n in graph)), "ms/round"),
        "operator.ckpt_save_ms": (ms(tot["operator.save_checkpoint"]), "ms/round"),
        "operator.ckpt_load_ms": (ms(tot["operator.load_checkpoint"]), "ms/round"),
        "operator.ckpt_bytes": (cnt["operator.ckpt_bytes"] / per, "B/round"),
        "training.adam_ms": (ms(tot["training.adam_step"]), "ms/round"),
        "training.batch_ms": (ms(tot["training._batch_indices"]), "ms/round"),
        "training.self_ms": (ms(slf["training.train"]), "ms/round"),
        "trajectories.solve_ms": (ms(tot["trajectories.solve_trajectory"]), "ms/round"),
        "trajectories.seed_ms": (ms(slf["trajectories.generate_dataset"]), "ms/round"),
        "trajectories.save_ms": (ms(tot["trajectories.save"]), "ms/round"),
        "trajectories.load_ms": (ms(tot["trajectories.load"]), "ms/round"),
        "trajectories.bytes_written": (cnt["trajectories.bytes_written"] / per, "B/round"),
        "mixture.score_ms": (ms(tot["mixture.score"]), "ms/round"),
        "mixture.score_calls": (cnt["mixture.score.calls"] / per, "count/round"),
        "schedule.coeff_ms": (ms(tot["schedule.coefficients_at"]), "ms/round"),
        "schedule.coeff_calls": (cnt["schedule.coefficients_at.calls"] / per, "count/round"),
        "cli.self_ms": (ms(slf["cli.run"]), "ms/round"),
    })
    return out


def accounted(tracer: Tracer) -> dict[str, float]:
    """Per operation kind, and over all kinds ("all"), the share of the
    operations' wall time that some layer span covers; the rest is the
    self time of the operation's root span."""
    roots = [n for n in tracer.total_s if n.startswith("op.")]
    out = {n[3:]: 1 - tracer.self_s[n] / tracer.total_s[n] for n in roots}
    total = sum(tracer.total_s[n] for n in roots)
    out["all"] = 1 - sum(tracer.self_s[n] for n in roots) / total if total else 0.0
    return out


def paper_claim(tracer: Tracer) -> dict[str, float]:
    """Teacher against one-call student on the same noise: the median teacher
    solve over the median student forward, and score evaluations per solve
    against operator calls per sample."""
    roots = {sid: name for sid, pid, _, name, _, _ in tracer.spans if pid == 0}
    solve, fwd, scores = [], [], 0
    for _, _, root, name, s, e in tracer.spans:
        if roots[root] == "op.teacher":
            if name == "trajectories.solve_trajectory":
                solve.append(e - s)
            elif name == "mixture.score":
                scores += 1
        elif roots[root] == "op.student" and name == "operator.forward":
            fwd.append(e - s)
    if not solve or not fwd:
        return {}
    samples = sum(name == "op.student" for name in roots.values())
    return {"wall_ratio": statistics.median(solve) / statistics.median(fwd),
            "score_calls_per_solve": scores / len(solve),
            "nfe_ratio": (scores / len(solve)) / (len(fwd) / samples)}


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write("id\tparent\troot\tname\tstart_s\tend_s\n")
        for sid, pid, root, name, s, e in tracer.spans:
            f.write(f"{sid}\t{pid}\t{root}\t{name}\t{s:.9f}\t{e:.9f}\n")
