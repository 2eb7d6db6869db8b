"""Spans around the library's public entry points, recorded from outside.

`instrument` swaps each traced function or method for a wrapper while a
traced solve runs and puts the original back afterwards, so nothing under
src/ changes and untraced solves run the library untouched. Each span keeps
its name, start, end and the index of the span that was open when it began.
Spans stay in memory; the runner writes them out when the run ends.

Layers are the package modules and a span's name starts with its module.
The root span is the public solve call itself ("solver" for nltgcr_solve,
"baselines.newton_krylov" for newton_krylov_solve).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter, defaultdict
from typing import Dict, List

import nltgcr.baselines
import nltgcr.kernels
import nltgcr.linear
import nltgcr.solver
from nltgcr import ConvergenceTrace, EvalCounter, WindowPair

F8 = 8  # bytes per float64

# Who called f, read from the parent span of each problems.eval_f span.
PURPOSE_OF_PARENT = {
    "jacobian.jv": "jv_probe",
    "jacobian.slope": "slope_probe",
    "linesearch.backtrack": "ls_trial",
    "solver": "residual",
    "baselines.newton_krylov": "residual",
}
PURPOSES = ("residual", "jv_probe", "ls_trial", "slope_probe")


class Tracer:
    """In-memory span list plus counters that wrappers add to."""

    def __init__(self):
        self.spans: List[list] = []  # [name, parent, start, end]
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._open.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter()
        self._open.pop()

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._open = []


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if on_result is not None:
            on_result(tracer.counters, args, out)
        return out

    return traced


# Computed traffic, not measured: no hardware counters are readable here.
# Kernels count every input and output array once plus the pair arrays the
# numpy form materialises (diff is atoms x atoms x 3, r2 atoms x atoms).
def _bratu_residual_bytes(c, args, out):
    c["kernels.bratu_residual.bytes_computed"] += 2 * args[0].size * F8


def _lj_pair_bytes(kernel: str, with_output: bool):
    def note(c, args, out):
        n = args[0].shape[0]
        io_arrays = (2 if with_output else 1) * n * 3
        c[f"kernels.{kernel}.bytes_computed"] += (io_arrays + 4 * n * n) * F8

    return note


def _stack_bytes(c, args, out):
    # One pass writing the n x k stacked matrix.
    c["core.window.bytes_computed"] += out.size * F8


def _orthogonalize_bytes(c, args, out):
    # Per window column the Gram-Schmidt sweep reads v_i twice and p_i once,
    # and the re-orthogonalization test reads v_i once more: four column
    # passes of n * k * 8 B. A second sweep, when taken, is not visible from
    # outside, so this is a lower bound.
    p, _, _, _, lo, hi = args[:6]
    c["linear.orthogonalize_pair.bytes_computed"] += 4 * p.size * (hi - lo) * F8


def _backtrack_trials(c, args, out):
    c["linesearch.backtrack.trials"] += out.steps
    c["linesearch.backtrack.first_trial"] += int(out.steps == 1 and out.satisfied)


def _tgcr_iters(c, args, out):
    c["linear.tgcr_solve.inner_iters"] += out[1].iterations


# (owner, attribute, span name, result hook)
TARGETS = (
    (nltgcr.kernels, "bratu_residual", "kernels.bratu_residual", _bratu_residual_bytes),
    (nltgcr.kernels, "lj_gradient", "kernels.lj_gradient", _lj_pair_bytes("lj_gradient", True)),
    (
        nltgcr.kernels,
        "lj_min_pair_distance",
        "kernels.lj_min_pair_distance",
        _lj_pair_bytes("lj_min_pair_distance", False),
    ),
    (EvalCounter, "jv", "jacobian.jv", None),
    (EvalCounter, "slope", "jacobian.slope", None),
    (WindowPair, "p_matrix", "core.window.p_matrix", _stack_bytes),
    (WindowPair, "v_matrix", "core.window.v_matrix", _stack_bytes),
    (WindowPair, "push", "core.window.push", None),
    (WindowPair, "clear", "core.window.clear", None),
    (ConvergenceTrace, "append", "core.trace.append", None),
    (nltgcr.solver, "orthogonalize_pair", "linear.orthogonalize_pair", _orthogonalize_bytes),
    (nltgcr.linear, "orthogonalize_pair", "linear.orthogonalize_pair", _orthogonalize_bytes),
    (nltgcr.baselines, "tgcr_solve", "linear.tgcr_solve", _tgcr_iters),
    (nltgcr.solver, "backtrack", "linesearch.backtrack", _backtrack_trials),
    (nltgcr.solver, "backtrack_linearized", "linesearch.backtrack_linearized", None),
    (nltgcr.baselines, "backtrack", "linesearch.backtrack", _backtrack_trials),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every TARGETS entry for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, hook), (_, _, original) in zip(TARGETS, saved):
            setattr(owner, attr, _wrap(tracer, name, original, hook))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def traced_problem(tracer: Tracer, prob):
    """The problem handed to the solver, with its eval_f callable wrapped."""
    return dataclasses.replace(prob, eval_f=_wrap(tracer, "problems.eval_f", prob.eval_f))


class AccountingError(AssertionError):
    """The traced solve's spans disagree with the solver's own accounting."""


def summarize(tracer: Tracer, trace: ConvergenceTrace) -> Dict[str, float]:
    """Per-layer figures of one traced solve; span 0 is the solve call.

    Checks from outside that the wrapped eval_f calls equal the trace's
    final feval count, that every one of them has a known purpose, and that
    the self times of all spans add up to the root span's duration.
    """
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child_sum = [0.0] * len(spans)
    for k, (name, parent, start, end) in enumerate(spans[1:], 1):
        if parent < 0 or not (spans[parent][2] <= start and end <= spans[parent][3]):
            raise AccountingError(f"span {name} is not nested inside its parent")
        child_sum[parent] += dur[k]

    calls: Counter = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    purposes: Counter = Counter()
    for k, (name, parent, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[k]
        own = dur[k] - child_sum[k]
        self_s[name] += own
        module_self[name.split(".")[0]] += own
        if name == "problems.eval_f":
            purposes[PURPOSE_OF_PARENT.get(spans[parent][0], "other")] += 1

    root_name = spans[0][0]
    solve_s = dur[0]
    fevals = trace.final().fevals
    if calls["problems.eval_f"] != fevals:
        raise AccountingError(
            f"{calls['problems.eval_f']} wrapped eval_f calls but the trace charges {fevals}"
        )
    if sum(purposes[p] for p in PURPOSES) != fevals:
        raise AccountingError(f"fevals with no known purpose: {dict(purposes)}")
    summed = sum(module_self.values())
    if abs(summed - solve_s) > 1e-9 * len(spans) + 1e-12 * solve_s:
        raise AccountingError(f"self times sum to {summed!r}, solve took {solve_s!r}")

    records = trace.records
    iters = len(records) - 1
    modes = [r.mode for r in records[1:]]
    c = tracer.counters
    bt_calls = calls["linesearch.backtrack"]
    root_self = self_s[root_name]

    def stat(name):
        return {f"{name}.calls": calls[name], f"{name}.s": total[name]}

    out: Dict[str, float] = {"solve.s": solve_s}
    for name in (
        "problems.eval_f",
        "kernels.bratu_residual",
        "kernels.lj_gradient",
        "kernels.lj_min_pair_distance",
        "jacobian.jv",
        "jacobian.slope",
        "linear.orthogonalize_pair",
        "linear.tgcr_solve",
        "linesearch.backtrack",
        "linesearch.backtrack_linearized",
    ):
        out.update(stat(name))
    for kernel in ("bratu_residual", "lj_gradient", "lj_min_pair_distance"):
        key = f"kernels.{kernel}.bytes_computed"
        out[key] = c[key]
    out.update(
        {
            "jacobian.jv.self_s": self_s["jacobian.jv"],
            "core.window.stack_s": total["core.window.p_matrix"] + total["core.window.v_matrix"],
            "core.window.push_s": total["core.window.push"],
            "core.window.clears": calls["core.window.clear"],
            "core.window.bytes_computed": c["core.window.bytes_computed"],
            "core.trace.append_s": total["core.trace.append"],
            "linear.orthogonalize_pair.bytes_computed": c["linear.orthogonalize_pair.bytes_computed"],
            "linear.tgcr_solve.self_s": self_s["linear.tgcr_solve"],
            "linear.tgcr_solve.inner_iters": c["linear.tgcr_solve.inner_iters"],
            "linesearch.backtrack.trials_per_call": (
                c["linesearch.backtrack.trials"] / bt_calls if bt_calls else 0.0
            ),
            "linesearch.backtrack.first_trial_frac": (
                c["linesearch.backtrack.first_trial"] / bt_calls if bt_calls else 0.0
            ),
            # The public solve call's own time: nltgcr_solve's, or on
            # newton-krylov newton_krylov_solve's, so every workload has it.
            "solver.self_s": root_self,
            "solver.self_us_per_iter": 1e6 * root_self / max(iters, 1),
            "solver.lin_iter_frac": modes.count("LIN") / max(iters, 1),
            "solver.mode_switches": sum(a != b for a, b in zip(modes, modes[1:])),
            "baselines.newton_krylov.self_s": self_s["baselines.newton_krylov"],
            "baselines.newton_krylov.outer_iters": iters if root_name == "baselines.newton_krylov" else 0,
        }
    )
    for p in PURPOSES:
        out[f"fevals.{p}"] = purposes[p]
    for module in ("problems", "kernels", "jacobian", "core", "linear", "linesearch"):
        out[f"{module}.self_s"] = module_self[module]
    return out
