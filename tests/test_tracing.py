"""The benchmark tracer (perfbench/tracing.py) wraps library functions by
name and reads fields of their results. A rename or a changed result shape
breaks it; these small traced solves make that fail here."""

import sys
from pathlib import Path

import numpy as np

import nltgcr.solver
from nltgcr import BratuProblem, LineSearchOptions, SolverOptions, newton_krylov_solve, nltgcr_solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _traced_summary(root, solve, prob, x0):
    """Run solve(prob, x0) under the tracer as perfbench/run.py does and
    return the per-layer summary with the untraced solve's x and trace."""
    x_plain, trace_plain = solve(prob, x0)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        span = tracer.begin(root)
        try:
            x, trace = solve(tracing.traced_problem(tracer, prob), x0)
        finally:
            tracer.end(span)
    # Tracing observes the solve without changing it.
    assert x.tobytes() == x_plain.tobytes()
    assert [r.fevals for r in trace.records] == [r.fevals for r in trace_plain.records]
    return tracing.summarize(tracer, trace), trace


def test_traced_adaptive_nltgcr_with_line_search():
    search = nltgcr.solver.backtrack_linearized
    opts = SolverOptions(window_m=10, tol_rel=1e-10, max_iters=500, restart_every=None,
                         variant="adaptive", linesearch=LineSearchOptions())
    prob = BratuProblem(grid_n=20, lam=0.5).problem()
    out, trace = _traced_summary("solver", lambda p, x0: nltgcr_solve(p, x0, opts),
                                 prob, np.ones(prob.dim))
    assert nltgcr.solver.backtrack_linearized is search
    assert out["linesearch.backtrack.calls"] >= 1
    assert out["linesearch.backtrack_linearized.calls"] >= 1
    assert out["linesearch.backtrack.trials_per_call"] >= 1.0
    assert 0.0 <= out["linesearch.backtrack.first_trial_frac"] <= 1.0
    assert out["fevals.ls_trial"] >= out["linesearch.backtrack.calls"]
    assert 0.0 < out["solver.lin_iter_frac"] < 1.0
    assert sum(out[f"fevals.{p}"] for p in tracing.PURPOSES) == trace.final().fevals


def test_traced_newton_krylov():
    opts = SolverOptions(tol_rel=1e-8, max_iters=40)
    prob = BratuProblem(grid_n=20, lam=0.5, scaled=True).minimization_problem()
    out, trace = _traced_summary(
        "baselines.newton_krylov",
        lambda p, x0: newton_krylov_solve(p, x0, inner_m=50, eta0=0.9, opts=opts),
        prob, np.zeros(prob.dim))
    iters = len(trace.records) - 1
    assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
    assert out["baselines.newton_krylov.outer_iters"] == iters
    assert out["linear.tgcr_solve.calls"] == out["linesearch.backtrack.calls"] == iters
    assert out["linear.tgcr_solve.inner_iters"] >= iters
    assert out["linesearch.backtrack.trials_per_call"] >= 1.0
    assert out["fevals.jv_probe"] > 0
    # One slope probe per outer step, charged as a slope probe: its f
    # evaluation's direct parent span is EvalCounter.slope, not .jv.
    assert out["fevals.slope_probe"] == iters
    assert sum(out[f"fevals.{p}"] for p in tracing.PURPOSES) == trace.final().fevals
