"""The collapse test of a direction does not depend on the scale of f.

Multiplying f by 2^k is exact in floating point, and so is every quantity
the solvers form from it: residuals and Jacobian-vector products scale by a
power of two, the Frechet step by its inverse, and every test they make is
relative. So a solve of 2^k f(x) = 0 must take the bytes of x, and the
counts, of the solve of f(x) = 0.

The property runs in a child interpreter with BLAS on one thread (run this
file as a script to check it alone), so that no product is split between
threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltgcr import (
    BratuProblem,
    BreakdownError,
    LineSearchOptions,
    LogRegProblem,
    NonlinearProblem,
    SolverOptions,
    aa_solve,
    make_linear_problem,
    newton_krylov_solve,
    nltgcr_solve,
)

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _logreg(samples, features, seed):
    """Logistic regression with columns spread over two decades of scale:
    the instance on which the absolute collapse test used to break."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, features)) / np.sqrt(features)
    X *= np.logspace(0, -2, features)
    theta = 3.0 * rng.standard_normal(features)
    y = np.where(rng.uniform(size=samples) < 1.0 / (1.0 + np.exp(-(X @ theta))), 1.0, -1.0)
    return LogRegProblem(X, y, lambda_reg=1e-5).grad, features


def _affine(seed):
    op, b = make_linear_problem("nonsymmetric", 30, seed=seed)
    return (lambda x: op.mat @ x - b), 30


def _nltgcr(variant, m):
    opts = SolverOptions(window_m=m, variant=variant, tol_rel=1e-8, max_iters=150,
                         restart_every=None, linesearch=LineSearchOptions())
    return lambda prob, x0: nltgcr_solve(prob, x0, opts)


SOLVERS = {
    "nonlinear": _nltgcr("nonlinear", 1),
    "adaptive": _nltgcr("adaptive", 10),
    "linearized": _nltgcr("linearized", 5),
    "newton-krylov": lambda prob, x0: newton_krylov_solve(
        prob, x0, inner_m=50, eta0=0.9, opts=SolverOptions(tol_rel=1e-8, max_iters=50)),
}


def _outcome(solve, f, dim, scale):
    """(x, residual norms / scale, fevals) of a solve of scale * f, or of
    the BreakdownError it raised."""
    prob = NonlinearProblem(dim=dim, eval_f=lambda x: scale * f(x))
    try:
        x, trace = solve(prob, np.zeros(dim))
    except BreakdownError as err:
        x, trace = err.x, err.trace
    return x.tobytes(), (trace.resnorms() / scale).tobytes(), trace.fevals().tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    k=st.integers(-40, 40),
    solver=st.sampled_from(sorted(SOLVERS)),
    instance=st.sampled_from(["affine", "logreg"]),
    seed=st.integers(0, 3),
)
def check_power_of_two_scaling(k, solver, instance, seed):
    f, dim = _affine(seed) if instance == "affine" else _logreg(120, 40, seed)
    unscaled = _outcome(SOLVERS[solver], f, dim, 1.0)
    assert _outcome(SOLVERS[solver], f, dim, 2.0**k) == unscaled


def test_power_of_two_scaling_changes_no_byte():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                           timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr


@pytest.mark.parametrize("solver", ["nonlinear", "adaptive", "newton-krylov"])
def test_logreg_converges_where_the_absolute_test_collapsed(solver):
    # ||f(x0)|| = 6.9e-3: with a collapse test of absolute 1e-14, the
    # nlTGCR runs broke one step short of the tolerance and Newton-Krylov
    # in its eighth inner solve.
    f, dim = _logreg(2000, 500, 0)
    prob = NonlinearProblem(dim=dim, eval_f=f)
    _, trace = SOLVERS[solver](prob, np.zeros(dim))
    assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm


def _aa_counts(f, dim, beta, scale):
    """(iterations, fevals) of Anderson acceleration on scale * f with the
    mixing parameter beta / scale, which leaves the map x + beta f(x)."""
    prob = NonlinearProblem(dim=dim, eval_f=lambda x: scale * f(x))
    _, trace = aa_solve(prob, np.zeros(dim), m=10, beta=beta / scale,
                        opts=SolverOptions(tol_rel=1e-6, max_iters=1000))
    return trace.final().iter, trace.final().fevals


@pytest.mark.parametrize("instance", ["affine-0", "affine-1", "affine-2", "bratu"])
def test_aa_counts_do_not_depend_on_the_scale_of_f(instance):
    # AA drops a pair by add_direction's relative collapse test, so no
    # decision depends on the size of f; under a scale that is not a power
    # of two only the rounding of the steps changes.
    if instance == "bratu":
        bp = BratuProblem(grid_n=30, lam=0.5, scaled=True)
        f, dim, beta = bp.minimization_problem().eval_f, bp.dim, 0.1
    else:
        (f, dim), beta = _affine(int(instance[-1])), -0.1
    counts = _aa_counts(f, dim, beta, 1.0)
    assert counts[0] < 1000
    for scale in (1e-6, 1e6):
        assert _aa_counts(f, dim, beta, scale) == counts


if __name__ == "__main__":
    check_power_of_two_scaling()
