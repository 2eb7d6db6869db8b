"""The contract that core.drive gives all seven solvers, checked on random
affine problems with random tolerances, iteration caps and small windows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nltgcr import (
    LineSearchOptions,
    NonlinearProblem,
    SolverOptions,
    aa_solve,
    broyden2_solve,
    lbfgs_solve,
    ncg_fr_solve,
    nesterov_solve,
    newton_krylov_solve,
    nltgcr_solve,
)
from nltgcr.core import SOLVE_FAILURES


def _affine(n, seed, symmetric):
    """f(x) = A x - b with A near the identity; a gradient when symmetric."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = np.eye(n) + 0.5 * (M + M.T if symmetric else M)
    b = rng.standard_normal(n)
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return A @ x - b

    def phi(x):
        calls["n"] += 1
        return 0.5 * float(x @ A @ x) - float(b @ x)

    prob = NonlinearProblem(dim=n, eval_f=f, eval_phi=phi if symmetric else None)
    return prob, rng.standard_normal(n), calls


@st.composite
def _solves(draw):
    m = draw(st.integers(1, 3))
    name = draw(st.sampled_from(
        ["aa", "broyden2", "newton-krylov", "nesterov", "ncg", "lbfgs", "nltgcr"]))
    opts = SolverOptions(
        window_m=m,
        tol_rel=10.0 ** draw(st.floats(-12, -1)),
        max_iters=draw(st.integers(1, 30)),
        restart_every=draw(st.sampled_from([None, 1, 2, 5])),
        variant=draw(st.sampled_from(["nonlinear", "linearized", "adaptive"])),
        linesearch=draw(st.sampled_from([None, LineSearchOptions()])),
        truncated_update=draw(st.booleans()),
    )
    runner = {
        "aa": lambda p, x0: aa_solve(p, x0, m=m - 1, beta=0.5, opts=opts),
        "broyden2": lambda p, x0: broyden2_solve(p, x0, opts=opts, beta=0.5),
        "newton-krylov": lambda p, x0: newton_krylov_solve(p, x0, inner_m=m, opts=opts),
        "nesterov": lambda p, x0: nesterov_solve(p, x0, opts),
        "ncg": lambda p, x0: ncg_fr_solve(p, x0, opts),
        "lbfgs": lambda p, x0: lbfgs_solve(p, x0, m=m, opts=opts),
        "nltgcr": lambda p, x0: nltgcr_solve(p, x0, opts),
    }[name]
    return name, opts, runner


@settings(max_examples=200, deadline=None)
@given(solve=_solves(), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       symmetric=st.booleans())
def test_every_solver_keeps_the_driver_contract(solve, n, seed, symmetric):
    name, opts, runner = solve
    prob, x0, calls = _affine(n, seed, symmetric)
    try:
        x, trace = runner(prob, x0)
        failed = None
    except SOLVE_FAILURES as err:
        failed, trace = err, err.trace
        assert trace is not None, name
        assert np.asarray(err.x).shape == (n,) and np.all(np.isfinite(err.x)), name
    records = trace.records
    assert trace.frozen, name
    assert [r.iter for r in records] == list(range(len(records))), name
    assert len(records) - 1 <= opts.max_iters, name
    fevals = trace.fevals()
    assert np.all(np.diff(fevals) >= 0), name
    target = opts.tol_rel * records[0].resnorm
    assert all(r.resnorm > target for r in records[:-1]), name
    if failed is None:
        assert fevals[-1] == calls["n"], name
        assert x.shape == (n,), name
        # The solve stops only at the tolerance or at max_iters.
        assert records[-1].resnorm <= target or len(records) - 1 == opts.max_iters, name
    else:
        assert fevals[-1] <= calls["n"], name
