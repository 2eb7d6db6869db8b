import ast
import inspect
import math

import numpy as np
import pytest

import oracles
from nltgcr import (
    BratuProblem,
    LinearOperator,
    LinearOptions,
    cr_solve,
    gcr_solve,
    make_linear_problem,
    tgcr_solve,
)
from oracles import krylov_min_resnorm, newton_cr_reference, replay_residuals, rerun_iterates

KINDS = ["spd", "nonsymmetric", "indefinite"]


def test_oracles_import_nothing_from_the_package():
    for node in ast.walk(ast.parse(inspect.getsource(oracles))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert all(name.split(".")[0] != "nltgcr" for name in names), names


@pytest.mark.parametrize("seed", range(10))
def test_newton_cr_reference_on_affine_spd_is_one_minimal_residual_solve(seed):
    # Same comparison regime as acceptance criterion 1: relative agreement
    # is only representable above ~1e-6 of the initial residual.
    n = 60
    op, b = make_linear_problem("spd", n, seed=seed)
    ref = newton_cr_reference(lambda x: op.mat @ x - b, lambda x, p: op.mat @ p, np.zeros(n), 1e-10)
    assert len(ref.inner_iters) == 1
    history = ref.inner_resnorms[0]
    assert np.linalg.norm(op.mat @ ref.x - b) <= 1e-10 * np.linalg.norm(b)
    compared = 0
    for k, mine in enumerate(history):
        truth = krylov_min_resnorm(op.mat, b, np.zeros(n), k)
        if truth > 1e-6 * history[0]:
            assert abs(mine - truth) <= 1e-8 * truth, (k, mine, truth)
            compared += 1
    assert compared > 5


def test_newton_cr_reference_first_solve_matches_plain_cr_on_bratu():
    bp = BratuProblem(grid_n=100, lam=0.5)
    x0 = np.ones(bp.dim)
    ref = newton_cr_reference(bp.f, bp.jv, x0, 1e-10)
    J = LinearOperator(dim=bp.dim, apply=lambda p: bp.jv(x0, p), is_symmetric=True)
    _, hist = cr_solve(J, -bp.f(x0), np.zeros(bp.dim), LinearOptions(tol_rel=1e-10, max_iters=1000))
    assert hist.converged
    # 209 steps with the numpy backend
    assert ref.inner_iters[0] == hist.iterations
    mine = np.array(ref.inner_resnorms[0])
    cr = hist.resnorms()
    assert float(np.max(np.abs(mine - cr) / cr)) <= 1e-10
    assert np.linalg.norm(bp.f(ref.x)) <= 1e-10 * np.linalg.norm(bp.f(x0))


def _starts(kind):
    """The fixture of each seed 0-2 at n = 30, from x0 = 0 and a random x0."""
    for seed in range(3):
        op, b = make_linear_problem(kind, 30, seed=seed)
        for x0 in (np.zeros(30), np.random.default_rng(seed).standard_normal(30)):
            yield op, b, x0


LINEAR_SOLVES = {
    "gcr": lambda op, b, x0, opts: gcr_solve(op, b, x0, opts),
    "tgcr": lambda op, b, x0, opts: tgcr_solve(op, b, x0, 3, opts),
    "cr": lambda op, b, x0, opts: cr_solve(op, b, x0, opts),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solve", [gcr_solve, lambda *a: tgcr_solve(*a, m=40)],
                         ids=["gcr", "tgcr-untruncated"])
def test_replayed_residuals_have_the_recorded_norms_to_the_bit(solve, kind):
    # The loop measures each norm as math.sqrt(r @ r), np.linalg.norm for
    # r_0, which is the same float.
    for op, b, x0 in _starts(kind):
        _, h = solve(op, b, x0)
        assert not h.truncated and h.iterations > 5
        R = replay_residuals(h, op, b, x0)
        assert [math.sqrt(r @ r) for r in R] == h.norms


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name in LINEAR_SOLVES for kind in KINDS
     if not (name == "cr" and kind == "nonsymmetric")],
)
def test_rerun_iterates_have_the_recorded_residual_norms(name, kind):
    for op, b, x0 in _starts(kind):

        def solve(max_iters):
            return LINEAR_SOLVES[name](op, b, x0, LinearOptions(tol_rel=1e-10, max_iters=max_iters))

        x, h = solve(200)
        assert h.converged
        xs = rerun_iterates(solve, x0, h.iterations)
        assert xs[0].tobytes() == x0.tobytes() and xs[-1].tobytes() == x.tobytes()
        for x_k, norm in zip(xs, h.norms):
            assert abs(np.linalg.norm(b - op.mat @ x_k) - norm) <= 1e-12 * h.norms[0]
