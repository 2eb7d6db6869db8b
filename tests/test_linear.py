import numpy as np
import pytest

import nltgcr.linear as linear
import nltgcr.solver as solver_module
from nltgcr import (
    BreakdownError,
    JvProbe,
    LinearOperator,
    LinearOptions,
    NonlinearProblem,
    SolverOptions,
    WindowPair,
    cr_solve,
    gcr_solve,
    make_linear_problem,
    nltgcr_solve,
    tgcr_solve,
)
from oracles import krylov_min_resnorm


class TestGcr:
    def test_identity_converges_in_one_step(self):
        op = LinearOperator.from_matrix(np.eye(6))
        b = np.arange(1.0, 7.0)
        x, h = gcr_solve(op, b, np.zeros(6))
        assert h.converged
        assert h.iterations == 1
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_exact_start_takes_zero_iterations(self):
        op, b = make_linear_problem("spd", 10, seed=0)
        x_star = np.linalg.solve(op.mat, b)
        x, h = gcr_solve(op, b, x_star)
        assert h.iterations == 0
        assert h.resnorms()[0] <= 1e-10

    def test_per_step_residual_is_krylov_minimum(self):
        # Independent oracle: Arnoldi basis + dense least squares.
        op, b = make_linear_problem("nonsymmetric", 20, seed=4)
        x, h = gcr_solve(op, b, np.zeros(20), LinearOptions(tol_rel=1e-10))
        r0n = h.resnorms()[0]
        for k in range(h.iterations + 1):
            truth = krylov_min_resnorm(op.mat, b, np.zeros(20), k)
            mine = float(np.linalg.norm(b - op.mat @ h.xs[k]))
            if truth > 1e-12 * r0n:
                assert abs(mine - truth) <= 1e-8 * truth
            else:
                assert mine <= 1e-10 * r0n

    def test_residual_norms_monotone(self):
        op, b = make_linear_problem("nonsymmetric", 30, seed=7)
        _, h = gcr_solve(op, b, np.zeros(30))
        resnorms = h.resnorms()
        assert np.all(np.diff(resnorms) <= 1e-12 * resnorms[0])

    def test_stored_v_columns_orthonormal(self):
        op, b = make_linear_problem("nonsymmetric", 25, seed=2)
        _, h = gcr_solve(op, b, np.zeros(25))
        V = h.V_matrix()
        defect = np.abs(V.T @ V - np.eye(V.shape[1])).max()
        assert defect <= 1e-10

    def test_lucky_breakdown_carries_tiny_residual(self):
        # With A = I the first step is exact; an absurdly small tolerance
        # forces the solver to try to build a direction from the noise-level
        # residual, which collapses.
        op = LinearOperator.from_matrix(np.eye(8))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(8)
        with pytest.raises(BreakdownError) as info:
            gcr_solve(op, b, np.zeros(8), LinearOptions(tol_rel=1e-30, max_iters=10))
        err = info.value
        assert err.resnorm / np.linalg.norm(b) <= 1e-8
        assert err.residual is not None

    def test_dimension_mismatch_rejected(self):
        op = LinearOperator.from_matrix(np.eye(4))
        with pytest.raises(ValueError):
            gcr_solve(op, np.ones(5), np.zeros(4))


class TestTgcr:
    def test_huge_window_matches_full_gcr(self):
        op, b = make_linear_problem("nonsymmetric", 24, seed=11)
        _, h_full = gcr_solve(op, b, np.zeros(24))
        _, h_trunc = tgcr_solve(op, b, np.zeros(24), m=1000)
        a = h_full.resnorms()
        c = h_trunc.resnorms()
        assert len(a) == len(c)
        np.testing.assert_allclose(a, c, atol=1e-12 * a[0])
        assert not h_trunc.truncated

    def test_symmetric_short_recurrence_m1_equals_m5(self):
        # Symmetric operators make the older orthogonalization coefficients
        # vanish, so the truncated histories coincide.
        op, b = make_linear_problem("spd", 100, seed=3)
        _, h1 = tgcr_solve(op, b, np.zeros(100), m=1)
        _, h5 = tgcr_solve(op, b, np.zeros(100), m=5)
        a = h1.resnorms()
        c = h5.resnorms()
        n = min(len(a), len(c))
        np.testing.assert_allclose(a[:n], c[:n], atol=1e-8 * a[0])

    def test_diagonal_system_converges_in_three_steps(self):
        A = np.diag([1.0, 2.0, 3.0])
        op = LinearOperator.from_matrix(A, is_symmetric=True)
        b = np.ones(3)
        x, h = tgcr_solve(op, b, np.zeros(3), m=1, opts=LinearOptions(tol_rel=1e-13))
        assert h.iterations <= 3
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-12)

    def test_truncation_flag_set_when_window_active(self):
        op, b = make_linear_problem("nonsymmetric", 20, seed=9)
        _, h = tgcr_solve(op, b, np.zeros(20), m=2)
        assert h.truncated

    def test_m_must_be_positive(self):
        op, b = make_linear_problem("spd", 5, seed=0)
        with pytest.raises(ValueError):
            tgcr_solve(op, b, np.zeros(5), m=0)


class TestCr:
    def test_matches_tgcr_m1_per_iteration(self):
        op, b = make_linear_problem("spd", 50, seed=8)
        _, h_cr = cr_solve(op, b, np.zeros(50))
        _, h_t = tgcr_solve(op, b, np.zeros(50), m=1)
        a = h_cr.resnorms()
        c = h_t.resnorms()
        n = min(len(a), len(c))
        np.testing.assert_allclose(a[:n], c[:n], atol=1e-10 * a[0])

    def test_identity_one_step(self):
        op = LinearOperator.from_matrix(np.eye(5), is_symmetric=True)
        b = np.ones(5)
        x, h = cr_solve(op, b, np.zeros(5))
        assert h.iterations == 1
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_indefinite_two_by_two_solved_exactly(self):
        A = np.diag([-1.0, 2.0])
        op = LinearOperator.from_matrix(A, is_symmetric=True)
        b = np.array([1.0, 1.0])
        x, h = cr_solve(op, b, np.zeros(2), LinearOptions(tol_rel=1e-14))
        assert h.resnorms()[-1] <= 1e-12
        np.testing.assert_allclose(x, np.array([-1.0, 0.5]), atol=1e-12)

    def test_nonsymmetric_declared_operator_rejected(self):
        op, b = make_linear_problem("nonsymmetric", 6, seed=1)
        with pytest.raises(ValueError, match="symmetric"):
            cr_solve(op, b, np.zeros(6))


class TestLinearOperator:
    def test_linearity_defect_small(self):
        op, _ = make_linear_problem("nonsymmetric", 15, seed=6)
        assert op.linearity_defect() <= 1e-12

    def test_from_matrix_detects_symmetry(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert LinearOperator.from_matrix(A).is_symmetric
        B = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert not LinearOperator.from_matrix(B).is_symmetric


class TestHistoryCsv:
    def test_resnorm_history_export(self, tmp_path):
        op, b = make_linear_problem("spd", 10, seed=0)
        _, h = gcr_solve(op, b, np.zeros(10))
        path = tmp_path / "hist.csv"
        text = h.to_csv(path)
        lines = text.strip().splitlines()
        assert lines[0] == "iter,resnorm"
        assert len(lines) == len(h.R) + 1


def _snapshot(window):
    return len(window), window.oldest_index, window.p_matrix().copy(), window.v_matrix().copy()


def _assert_same_window(a, b):
    assert a[:2] == b[:2]
    np.testing.assert_array_equal(a[2], b[2])
    np.testing.assert_array_equal(a[3], b[3])


class TestAddDirection:
    """The one direction step shared by TGCR, nlTGCR and Newton-Krylov."""

    @staticmethod
    def _spy(monkeypatch, module):
        # Wraps the step where `module` looks it up; records the window
        # before and after every call and what the call returned.
        calls = []
        step = linear.add_direction

        def spy(window, p, v):
            before = _snapshot(window)
            out = step(window, p, v)
            calls.append((before, _snapshot(window), out))
            return out

        monkeypatch.setattr(module, "add_direction", spy)
        return calls

    def test_pushes_orthonormalized_pair_and_evicts_at_capacity(self):
        w = WindowPair(capacity=2)
        e = np.eye(3)
        assert linear.add_direction(w, 2.0 * e[0], 2.0 * e[0]) == (2.0, {})
        assert linear.add_direction(w, e[1], e[1]) is not None
        s, betas = linear.add_direction(w, e[2], e[0] + e[2])
        assert s == pytest.approx(1.0) and betas == {0: 1.0, 1: 0.0}
        # v = A p is kept: the multiple of v_0 removed from v comes off p too.
        np.testing.assert_allclose(w.p_matrix()[:, 1], e[2] - e[0], atol=1e-15)
        np.testing.assert_allclose(w.v_matrix(), e[:, 1:], atol=1e-15)
        assert (len(w), w.oldest_index) == (2, 1)

    def test_collapse_at_capacity_leaves_window_unchanged(self):
        w = WindowPair(capacity=2)
        e = np.eye(4)
        linear.add_direction(w, e[0], e[0])
        linear.add_direction(w, e[1], e[1])
        before = _snapshot(w)
        # v lies in the span of the window, so nothing is left of it.
        assert linear.add_direction(w, e[2], 3.0 * e[0] - e[1]) is None
        _assert_same_window(before, _snapshot(w))

    def test_tgcr_breakdown_keeps_window(self, monkeypatch):
        # Three eigenvalues: the residual reaches rounding level after three
        # steps and the fourth direction, against a full m = 2 window that
        # has already evicted direction 0, collapses.
        calls = self._spy(monkeypatch, linear)
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        b = np.random.default_rng(0).standard_normal(6)
        with pytest.raises(BreakdownError) as info:
            tgcr_solve(op, b, np.zeros(6), m=2, opts=LinearOptions(tol_rel=1e-30, max_iters=20))
        before, after, out = calls[-1]
        assert out is None and all(c[2] is not None for c in calls[:-1])
        assert before[:2] == (2, 1)
        _assert_same_window(before, after)
        _assert_same_window(before, _snapshot(info.value.history.window))

    def test_nltgcr_restarts_window_after_collapse(self, monkeypatch):
        # f(0) = (-1, 0) with J(0) = I, so the first step lands on (1, 0)
        # where J r = (1/2, 0) is parallel to the stored v: the new direction
        # collapses against the window, while a restarted window takes it.
        calls = self._spy(monkeypatch, solver_module)

        def f(x):
            return np.array([x[0] - 1.0 + x[0] * x[1], x[1] * (1.0 - x[0]) - 0.5 * x[0] ** 2])

        def jv(x, p):
            J = np.array([[1.0 + x[1], x[0]], [-x[1] - x[0], 1.0 - x[0]]])
            return J @ p

        prob = NonlinearProblem(dim=2, eval_f=f, exact_jv=jv)
        opts = SolverOptions(max_iters=20, restart_every=None)
        # r is orthogonal to J r at (1, 0), so every restarted window gives a
        # zero step and the restart budget runs out.
        with pytest.raises(BreakdownError) as info:
            nltgcr_solve(prob, np.zeros(2), opts, probe=JvProbe(mode="exact"))
        (_, seeded, first), (before, after, out), (cleared, reseeded, again) = calls[:3]
        assert first is not None and seeded[0] == 1
        assert out is None and before[0] == 1
        _assert_same_window(before, after)
        assert cleared[0] == 0 and again is not None
        np.testing.assert_allclose(reseeded[2][:, 0], [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(reseeded[3][:, 0], [1.0, 0.0], atol=1e-15)
        assert info.value.trace.frozen and len(info.value.trace) >= 2
