import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nltgcr.linear as linear
import nltgcr.solver as solver_module
from nltgcr import (
    BratuProblem,
    BreakdownError,
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
from oracles import krylov_min_resnorm, linearity_defect, mgs_orthogonalize_pair, rerun_iterates


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

    @pytest.mark.parametrize("solve", [gcr_solve, cr_solve], ids=["gcr", "cr"])
    def test_zero_rhs_is_measured_against_the_first_residual(self, solve):
        # With b = 0 the solution is 0, and ||r_0|| is the only scale: a
        # small start is solved to tol_rel of it, not stopped by a floor.
        op = LinearOperator.from_matrix(np.diag(np.arange(1.0, 7.0)), is_symmetric=True)
        x0 = np.full(6, 2.0**-40)
        x, h = solve(op, np.zeros(6), x0, LinearOptions(tol_rel=1e-10))
        assert h.converged and h.iterations > 0
        assert h.norms[-1] <= 1e-10 * h.norms[0]
        assert np.linalg.norm(x) <= 1e-9 * np.linalg.norm(x0)
        x, h = solve(op, np.zeros(6), np.zeros(6), LinearOptions(tol_rel=1e-10))
        assert h.converged and h.iterations == 0 and not np.any(x)

    def test_per_step_residual_is_krylov_minimum(self):
        # Independent oracle: Arnoldi basis + dense least squares.
        op, b = make_linear_problem("nonsymmetric", 20, seed=4)

        def solve(max_iters=500):
            return gcr_solve(op, b, np.zeros(20), LinearOptions(tol_rel=1e-10, max_iters=max_iters))

        x, h = solve()
        r0n = h.resnorms()[0]
        xs = rerun_iterates(solve, np.zeros(20), h.iterations)
        for k in range(h.iterations + 1):
            truth = krylov_min_resnorm(op.mat, b, np.zeros(20), k)
            mine = float(np.linalg.norm(b - op.mat @ xs[k]))
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
        V = h.window.v_matrix()
        defect = np.abs(V.T @ V - np.eye(V.shape[1])).max()
        assert defect <= 1e-10

    def test_lucky_breakdown_carries_tiny_residual(self):
        # With A = I the first step is exact; an absurdly small tolerance
        # forces the solver to try to build a direction from the noise-level
        # residual, which collapses.
        op = LinearOperator.from_matrix(np.eye(8))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(8)
        x, h = gcr_solve(op, b, np.zeros(8), LinearOptions(tol_rel=1e-30, max_iters=10))
        assert h.breakdown and not h.converged
        assert h.norms[-1] / np.linalg.norm(b) <= 1e-8
        assert np.linalg.norm(b - op.mat @ x) / np.linalg.norm(b) <= 1e-8

    def test_dimension_mismatch_rejected(self):
        op = LinearOperator.from_matrix(np.eye(4))
        with pytest.raises(ValueError):
            gcr_solve(op, np.ones(5), np.zeros(4))

    @pytest.mark.parametrize("solve", [gcr_solve, cr_solve], ids=["gcr", "cr"])
    @pytest.mark.parametrize("b", [np.ones(1), np.ones((5, 1))], ids=["short", "column"])
    def test_b_that_would_broadcast_rejected(self, solve, b):
        # numpy broadcasts either b against A x0; a solve must not.
        op = LinearOperator.from_matrix(np.eye(5), is_symmetric=True)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(op, b, np.zeros(5))


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

    def test_last_push_that_evicts_marks_truncated(self):
        # Three eigenvalues: three steps converge, and the third direction's
        # push evicts the first from the m = 2 window.
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        _, h = tgcr_solve(op, np.arange(1.0, 7.0), np.zeros(6), m=2)
        assert h.converged and len(h.scales) == 3
        assert (len(h.window), h.window.oldest_index) == (2, 1)
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

    def test_zero_start_takes_no_apply_for_the_first_residual(self):
        # r_0 = b when x0 = 0, as in gcr_solve: one apply per direction.
        calls = []
        op = LinearOperator(dim=5, apply=lambda v: calls.append(v) or v, is_symmetric=True)
        x, h = cr_solve(op, np.ones(5), np.zeros(5))
        assert h.iterations == 1 and len(calls) == 1
        np.testing.assert_allclose(x, np.ones(5), atol=1e-14)

    def test_running_out_of_steps_takes_one_apply_per_step(self):
        # After its last allowed step CR forms no A r, beta or direction, so
        # a max_iters exit records one beta fewer than its steps, as a
        # converged solve does.
        op, b = make_linear_problem("spd", 30, seed=0)
        calls = []
        counted = LinearOperator(dim=30, apply=lambda v: calls.append(v) or op.apply(v),
                                 is_symmetric=True)
        _, h = cr_solve(counted, b, np.zeros(30), LinearOptions(tol_rel=1e-12, max_iters=5))
        assert not h.converged and not h.breakdown and h.iterations == 5
        assert len(calls) == 5 and len(h.betas) == 4

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

    @pytest.mark.parametrize("k", [-60, 60])
    def test_collapse_does_not_depend_on_the_scale_of_b(self, k):
        # Three eigenvalues: r reaches rounding level after three steps and
        # the fourth direction collapses, for b and for 2^k b alike.
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        b = np.random.default_rng(0).standard_normal(6)
        opts = LinearOptions(tol_rel=1e-30, max_iters=20)
        runs = [cr_solve(op, scale * b, np.zeros(6), opts) for scale in (1.0, 2.0**k)]
        (x, h), (x_scaled, h_scaled) = runs
        assert h.breakdown and h.iterations == 3
        assert h_scaled.breakdown and h_scaled.iterations == 3
        assert (x_scaled / 2.0**k).tobytes() == x.tobytes()
        assert h_scaled.norms[-1] / 2.0**k == h.norms[-1]

    def test_zero_r_dot_ar_is_a_breakdown(self):
        # diag(1, -1) and b = (1, 1): r . A r = 0, so the step would be
        # zero and the next beta 0 / 0. GCR takes the zero step, and its
        # next direction collapses.
        op = LinearOperator.from_matrix(np.diag([1.0, -1.0]))
        b = np.ones(2)
        x, h = cr_solve(op, b, np.zeros(2))
        assert h.breakdown and h.iterations == 0
        assert x.tobytes() == np.zeros(2).tobytes()
        assert h.norms[-1] == np.sqrt(2.0) and h.norms == [np.sqrt(2.0)]
        np.testing.assert_array_equal(b - op.mat @ x, b)
        _, h = gcr_solve(op, b, np.zeros(2))
        assert h.breakdown and h.iterations == 1

    def test_breakdown_carries_iterate_and_history(self):
        # A = 0: the first direction collapses before any step is taken.
        op = LinearOperator.from_matrix(np.zeros((3, 3)), is_symmetric=True)
        x0 = np.zeros(3)
        x, h = cr_solve(op, np.ones(3), x0)
        assert h.breakdown and h.iterations == 0
        assert x.tobytes() == x0.tobytes()
        assert h.norms == [np.sqrt(3.0)]


def _window_instance(k, n, seed, near_span=False):
    """A window of k pairs v_i = A p_i with orthonormal v rows, and a new pair.

    With near_span the new v lies within 1e-10 (relative) of span(V).
    """
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    Q, _ = np.linalg.qr(A @ rng.standard_normal((n, k)))
    w = WindowPair(capacity=max(k, 1))
    for p_i, v_i in zip(np.linalg.solve(A, Q).T, Q.T):
        w.push(p_i, v_i)
    p = rng.standard_normal(n)
    if near_span:
        c = rng.standard_normal(k)
        p = w.p_matrix() @ c + 1e-10 * np.linalg.norm(c) * p / np.linalg.norm(A @ p)
    return A, w, p, A @ p


class TestOrthogonalizePair:
    """Classical Gram-Schmidt with the conditional second pass."""

    @staticmethod
    def _check(A, w, p, v):
        P, V = w.p_matrix(), w.v_matrix()
        k = V.shape[1]
        saved = [a.copy() for a in (p, v, P, V)]
        p_out, v_out, b, nv_out = linear.orthogonalize_pair(p, v, P, V, 0, k)
        for a, a_saved in zip((p, v, P, V), saved):
            np.testing.assert_array_equal(a, a_saved)
        assert b.shape == (k,)
        # The returned norm is the norm of the returned v, to the bit.
        assert nv_out == float(np.linalg.norm(v_out))
        nv = float(np.linalg.norm(v))
        assert float(np.abs(V.T @ v_out).max()) <= linear.REORTH_REL * nv_out
        assert float(np.linalg.norm(v_out - A @ p_out)) <= 1e-10 * nv
        assert float(np.linalg.norm(v - v_out - V @ b)) <= 1e-12 * nv
        return p_out, v_out, b

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 12), extra=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    def test_invariants_and_mgs_agreement(self, k, extra, seed):
        A, w, p, v = _window_instance(k, k + extra, seed)
        if k == 0:
            # An empty window hands back the inputs themselves.
            P, V = w.p_matrix(), w.v_matrix()
            p_out, v_out, b, nv_out = linear.orthogonalize_pair(p, v, P, V, 0, 0)
            assert p_out is p and v_out is v and b.shape == (0,)
            assert nv_out == float(np.linalg.norm(v))
            return
        p_out, v_out, b = self._check(A, w, p, v)
        p_ref, v_ref, b_ref, nv_ref = mgs_orthogonalize_pair(p, v, w.p_matrix(), w.v_matrix(), 0, k)
        np.testing.assert_allclose(v_out, v_ref, rtol=0, atol=1e-10 * np.linalg.norm(v))
        np.testing.assert_allclose(p_out, p_ref, rtol=0, atol=1e-10 * np.linalg.norm(p))
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-10 * np.linalg.norm(v))
        assert nv_ref == float(np.linalg.norm(v_ref))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", [dict(near_span=True)], ids=["near-span"])
    def test_second_pass_runs_and_ends_orthogonal(self, case, seed):
        # Near the span, one pass leaves mostly rounding error, so p must
        # take the second pass's coefficients too.
        A, w, p, v = _window_instance(8, 40, seed, **case)
        V = w.v_matrix()
        once = v - V @ (V.T @ v)
        assert np.abs(V.T @ once).max() > linear.REORTH_REL * np.linalg.norm(once)
        self._check(A, w, p, v)


def _operator(kind, n, rng):
    if kind == "nonsymmetric":
        return np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    # Near-singular: singular values spread from 1 down to 1e-12.
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.logspace(0, -12, n)) @ W.T


def _add_direction_run(kind, n, m, steps, seed):
    """Fill a WindowPair(m) by add_direction alone on a random operator.

    Yields (window, p, v = A p, eps) before each step; the caller takes the
    step. p is random (eps = 1) or lies within eps, relative, of the span of
    the window's p rows, so the first Gram-Schmidt pass keeps anything from
    all of v to rounding noise of it.
    """
    rng = np.random.default_rng(seed)
    A = _operator(kind, n, rng)
    w = WindowPair(m)
    for _ in range(steps):
        eps = float(rng.choice([1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-12])) if len(w) else 1.0
        p = rng.standard_normal(n)
        if eps < 1.0:
            base = rng.standard_normal(len(w)) @ w.rows()[0]
            p = base + eps * np.linalg.norm(base) * p / np.linalg.norm(p)
        yield w, p, A @ p, eps


class TestTrustedFirstPass:
    """On windows add_direction built, one pass that kept ||v'|| >= eta ||v||
    is the whole Gram-Schmidt and one below eta is always followed by a
    second."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["nonsymmetric", "near-singular"]),
        m=st.integers(1, 12),
        extra=st.integers(1, 48),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_built_windows_stay_orthonormal(self, kind, m, extra, steps, seed):
        for w, p, v, _ in _add_direction_run(kind, m + extra, m, steps, seed):
            if linear.add_direction(w, p, v, r0_norm=1.0) is None:
                continue
            V = w.rows()[1]
            others = np.delete(V, w.newest_slot, axis=0)
            # The pushed v has unit norm.
            assert np.abs(others @ V[w.newest_slot]).max(initial=0.0) <= linear.REORTH_REL
            assert w.orthonormality_defect() <= linear.REORTH_REL

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["nonsymmetric", "near-singular"]),
        m=st.integers(1, 12),
        extra=st.integers(1, 48),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_skip_returns_the_tested_paths_bytes(self, kind, m, extra, steps, seed):
        # Wherever the first pass keeps skip_eta of ||v||, it left no
        # projection above REORTH_REL ||v'||: a test of it would not have
        # fired, so skipping the test changes no byte of (p, v, b).
        n = m + extra
        for w, p, v, eps in _add_direction_run(kind, n, m, steps, seed):
            V = w.rows()[1]
            k = len(w)
            if k:
                b = V @ v
                once = v - np.dot(b, V)
                nv2 = float(once @ once)
                skipped = nv2 >= linear.skip_eta(k, n) ** 2 * (nv2 + float(b @ b))
                if kind == "nonsymmetric" and eps == 1.0 and n - k >= 30:
                    # A random direction with 30 or more free dimensions
                    # keeps most of its norm, so the check below runs.
                    assert skipped
                if skipped:
                    assert np.abs(V @ once).max() <= linear.REORTH_REL * np.sqrt(nv2)
            linear.add_direction(w, p, v, r0_norm=1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_span_pair_takes_second_pass(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 40, 8
        A = _operator("nonsymmetric", n, rng)
        w = WindowPair(k + 1)
        for _ in range(k):
            p = rng.standard_normal(n)
            linear.add_direction(w, p, A @ p, r0_norm=1.0)
        P, V = w.rows()
        base = rng.standard_normal(k) @ P
        p = rng.standard_normal(n)
        p = base + 1e-10 * np.linalg.norm(base) * p / np.linalg.norm(p)
        v = A @ p
        once = v - (V @ v) @ V
        assert np.linalg.norm(once) < linear.skip_eta(k, n) * np.linalg.norm(v)
        assert np.abs(V @ once).max() > linear.REORTH_REL * np.linalg.norm(once)
        assert linear.add_direction(w, p, v, r0_norm=1.0) is not None
        V = w.rows()[1]
        assert np.abs(V[:k] @ V[k]).max() <= linear.REORTH_REL
        assert w.orthonormality_defect() <= linear.REORTH_REL


class TestLinearOperator:
    def test_linearity_defect_small(self):
        op, _ = make_linear_problem("nonsymmetric", 15, seed=6)
        assert linearity_defect(op) <= 1e-12

    def test_from_matrix_detects_symmetry(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert LinearOperator.from_matrix(A).is_symmetric
        B = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert not LinearOperator.from_matrix(B).is_symmetric

    def test_from_matrix_has_no_relative_slack(self):
        # One entry off by 5e-6 of itself is far above the 1e-13 * max|A|
        # tolerance, yet within allclose's default rtol of 1e-5.
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        A[0, 1] *= 1.0 + 5e-6
        op = LinearOperator.from_matrix(A)
        assert not op.is_symmetric
        with pytest.raises(ValueError, match="declared symmetric"):
            cr_solve(op, np.ones(2), np.zeros(2))

    def test_from_matrix_has_no_absolute_slack(self):
        # A tiny nonsymmetric matrix is nonsymmetric: the tolerance scales
        # with max|A| alone, so its asymmetry 1e-14 is not below it.
        op = LinearOperator.from_matrix(1e-14 * np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert not op.is_symmetric
        with pytest.raises(ValueError, match="declared symmetric"):
            cr_solve(op, np.ones(2), np.zeros(2))
        assert LinearOperator.from_matrix(np.zeros((3, 3))).is_symmetric

    @pytest.mark.parametrize("is_symmetric", [None, False])
    @pytest.mark.parametrize("A", [np.ones((3, 2)), np.ones(3), np.ones((2, 2, 2))],
                             ids=["3x2", "vector", "3-d"])
    def test_from_matrix_rejects_a_non_square_matrix(self, A, is_symmetric):
        with pytest.raises(ValueError, match="square"):
            LinearOperator.from_matrix(A, is_symmetric=is_symmetric)


def _snapshot(window):
    return len(window), window.oldest_index, window.p_matrix().copy(), window.v_matrix().copy()


def _assert_same_window(a, b):
    assert a[:2] == b[:2]
    np.testing.assert_array_equal(a[2], b[2])
    np.testing.assert_array_equal(a[3], b[3])


def _rank_five_problem(n):
    """(operator, b): Q diag(1 .. 2 in five steps, 0, ..., 0) Q^T, symmetric
    of rank 5, and a standard normal b."""
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.zeros(n)
    d[:5] = np.linspace(1.0, 2.0, 5)
    return LinearOperator.from_matrix((Q * d) @ Q.T), rng.standard_normal(n)


class TestAddDirection:
    """The one direction step shared by TGCR, nlTGCR and Newton-Krylov."""

    @staticmethod
    def _spy(monkeypatch, module):
        # Wraps the step where `module` looks it up; records the window
        # before and after every call and what the call returned.
        calls = []
        step = linear.add_direction

        def spy(window, p, v, **kw):
            before = _snapshot(window)
            out = step(window, p, v, **kw)
            calls.append((before, _snapshot(window), out))
            return out

        monkeypatch.setattr(module, "add_direction", spy)
        return calls

    def test_pushes_orthonormalized_pair_and_evicts_at_capacity(self):
        w = WindowPair(capacity=2)
        e = np.eye(3)
        s, b = linear.add_direction(w, 2.0 * e[0], 2.0 * e[0], r0_norm=1.0)
        assert s == 2.0 and b.shape == (0,)
        assert linear.add_direction(w, e[1], e[1], r0_norm=1.0) is not None
        s, b = linear.add_direction(w, e[2], e[0] + e[2], r0_norm=1.0)
        assert s == pytest.approx(1.0) and b.tolist() == [1.0, 0.0]
        # v = A p is kept: the multiple of v_0 removed from v comes off p too.
        np.testing.assert_allclose(w.p_matrix()[:, 1], e[2] - e[0], atol=1e-15)
        np.testing.assert_allclose(w.v_matrix(), e[:, 1:], atol=1e-15)
        assert (len(w), w.oldest_index) == (2, 1)

    def test_residual_basis_pushes_only_the_v_row(self):
        w = WindowPair(capacity=3)
        e = np.eye(3)
        linear.add_direction(w, e[0], e[0], r0_norm=1.0, residual_basis=True)
        s, b = linear.add_direction(w, e[0] + e[1], 2.0 * (e[0] + e[1]), r0_norm=1.0,
                                    residual_basis=True)
        # v loses its v_0 part and is divided by ||v'||; p is not stored.
        assert s == 2.0 and b.tolist() == [2.0]
        np.testing.assert_array_equal(w.v_matrix()[:, 1], e[1])
        assert w.rows()[0] is None and w._p.size == 0
        with pytest.raises(ValueError, match="no P rows"):
            w.p_matrix()

    def test_collapse_at_capacity_leaves_window_unchanged(self):
        w = WindowPair(capacity=2)
        e = np.eye(4)
        linear.add_direction(w, e[0], e[0], r0_norm=1.0)
        linear.add_direction(w, e[1], e[1], r0_norm=1.0)
        before = _snapshot(w)
        # v lies in the span of the window, so nothing is left of it.
        assert linear.add_direction(w, e[2], 3.0 * e[0] - e[1], r0_norm=1.0) is None
        _assert_same_window(before, _snapshot(w))

    def test_tgcr_breakdown_keeps_window(self, monkeypatch):
        # Three eigenvalues: the residual reaches rounding level after three
        # steps and the fourth direction, against a full m = 2 window that
        # has already evicted direction 0, collapses.
        calls = self._spy(monkeypatch, linear)
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        b = np.random.default_rng(0).standard_normal(6)
        _, h = tgcr_solve(op, b, np.zeros(6), m=2, opts=LinearOptions(tol_rel=1e-30, max_iters=20))
        assert h.breakdown
        before, after, out = calls[-1]
        assert out is None and all(c[2] is not None for c in calls[:-1])
        assert before[:2] == (2, 1)
        _assert_same_window(before, after)
        _assert_same_window(before, _snapshot(h.window))

    @pytest.mark.parametrize("m, workspace", [(None, False), (20, False), (20, True)])
    def test_a_rounding_level_a_r_collapses(self, m, workspace):
        # A has rank 5: after five steps r lies (to rounding) in its null
        # space, and A r is rounding noise, ||A r|| / ||r|| about 7e-16 of
        # ||A||. Measured against the raw ||A r|| alone, that noise passes
        # for a direction: the solve went on to max_iters and ended with
        # ||b - A x|| = 1.0089 ||b||, worse than x0 = 0, while it recorded
        # 0.937 ||b||. Against the window's gain it collapses at step 5.
        n = 200
        op, b = _rank_five_problem(n)
        A = op.mat
        opts = LinearOptions(tol_rel=0.5, max_iters=20)
        if m is None:
            x, h = gcr_solve(op, b, np.zeros(n), opts)
        else:
            x, h = tgcr_solve(op, b, np.zeros(n), m=m, opts=opts,
                              workspace=WindowPair(m) if workspace else None)
        true = float(np.linalg.norm(b - A @ x))
        assert h.breakdown and h.iterations == 5
        assert true < np.linalg.norm(b)
        assert abs(true - h.norms[-1]) <= 1e-12 * np.linalg.norm(b)

    def test_nltgcr_restarts_window_after_collapse(self, monkeypatch):
        # f(0) = (-1, 0) with J(0) = I, so the first step lands on (1, 0)
        # where J r = (1/2, 0) is parallel to the stored v: the new direction
        # collapses against the window, while a restarted window takes it.
        calls = self._spy(monkeypatch, solver_module)
        cleared_at = []  # the window's length at every clear
        clear = WindowPair.clear

        def spy_clear(window):
            cleared_at.append(len(window))
            clear(window)

        monkeypatch.setattr(WindowPair, "clear", spy_clear)

        def f(x):
            return np.array([x[0] - 1.0 + x[0] * x[1], x[1] * (1.0 - x[0]) - 0.5 * x[0] ** 2])

        def jv(x, p):
            J = np.array([[1.0 + x[1], x[0]], [-x[1] - x[0], 1.0 - x[0]]])
            return J @ p

        prob = NonlinearProblem(dim=2, eval_f=f, exact_jv=jv)
        opts = SolverOptions(max_iters=20, restart_every=None)
        # r is orthogonal to J r at (1, 0), so every restarted window gives a
        # zero step and the restart budget runs out: the seed clears the empty
        # window, then each of the MAX_BREAKDOWN_RESTARTS restarts a one-pair one.
        xs = []
        with pytest.raises(BreakdownError, match="window restarts exhausted") as info:
            nltgcr_solve(prob, np.zeros(2), opts, exact_jv=True,
                         observer=lambda s: xs.append(s["x"]))
        (_, seeded, first), (before, after, out), (cleared, reseeded, again) = calls[:3]
        assert first is not None and seeded[0] == 1
        assert out is None and before[0] == 1
        _assert_same_window(before, after)
        assert cleared[0] == 0 and again is not None
        np.testing.assert_allclose(reseeded[2][:, 0], [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(reseeded[3][:, 0], [1.0, 0.0], atol=1e-15)
        assert cleared_at == [0, 1, 1, 1]
        assert info.value.trace.frozen and len(info.value.trace) >= 2
        # The failure carries the last iterate: the first step's (1, 0).
        assert len(xs) == 1 and info.value.x is xs[-1]
        np.testing.assert_allclose(info.value.x, [1.0, 0.0], atol=1e-15)


class TestStopContract:
    """Every linear solve ends in exactly one stated way: converged, broke
    down, or ran its max_iters steps without converging."""

    @settings(max_examples=200, deadline=None)
    @given(
        solver=st.sampled_from(["gcr", "tgcr", "tgcr-workspace", "cr"]),
        kind=st.sampled_from(["spd", "nonsymmetric", "indefinite"]),
        n=st.integers(1, 30),
        m=st.integers(1, 8),
        max_iters=st.integers(1, 40),
        tol=st.sampled_from([1e-8, 1e-30]),
        random_x0=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_outcome_and_converged_means_the_target_is_met(
        self, solver, kind, n, m, max_iters, tol, random_x0, seed
    ):
        if solver == "cr" and kind == "nonsymmetric":
            kind = "spd"
        op, b = make_linear_problem(kind, n, seed=seed)
        x0 = np.random.default_rng(seed).standard_normal(n) if random_x0 else np.zeros(n)
        opts = LinearOptions(tol_rel=tol, max_iters=max_iters)
        if solver == "gcr":
            _, h = gcr_solve(op, b, x0, opts)
        elif solver == "cr":
            _, h = cr_solve(op, b, x0, opts)
        else:
            w = WindowPair(min(m, max_iters)) if solver == "tgcr-workspace" else None
            _, h = tgcr_solve(op, b, x0, m=m, opts=opts, workspace=w)
        ran_out = h.iterations == max_iters and not h.converged
        assert [h.converged, h.breakdown, ran_out].count(True) == 1
        # A breakdown stops the solve before its last step.
        assert not h.breakdown or h.iterations < max_iters
        assert h.converged == (h.norms[-1] <= tol * float(np.linalg.norm(b)))


def _solve_with(solver, op, b, x0, opts):
    if solver == "gcr":
        return gcr_solve(op, b, x0, opts)
    if solver == "cr":
        return cr_solve(op, b, x0, opts)
    # "tgcr-5" evicts; "tgcr-workspace" cannot, so it keeps the residual basis.
    m = 5 if solver == "tgcr-5" else opts.max_iters
    w = WindowPair(m) if solver == "tgcr-workspace" else None
    return tgcr_solve(op, b, x0, m=m, opts=opts, workspace=w)


class TestReadOnlyStart:
    """No linear solve writes or copies x0: a read-only start, a broadcast
    zero view included, gives the bytes a writable one gives."""

    SOLVERS = ["gcr", "tgcr", "tgcr-5", "tgcr-workspace", "cr"]

    @staticmethod
    def _read_only(x):
        x = x.copy()
        x.setflags(write=False)
        return x

    @staticmethod
    def _bytes(solver, op, b, x0, opts):
        x, h = _solve_with(solver, op, b, x0, opts)
        # CR's betas are floats, the others' arrays.
        return (x.tobytes(), h.resnorms().tobytes(), h.alphas, h.scales,
                [np.asarray(c).tobytes() for c in h.betas], h.converged, h.breakdown)

    # cyclic-shift at seed 67 stalls, so the workspace solve leaves the
    # residual basis and sums its directions from x0; cr_solve needs a
    # symmetric operator.
    @pytest.mark.parametrize("solver, kind, n, seed", [
        *((s, "spd", 20, 0) for s in SOLVERS),
        *((s, "cyclic-shift", 10, 67) for s in SOLVERS if s != "cr"),
    ])
    def test_a_read_only_start_gives_the_same_bytes(self, solver, kind, n, seed):
        op, b = _workspace_problem(kind, n, seed)
        opts = LinearOptions(tol_rel=1e-10, max_iters=n)
        ref = self._bytes(solver, op, b, np.zeros(n), opts)
        for x0 in (np.broadcast_to(0.0, n), self._read_only(np.zeros(n))):
            assert self._bytes(solver, op, b, x0, opts) == ref
        start = np.random.default_rng(seed).standard_normal(n)
        ref = self._bytes(solver, op, b, start.copy(), opts)
        x0 = self._read_only(start)
        assert self._bytes(solver, op, b, x0, opts) == ref
        assert x0.tobytes() == start.tobytes()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_solve_that_takes_no_step_returns_x0(self, solver):
        op, b = make_linear_problem("spd", 10, seed=0)
        opts = LinearOptions(tol_rel=1e-8, max_iters=10)
        x0 = self._read_only(np.linalg.solve(op.mat, b))
        x, h = _solve_with(solver, op, b, x0, opts)
        assert h.converged and h.iterations == 0 and x.tobytes() == x0.tobytes()
        x, h = _solve_with(solver, op, np.zeros(10), np.broadcast_to(0.0, 10), opts)
        assert h.converged and h.iterations == 0 and x.tobytes() == bytes(80)


class TestLinearOptions:
    @pytest.mark.parametrize(
        "kw", [dict(max_iters=0), dict(max_iters=-1), dict(tol_rel=0.0), dict(tol_rel=-1.0)]
    )
    def test_rejects_out_of_range(self, kw):
        # max_iters=0 would spend an operator apply on a direction nobody
        # uses; tol_rel=-1 can never be met and runs into breakdown.
        with pytest.raises(ValueError):
            LinearOptions(**kw)


def _scalars(x, h):
    return (x.tobytes(), h.resnorms().tobytes(), h.iterations, h.alphas, h.scales,
            [b.tobytes() for b in h.betas], h.converged, h.truncated, h.breakdown)


def _run(op, b, m, opts, workspace=None):
    """(x, history) of a tgcr solve from x0 = 0."""
    return tgcr_solve(op, b, np.zeros(op.dim), m=m, opts=opts, workspace=workspace)


# make_linear_problem's kinds and three more: "few-eigenvalues" (GCR ends
# in a collapse at tol 1e-30), "cyclic-shift" and "late-stall". A cyclic
# shift S has r^T S r = 0 for r = e_1, so GCR on a slightly perturbed S with
# b near e_1 barely moves from its first step and nearly collapses;
# "late-stall" puts S beside a diagonal block in [1, 10], which GCR reduces
# before it stalls on S.
WORKSPACE_KINDS = ["nonsymmetric", "spd", "indefinite", "few-eigenvalues", "cyclic-shift",
                   "late-stall"]


def _workspace_problem(kind, n, seed):
    if kind == "few-eigenvalues":
        rng = np.random.default_rng(seed)
        op = LinearOperator.from_matrix(np.diag(rng.choice([1.0, 2.0, 3.0], n)))
        return op, rng.standard_normal(n)
    if kind in ("cyclic-shift", "late-stall"):
        rng = np.random.default_rng(seed)
        h = n // 2 if kind == "late-stall" else 0
        A = np.zeros((n, n))
        A[:h, :h] = np.diag(rng.uniform(1.0, 10.0, h))
        A[h:, h:] = np.roll(np.eye(n - h), 1, axis=0)
        A += 10 ** rng.uniform(-8, -2) * rng.standard_normal((n, n))
        b = 1e-3 * rng.standard_normal(n)
        b[:h] = rng.standard_normal(h)
        b[h] += 10 ** rng.uniform(-3, 3) if h else 1.0
        return LinearOperator.from_matrix(A), b
    return make_linear_problem(kind, n, seed=seed)


def _residual_basis_scale(h_ws, h_full):
    """(k, S) of a solve from x0 = 0 whose window could not evict, with
    S = || |P|^T |U| |z| ||: P the full history's direction columns, U the
    unit upper-triangular U[i, t] = b_it / s_t, U z = alpha."""
    k = len(h_ws.alphas)
    U = np.eye(k)
    for t, b in enumerate(h_ws.betas):
        U[:t, t] = b / h_ws.scales[t]
    z = np.linalg.solve(U, h_ws.alphas)
    P = h_full.window.p_matrix()[:, :k]
    return k, float(np.linalg.norm(np.abs(P) @ (np.abs(U) @ np.abs(z))))


class TestWorkspace:
    """tgcr_solve in a caller's window gives today's scalars; its iterate is
    the same floats where the window can evict and the residual-basis
    iterate, equal to rounding, where it cannot."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(WORKSPACE_KINDS),
        n=st.integers(3, 30),
        m=st.integers(1, 8),
        max_iters=st.integers(1, 40),
        tol=st.sampled_from([1e-4, 1e-10, 1e-30]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_floats_as_full_history(self, kind, n, m, max_iters, tol, seed):
        # "few-eigenvalues" with tol 1e-30 collapses a direction, so the
        # comparison covers breakdown histories too.
        op, b = _workspace_problem(kind, n, seed)
        opts = LinearOptions(tol_rel=tol, max_iters=max_iters)
        w = WindowPair(min(m, max_iters))
        # Two consecutive solves in one window: the second starts from a
        # window that has numbered directions already.
        for rhs in (b, b[::-1].copy()):
            x_full, h_full = _run(op, rhs, m, opts)
            x_ws, h_ws = _run(op, rhs, m, opts, workspace=w)
            assert _scalars(x_ws, h_ws)[1:] == _scalars(x_full, h_full)[1:]
            if m < max_iters:
                assert x_ws.tobytes() == x_full.tobytes()
            else:
                # Every scalar above is the same float on both paths, and so
                # is every residual r_t: the residual basis replays them from
                # r_0 and its v rows with the loop's own operations. With
                # P = U^{-T} Q, Q the rows r_t / s_t, the full path forms P
                # by forward substitution, then x0 + alpha @ P, a (k + 1)-term
                # sum; the residual basis back-substitutes for
                # z = U^{-1} alpha, then sums x0 + sum_t (z_t / s_t) r_t, the
                # r_0 term first and the rest in one product. A triangular
                # solve has backward error |dU| <= gamma_k |U| (Higham,
                # Accuracy and Stability, Thm 8.5), which puts at most
                # gamma_k |P|^T |U| |z| into x on either path; each sum, in
                # any order of its terms, adds
                # gamma_{k+1} (|x0| + |P|^T |alpha|) or
                # gamma_{k+1} (|x0| + |Q|^T |z|), and rounding z_t / s_t adds
                # u |Q|^T |z|. With |alpha| <= |U| |z|, |Q|^T <= |P|^T |U|
                # and x0 = 0, all of it is at most (4k + 3) u S to first
                # order; 4k + 4 covers the second. A solve that stalls leaves
                # the residual basis with the full path's own P rows and sum,
                # and from there on it is the full path to the bit.
                k, S = _residual_basis_scale(h_ws, h_full)
                diff = float(np.linalg.norm(x_ws - x_full))
                assert diff <= (4 * k + 4) * linear.UNIT_ROUNDOFF * S
            assert h_ws.window is None
            assert h_ws.norms == h_full.norms

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(WORKSPACE_KINDS),
        n=st.integers(3, 30),
        max_iters=st.integers(1, 40),
        tol=st.sampled_from([1e-4, 1e-10, 1e-30]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="cyclic-shift", n=10, max_iters=10, tol=1e-10, seed=67)
    @example(kind="late-stall", n=18, max_iters=18, tol=1e-4, seed=32)
    def test_residual_basis_reports_the_true_residual(self, kind, n, max_iters, tol, seed):
        # m = max_iters: the workspace keeps the residual basis until a step
        # stalls. The last recorded norm stays as close to ||b - A x|| as on
        # the full path. A maps the iterates' difference, at most
        # (4k + 4) u S (above), to at most (4k + 4) u ||A|| S; these
        # operators have ||A|| and ||A^-1|| of order 1 to 10, and over 600
        # draws of each kind the excess stayed below 4 (4k + 4) u ||b||, so
        # c = 16 (4k + 4). Kept in the residual basis through its stall, the
        # first explicit example exceeds that bound 350 times over. The
        # second stalls at step 3, after three steps that kept 0.97-0.997
        # of ||r||: P rows rebuilt by forward substitution with U would put
        # it 5 times over; the full path's own rows keep it at gap_full.
        op, b = _workspace_problem(kind, n, seed)
        opts = LinearOptions(tol_rel=tol, max_iters=max_iters)
        x_full, h_full = _run(op, b, max_iters, opts)
        x_ws, h_ws = _run(op, b, max_iters, opts, workspace=WindowPair(max_iters))
        gap_ws, gap_full = (abs(float(np.linalg.norm(b - op.mat @ x)) - h.norms[-1])
                            for x, h in ((x_ws, h_ws), (x_full, h_full)))
        c = 16 * (4 * len(h_ws.alphas) + 4)
        assert gap_ws <= gap_full + c * linear.UNIT_ROUNDOFF * float(np.linalg.norm(b))

    @staticmethod
    def _spy_p_pass(monkeypatch):
        """A list that gets, per orthogonalize_pair call, whether P was None."""
        seen = []
        gs = linear.orthogonalize_pair

        def spy(p, v, P, V, lo, hi, **kw):
            seen.append(P is None)
            return gs(p, v, P, V, lo, hi, **kw)

        monkeypatch.setattr(linear, "orthogonalize_pair", spy)
        return seen

    def test_only_a_workspace_that_cannot_evict_skips_the_p_pass(self, monkeypatch):
        seen = self._spy_p_pass(monkeypatch)
        op, b = make_linear_problem("nonsymmetric", 30, seed=0)
        opts = LinearOptions(tol_rel=1e-12, max_iters=20)
        for m, workspace, skipped in ((20, None, False), (5, WindowPair(5), False),
                                      (20, WindowPair(20), True)):
            seen.clear()
            tgcr_solve(op, b, np.zeros(30), m=m, opts=opts, workspace=workspace)
            assert seen and set(seen) == {skipped}

    @pytest.mark.parametrize("kind, n, seed", [("cyclic-shift", 10, 67), ("late-stall", 20, 11)])
    def test_a_stall_goes_back_to_directions(self, monkeypatch, kind, n, seed):
        # Directions 0..t are built in the residual basis, t the first step
        # with ||r_{t+1}|| > STALL_RATIO ||r_t||; every later one updates p.
        seen = self._spy_p_pass(monkeypatch)
        op, b = _workspace_problem(kind, n, seed)
        opts = LinearOptions(tol_rel=1e-10, max_iters=n)
        x, h = _run(op, b, n, opts, workspace=WindowPair(n))
        ratios = h.resnorms()[1:] / h.resnorms()[:-1]
        t = int(np.argmax(ratios > linear.STALL_RATIO))
        assert ratios[t] > linear.STALL_RATIO and len(seen) > t + 1
        assert seen == [True] * (t + 1) + [False] * (len(seen) - t - 1)
        x_full, h_full = _run(op, b, n, opts)
        assert h.resnorms().tobytes() == h_full.resnorms().tobytes()
        # The rebuilt P rows and x are the full path's, so the rest is too.
        assert x.tobytes() == x_full.tobytes()

    def test_residual_basis_stores_one_row_per_direction(self):
        # m v rows, which the exit's residuals are replayed into, and at
        # most five n-vectors at a time: x0 (not copied) and r_t throughout;
        # during a step A r_t and Gram-Schmidt's temporaries, at exit the
        # iterate and its temporary. The coefficients (about m^2 / 2
        # doubles) add 0.2 of an n-vector here: m + 4.9, measured. The
        # bound leaves 0.6. A copy of x0 and a U of m^2 doubles allocated
        # at the start put it at m + 5.9; a P row per direction would add
        # m more, and an 8-row replay buffer 8.
        n, m = 4000, 40
        d = np.linspace(1.0, 100.0, n)
        op = LinearOperator(dim=n, apply=lambda v: d * v, is_symmetric=True)
        b = np.random.default_rng(0).standard_normal(n)
        w = WindowPair(m)
        tracemalloc.start()
        try:
            x, h = tgcr_solve(op, b, np.zeros(n), m=m,
                              opts=LinearOptions(tol_rel=1e-30, max_iters=m), workspace=w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # It ran all m steps and never left the residual basis.
        assert h.iterations == m and w.rows()[0] is None
        assert peak <= (m + 5.5) * n * 8
        # The iterate formed from the replayed residuals is the solve's.
        assert abs(np.linalg.norm(b - d * x) - h.norms[-1]) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_residual_basis_keeps_its_accuracy_on_an_ill_conditioned_operator(self, seed):
        # The 1-D Laplacian has condition number 6.5e4 at n = 400. At these
        # seeds no step stalls, so x is summed from the replayed r_t, which
        # keeps the gap between ||b - A x|| and the last recorded norm at
        # most that of the full path (0.05-0.3 of it). Writing x in the
        # [r_0, V] basis instead, x0 + (sum_t w_t) r_0 -
        # sum_i (alpha_i sum_{t > i} w_t) v_i, puts it about 4e4 times over
        # (Jiranek, Rozloznik & Gutknecht, SIMAX 30, 2008). The operators
        # above, with condition numbers up to about 10, cannot tell the two
        # apart.
        n = 400
        lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        op = LinearOperator.from_matrix(lap)
        b = lap @ np.random.default_rng(seed).standard_normal(n)
        opts = LinearOptions(tol_rel=1e-13, max_iters=n)
        w = WindowPair(n)
        x_ws, h_ws = _run(op, b, n, opts, workspace=w)
        x_full, h_full = _run(op, b, n, opts)
        assert h_ws.converged and w.rows()[0] is None
        gap_ws, gap_full = (abs(float(np.linalg.norm(b - lap @ x)) - h.norms[-1])
                            for x, h in ((x_ws, h_ws), (x_full, h_full)))
        assert gap_ws <= 2.0 * gap_full

    def test_evicting_solve_matches(self):
        op, b = make_linear_problem("nonsymmetric", 40, seed=3)
        opts = LinearOptions(tol_rel=1e-12, max_iters=60)
        x_full, h_full = tgcr_solve(op, b, np.zeros(40), m=3, opts=opts)
        x_ws, h_ws = tgcr_solve(op, b, np.zeros(40), m=3, opts=opts, workspace=WindowPair(3))
        assert h_full.truncated and h_full.iterations > 3
        assert _scalars(x_ws, h_ws) == _scalars(x_full, h_full)

    def test_breakdown_history_from_workspace(self):
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        b = np.random.default_rng(0).standard_normal(6)
        opts = LinearOptions(tol_rel=1e-30, max_iters=20)
        (x_full, full), (x_ws, ws) = [
            tgcr_solve(op, b, np.zeros(6), m=2, opts=opts, workspace=workspace)
            for workspace in (None, WindowPair(2))
        ]
        assert full.breakdown and ws.breakdown
        assert ws.window is None
        assert _scalars(x_ws, ws) == _scalars(x_full, full)
        assert ws.norms[-1] == full.norms[-1]
        np.testing.assert_array_equal(b - op.mat @ x_ws, b - op.mat @ x_full)

    @pytest.mark.parametrize("capacity", [1, 4, 6])
    def test_wrong_capacity_rejected(self, capacity):
        op, b = make_linear_problem("spd", 10, seed=0)
        # min(m, max_iters) = 5.
        with pytest.raises(ValueError, match="capacity"):
            tgcr_solve(op, b, np.zeros(10), m=8, opts=LinearOptions(max_iters=5),
                       workspace=WindowPair(capacity))


def _digest(*arrays):
    """The first 16 hex digits of the sha256 of the arrays' float64 bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class TestFloat32Rows:
    """Windows with float32 v rows (WindowPair(dtype=np.float32)), as the
    Newton-Krylov inner solves use while eta >= TOL_FLOOR_F32, and float64
    windows, which keep the operations they had before float32 rows."""

    # sha256 prefixes of (x, norms, alphas, scales, betas) as the code gave
    # them before float32 rows existed, with OpenBLAS on x86-64; a BLAS
    # that sums in another order gives other bytes.
    @pytest.mark.parametrize("kind, n, seed, m, max_iters, tol, workspace, want", [
        ("nonsymmetric", 40, 3, 5, 60, 1e-12, False, "33fda8b20e8f2baa"),
        ("nonsymmetric", 40, 3, 5, 60, 1e-12, True, "33fda8b20e8f2baa"),
        ("nonsymmetric", 40, 3, 40, 40, 1e-12, True, "e589ba117c758720"),
        ("late-stall", 18, 32, 18, 18, 1e-4, True, "086d56686f7d139e"),
    ])
    def test_float64_rows_give_the_bytes_they_gave(self, kind, n, seed, m, max_iters, tol,
                                                   workspace, want):
        # The last case stalls at step 3 and leaves the residual basis.
        op, b = _workspace_problem(kind, n, seed)
        opts = LinearOptions(tol_rel=tol, max_iters=max_iters)
        x, h = _run(op, b, m, opts, workspace=WindowPair(min(m, max_iters)) if workspace else None)
        assert _digest(x, h.norms, h.alphas, h.scales, *h.betas) == want

    def test_nltgcr_window_gives_the_bytes_it_gave(self):
        # add_direction on nlTGCR's float64 window, as above: (x, resnorms).
        bp = BratuProblem(grid_n=20)
        x, trace = nltgcr_solve(bp.problem(), np.zeros(bp.dim),
                                SolverOptions(window_m=10, tol_rel=1e-10, max_iters=300))
        assert _digest(x, trace.resnorms()) == "e0567a98efc84b30"

    def test_gram_schmidt_never_casts_the_window_up(self):
        # A mixed float32-float64 product would copy all k rows to float64
        # (k n-vectors). Cast down, the pass holds at most the scaled copy
        # of v, b V in float32 and numpy's float64 cast buffer for the
        # subtraction: 2.5 n-vectors, measured.
        k, n = 50, 4000
        rng = np.random.default_rng(0)
        V = np.linalg.qr(rng.standard_normal((n, k)))[0].T.astype(np.float32)
        v = rng.standard_normal(n)
        tracemalloc.start()
        try:
            _, v_out, b, nv = linear.orthogonalize_pair(None, v, None, V.T, 0, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v_out.dtype == b.dtype == np.float64
        assert peak <= 3 * n * 8
        # v' is orthogonal to the rows to their precision.
        assert np.abs(V.astype(np.float64) @ v_out).max() <= linear.REORTH_REL_F32 * nv

    @staticmethod
    def _floor_problem(kind):
        """(operator, b): the scaled-Bratu Jacobian at u = 0 on a 60 x 60
        grid, with b = -f(0), or the nonsymmetric tridiagonal operator
        (-1.5, 2 + 0.1 cos(x_i), -0.5), n = 4000."""
        if kind == "scaled-bratu":
            prob = BratuProblem(grid_n=60, lam=0.5, scaled=True).minimization_problem()
            u = np.zeros(prob.dim)
            return LinearOperator(prob.dim, lambda v: prob.exact_jv(u, v)), -prob.eval_f(u)
        n = 4000
        rng = np.random.default_rng(0)
        diag = 2.0 + 0.1 * np.cos(rng.standard_normal(n))

        def apply(v):
            out = diag * v
            out[1:] -= 1.5 * v[:-1]
            out[:-1] -= 0.5 * v[1:]
            return out

        return LinearOperator(n, apply), rng.standard_normal(n)

    @pytest.mark.parametrize("kind", ["scaled-bratu", "nonsymmetric-tridiagonal"])
    def test_true_residual_at_the_floor(self, kind):
        # At tol_rel = TOL_FLOOR_F32 the recorded and true residuals agree
        # to 5.9e-5 (Bratu, 70 steps) and 4.2e-7 (tridiagonal, 108 steps)
        # of the recorded one, measured; TOL_FLOOR_F32's derivation asks
        # for a tenth.
        op, b = self._floor_problem(kind)
        m = 200
        w = WindowPair(m, np.float32)
        x, h = tgcr_solve(op, b, np.zeros(op.dim), m=m,
                          opts=LinearOptions(tol_rel=linear.TOL_FLOOR_F32, max_iters=m),
                          workspace=w)
        assert h.converged and w.rows()[0] is None
        true = float(np.linalg.norm(b - op.apply(x)))
        assert abs(true - h.norms[-1]) <= 0.1 * h.norms[-1]

    @pytest.mark.parametrize("seed", [2, 3])
    def test_a_stalled_solve_keeps_its_true_residual(self, seed):
        # "late-stall" at n = 200 stalls after 22 (seed 2) and 20 (seed 3)
        # residual-basis steps: the float64 P rows are rebuilt from the
        # replayed residuals and the solve goes on in the direction basis.
        # A workspace that can evict (max_iters one above its capacity)
        # builds directions in float32 rows from the start; the rebuild
        # gives its P rows only if the replay forms each r_t with the loop's
        # own float64 products, and then the rest of the solve, and its
        # iterate, are the same bytes. The gap between the true and the
        # recorded residual is 4.0e-9 and 5.7e-10 of ||b||, measured,
        # against the tenth of TOL_FLOOR_F32 ||b|| that the floor allows.
        n = 200
        op, b = _workspace_problem("late-stall", n, seed)
        runs = []
        for extra in (0, 1):
            w = WindowPair(n, np.float32)
            opts = LinearOptions(tol_rel=linear.TOL_FLOOR_F32, max_iters=n + extra)
            runs.append(_run(op, b, n, opts, workspace=w) + (w.rows()[0] is not None,))
        (x, h, stalled), (x_db, h_db, _) = runs
        assert h.converged and stalled
        gap = abs(float(np.linalg.norm(b - op.mat @ x)) - h.norms[-1])
        assert gap <= 0.1 * linear.TOL_FLOOR_F32 * float(np.linalg.norm(b))
        assert h.resnorms().tobytes() == h_db.resnorms().tobytes()
        assert x.tobytes() == x_db.tobytes()

    def test_the_exit_sum_is_the_direction_basis_iterate_to_rounding(self):
        # Without a stall the iterate is summed from the residuals at exit;
        # formed from float64 products of the float32 rows, it is the
        # direction basis's to float64 rounding (1e-16 of ||x||, measured),
        # where float32 products left it 2.6e-7 away.
        op, b = make_linear_problem("nonsymmetric", 60, seed=1)
        runs = [_run(op, b, 60, LinearOptions(tol_rel=linear.TOL_FLOOR_F32, max_iters=60 + extra),
                     workspace=WindowPair(60, np.float32)) for extra in (0, 1)]
        (x_rb, h_rb), (x_db, h_db) = runs
        assert h_rb.converged and h_rb.norms == h_db.norms
        assert np.linalg.norm(x_rb - x_db) <= 1e-13 * np.linalg.norm(x_db)

    def test_a_direction_at_float32_rounding_collapses(self):
        # On the rank-5 operator the fifth direction's scale is 1.4e-6,
        # against 0.017 to 2.2 for the first four. In float32 rows b V
        # rounds v' by about sqrt(k) u32 ||b||, a fifth of that, so it falls
        # under BREAKDOWN_TOL_F32 and collapses; float64 rows take it. Both
        # end at the same true residual, 0.99507 ||b||, as recorded.
        op, b = _rank_five_problem(200)
        opts = LinearOptions(tol_rel=0.5, max_iters=20)
        steps = []
        for dtype in (np.float64, np.float32):
            x, h = _run(op, b, 20, opts, workspace=WindowPair(20, dtype))
            true = float(np.linalg.norm(b - op.mat @ x))
            assert h.breakdown and abs(true - h.norms[-1]) <= 1e-9 * np.linalg.norm(b)
            steps.append(h.iterations)
        assert steps == [5, 4]
