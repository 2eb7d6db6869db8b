import numpy as np
import pytest

from nltgcr import (
    LinearOperator,
    LinearOptions,
    WindowPair,
    build_B_matrix,
    build_H_matrix,
    check_semiconjugacy,
    cr_solve,
    gcr_solve,
    induced_inverse_checks,
    make_linear_problem,
    reconstruction_defects,
    tgcr_solve,
)


def _run_gcr(kind="nonsymmetric", n=10, seed=0, steps=None, tol=1e-10):
    op, b = make_linear_problem(kind, n, seed=seed)
    opts = LinearOptions(tol_rel=tol, max_iters=steps or 5 * n)
    x, h = gcr_solve(op, b, np.zeros(n), opts)
    return op, b, h


class TestBMatrix:
    def test_single_direction_gives_unit_scalar(self):
        op, b, h = _run_gcr(n=6, steps=1)
        B = build_B_matrix(h)
        np.testing.assert_array_equal(B, np.eye(1))

    def test_residuals_factor_through_directions(self):
        op, b, h = _run_gcr(n=10, seed=5, steps=3)
        B = build_B_matrix(h)
        k = len(h.scales) - 1
        R = np.stack(h.R[: k + 1], axis=1)
        defect = np.abs(R - (h.window.p_matrix() * h.scales) @ B).max()
        assert defect <= 1e-10

    def test_symmetric_operator_kills_older_coefficients(self):
        # Only the immediately preceding column couples: entries above the
        # first superdiagonal vanish.
        op, b, h = _run_gcr(kind="spd", n=12, seed=2)
        B = build_B_matrix(h)
        above = np.triu(B, k=2)
        assert np.abs(above).max() <= 1e-10

    def test_truncated_history_rejected(self):
        op, b = make_linear_problem("nonsymmetric", 12, seed=1)
        _, h = tgcr_solve(op, b, np.zeros(12), m=2)
        assert h.truncated
        with pytest.raises(ValueError, match="untruncated"):
            build_B_matrix(h)

    def test_evicted_direction_rejected(self):
        # Three eigenvalues, m = 2: the third direction's push, the solve's
        # last, evicts the first, and that push alone marks it truncated.
        op = LinearOperator.from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
        b = np.random.default_rng(0).standard_normal(6)
        _, h = tgcr_solve(op, b, np.zeros(6), m=2)
        assert h.truncated and len(h.scales) > len(h.window)
        with pytest.raises(ValueError, match="untruncated"):
            reconstruction_defects(h, op)


class TestHMatrix:
    def test_single_step_column(self):
        # One step with alpha = 2 must produce the column (0.5, -0.5).
        A = np.eye(3) * 0.5  # alpha_un = <r, v~>/s with A = c I: alpha_un = 1/c
        op = LinearOperator.from_matrix(A, is_symmetric=True)
        b = np.array([1.0, 0.0, 0.0])
        _, h = gcr_solve(op, b, np.zeros(3), LinearOptions(max_iters=1))
        H = build_H_matrix(h)
        assert H.shape == (2, 1)
        np.testing.assert_allclose(H[:, 0], [0.5, -0.5], atol=1e-14)

    def test_ap_factors_through_residuals(self):
        op, b, h = _run_gcr(n=8, seed=3)
        err_b, err_h = reconstruction_defects(h, op)
        assert err_b <= 1e-10
        assert err_h <= 1e-10

    def test_untruncated_tgcr_history_reconstructs(self):
        # A window of m >= the directions built never evicts: TGCR is GCR.
        op, b = make_linear_problem("nonsymmetric", 12, seed=1)
        _, h = tgcr_solve(op, b, np.zeros(12), m=40)
        assert not h.truncated and len(h.window) == len(h.scales)
        err_b, err_h = reconstruction_defects(h, op)
        assert err_b <= 1e-10
        assert err_h <= 1e-10

    def test_symmetric_product_is_lower_bidiagonal(self):
        op, b, h = _run_gcr(kind="spd", n=10, seed=4)
        k = len(h.scales) - 1
        R = np.stack(h.R[: k + 1], axis=1)
        AP = h.window.v_matrix() * h.scales
        AR = op.mat @ R
        M = AR.T @ AP
        off = M - np.diag(np.diag(M)) - np.diag(np.diag(M, k=-1), k=-1)
        assert np.abs(off).max() <= 1e-10


class TestSemiConjugacy:
    def test_single_residual_has_no_violation(self):
        op, b, h = _run_gcr(n=5, steps=0, tol=1e30)
        rep = check_semiconjugacy(h, op)
        assert rep.lower_violation == 0.0

    def test_nonsymmetric_lower_triangle_vanishes(self):
        op, b, h = _run_gcr(kind="nonsymmetric", n=15, seed=6)
        rep = check_semiconjugacy(h, op)
        assert rep.lower_violation <= 1e-10
        assert rep.offdiag_violation is None

    def test_symmetric_residuals_are_conjugate(self):
        op, b, h = _run_gcr(kind="spd", n=15, seed=7)
        rep = check_semiconjugacy(h, op)
        assert rep.offdiag_violation is not None
        assert rep.offdiag_violation <= 1e-10


class TestInducedInverse:
    def test_full_space_recovers_the_inverse(self):
        n = 8
        op, b, h = _run_gcr(kind="spd", n=n, seed=8, tol=1e-14)
        k = len(h.scales) - 1
        assert k == n - 1
        Bk = h.window.p_matrix() @ h.window.v_matrix().T
        assert np.abs(op.mat @ Bk - np.eye(n)).max() <= 1e-8

    def test_projector_identities_hold_midway(self):
        op, b, h = _run_gcr(kind="nonsymmetric", n=12, seed=9, steps=5)
        rep = induced_inverse_checks(h, op, k=4)
        assert rep.max_deviation() <= 1e-9

    def test_left_inverse_on_direction_span(self):
        op, b, h = _run_gcr(kind="nonsymmetric", n=12, seed=10, steps=6)
        rng = np.random.default_rng(0)
        P = h.window.p_matrix()
        V = h.window.v_matrix()
        BA = (P @ V.T) @ op.mat
        xp = P @ rng.standard_normal(P.shape[1])
        assert np.abs(BA @ xp - xp).max() <= 1e-10


HISTORY_CHECKS = {
    "build_B_matrix": lambda h, op: build_B_matrix(h),
    "build_H_matrix": lambda h, op: build_H_matrix(h),
    "reconstruction_defects": reconstruction_defects,
    "check_semiconjugacy": check_semiconjugacy,
    "induced_inverse_checks": induced_inverse_checks,
}


# A workspace history keeps no vectors and a CR history no window; CR keeps
# R, all that check_semiconjugacy reads.
@pytest.mark.parametrize(
    "source, check",
    [("workspace", c) for c in HISTORY_CHECKS]
    + [("cr", c) for c in HISTORY_CHECKS if c != "check_semiconjugacy"],
)
def test_history_without_vectors_rejected(source, check):
    op, b = make_linear_problem("spd", 10, seed=0)
    if source == "cr":
        _, h = cr_solve(op, b, np.zeros(10))
    else:
        _, h = tgcr_solve(op, b, np.zeros(10), m=2, opts=LinearOptions(max_iters=30),
                          workspace=WindowPair(2))
        assert h.iterations > 2
    with pytest.raises(ValueError, match="keeps no"):
        HISTORY_CHECKS[check](h, op)
