import hashlib
import warnings

import numpy as np
import pytest

from nltgcr import (
    BratuProblem,
    EvalCounter,
    LennardJonesProblem,
    LinearOperator,
    LinearOptions,
    SolverOptions,
    logreg_make_synthetic,
    make_linear_problem,
    nltgcr_solve,
    tgcr_solve,
)
from nltgcr.problems import LogRegProblem
from oracles import bisect_scalar, central_diff_gradient, rerun_iterates


class TestBratu:
    def test_zero_field_gives_constant_source(self):
        bp = BratuProblem(grid_n=8, lam=0.5)
        f = bp.f(np.zeros(bp.dim))
        np.testing.assert_allclose(f, 0.5 * np.ones(bp.dim), atol=1e-14)

    def test_single_point_grid_matches_bisection_root(self):
        bp = BratuProblem(grid_n=1, lam=0.5)
        h = bp.h
        scalar = lambda u: -4.0 * u / h**2 + 0.5 * np.exp(u)
        root = bisect_scalar(scalar, 0.0, 1.0)
        prob = bp.problem()
        x, trace = nltgcr_solve(
            prob, np.zeros(1),
            SolverOptions(tol_rel=1e-12, max_iters=50, restart_every=None),
        )
        assert abs(x[0] - root) <= 1e-10

    def test_lambda_zero_matches_linear_solver_iterates(self):
        bp = BratuProblem(grid_n=8, lam=0.0)
        prob = bp.problem()
        n = bp.dim
        xs = []
        opts = SolverOptions(window_m=2, tol_rel=1e-10, max_iters=100, restart_every=None)
        nltgcr_solve(prob, np.ones(n), opts, exact_jv=True,
                     observer=lambda s: xs.append(s["x"].copy()))
        # f(u) = L u is linear, so the run must match the linear solver on L.
        op = LinearOperator(dim=n, apply=lambda v: bp.jv(np.zeros(n), v), is_symmetric=True)

        def solve(max_iters):
            return tgcr_solve(op, np.zeros(n), np.ones(n), m=2,
                              opts=LinearOptions(tol_rel=1e-10, max_iters=max_iters))

        x_lin = rerun_iterates(solve, np.ones(n), solve(100)[1].iterations)
        k = min(len(xs), len(x_lin) - 1)
        assert k > 3
        for j in range(k):
            assert np.abs(xs[j] - x_lin[j + 1]).max() <= 1e-9

    def test_exact_jv_matches_hand_stencil_column(self):
        bp = BratuProblem(grid_n=3, lam=0.5)
        h2 = bp.h * bp.h
        e4 = np.zeros(9)
        e4[4] = 1.0  # center point of the 3x3 grid
        col = bp.jv(np.zeros(9), e4)
        expected = np.zeros(9)
        expected[4] = -4.0 / h2 + 0.5
        for nb in (1, 3, 5, 7):
            expected[nb] = 1.0 / h2
        np.testing.assert_allclose(col, expected, atol=1e-12)

    def test_jacobian_symmetry(self):
        bp = BratuProblem(grid_n=10)
        rng = np.random.default_rng(0)
        u = 0.3 * rng.standard_normal(bp.dim)
        for _ in range(5):
            p = rng.standard_normal(bp.dim)
            q = rng.standard_normal(bp.dim)
            lhs = float(bp.jv(u, p) @ q)
            rhs = float(p @ bp.jv(u, q))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_exp_overflow_rejected(self):
        bp = BratuProblem(grid_n=4)
        with pytest.raises(ValueError, match="overflow"):
            bp.f(np.full(bp.dim, 1e3))

    def test_objective_rejects_overflow_without_a_numpy_warning(self):
        # The range check must fire before exp(750) overflows.
        pm = BratuProblem(grid_n=5).minimization_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exp overflow"):
                pm.eval_phi(np.full(25, 750.0))

    def test_minimization_form_gradient_is_negated_residual(self):
        bp = BratuProblem(grid_n=6)
        pm = bp.minimization_problem()
        rng = np.random.default_rng(1)
        u = 0.2 * rng.standard_normal(bp.dim)
        np.testing.assert_allclose(pm.eval_f(u), -bp.f(u), atol=1e-14)
        fd = central_diff_gradient(pm.eval_phi, u, eps=1e-6)
        np.testing.assert_allclose(pm.eval_f(u), fd, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_minimization_form_is_the_negated_residual_to_the_bit(self, scaled, lam):
        # The sign rides on the row scale's multiply; on u and p with +0 and
        # -0 entries (and lam = 0, where f(0) = 0 and its negation is -0)
        # the bytes must be those of negating f and J p.
        bp = BratuProblem(grid_n=7, lam=lam, scaled=scaled)
        pm = bp.minimization_problem()
        rng = np.random.default_rng(2)
        for u in (0.3 * rng.standard_normal(bp.dim), np.zeros(bp.dim)):
            p = rng.standard_normal(bp.dim)
            u[::3], u[1::3], p[::4], p[1::4] = 0.0, -0.0, 0.0, -0.0
            assert pm.eval_f(u).tobytes() == (-bp.f(u)).tobytes()
            assert pm.exact_jv(u, p).tobytes() == (-bp.jv(u, p)).tobytes()

    @staticmethod
    def _signed_zero_point(dim):
        rng = np.random.default_rng(3)
        u = 0.3 * rng.standard_normal(dim)
        p = rng.standard_normal(dim)
        u[::3], u[1::3], p[::4], p[1::4] = 0.0, -0.0, 0.0, -0.0
        return u, p

    def test_unscaled_bytes_are_pinned(self):
        # The first 16 hex digits of the sha256 of f(u), J p and their
        # minimization-form negations, on x86-64 (exp's last bit comes from
        # numpy's build). The unscaled form divides its stencil by h^2.
        bp = BratuProblem(grid_n=9, lam=0.5)
        pm = bp.minimization_problem()
        u, p = self._signed_zero_point(bp.dim)
        h = hashlib.sha256()
        for out in (bp.f(u), bp.jv(u, p), pm.eval_f(u), pm.exact_jv(u, p)):
            h.update(out.tobytes())
        assert h.hexdigest()[:16] == "70a6f6bb96b4f3c0"

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
    def test_scaled_form_is_h2_times_the_unscaled_within_rounding(self, lam):
        # With s the float stencil sum (the same bytes in both forms),
        # E = fl(e^u), hh = fl(h^2) and c = fl(hh lam), and every fl() a
        # factor (1 + d) with |d| <= u:
        #   hh f = (s (1+d1) + hh lam E (1+d2)) (1+d3)     (s / hh, lam E, +)
        #   g    = (s + hh lam E (1+d4)(1+d5)) (1+d6)       (c, c E, +)
        # so |g - hh f| <= 3u |s| + 5u c E to first order, and forming hh f
        # in floats adds u |hh f|: 4u |s| + 6u c E. Jv multiplies by p once
        # more on each side: 4u |S p| + 8u c E |p|. 10u (|S| + c E) bounds
        # both with room for the second-order terms.
        unit = np.finfo(float).eps / 2
        raw = BratuProblem(grid_n=9, lam=lam)
        scaled = BratuProblem(grid_n=9, lam=lam, scaled=True)
        stencil = BratuProblem(grid_n=9, lam=0.0, scaled=True)  # f = s exactly
        hh, c = scaled.h * scaled.h, scaled.h * scaled.h * lam
        for u, p in (self._signed_zero_point(raw.dim), (np.full(raw.dim, 2.0), np.ones(raw.dim))):
            ce = c * np.exp(u)
            cases = ((scaled.f(u), raw.f(u), np.abs(stencil.f(u)) + ce),
                     (scaled.jv(u, p), raw.jv(u, p), np.abs(stencil.jv(u, p)) + ce * np.abs(p)))
            for g, f, size in cases:
                assert np.all(np.abs(g - hh * f) <= 10 * unit * size)


class TestLennardJones:
    def test_two_atoms_at_minimum_distance(self):
        # The pair energy minimum sits at 2^(1/6) with value -1 and zero force.
        from nltgcr.kernels import lj_energy, lj_gradient

        pos = np.zeros((2, 3))
        pos[1, 0] = 2.0 ** (1.0 / 6.0)
        assert lj_energy(pos) == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(lj_gradient(pos)).max() <= 1e-12

    def test_two_atoms_at_unit_distance_zero_energy(self):
        from nltgcr.kernels import lj_energy

        pos = np.zeros((2, 3))
        pos[1, 2] = 1.0
        assert lj_energy(pos) == pytest.approx(0.0, abs=1e-14)

    def test_gradient_matches_central_differences(self):
        prob = LennardJonesProblem(cells_per_side=2, rng_seed=3)
        x = prob.initial_positions()
        fd = central_diff_gradient(prob.energy, x, eps=1e-6)
        g = prob.gradient(x)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)

    def test_energy_translation_invariant_and_gradient_sums_to_zero(self):
        prob = LennardJonesProblem(cells_per_side=2, rng_seed=4)
        x = prob.initial_positions()
        shift = np.tile([0.7, -1.3, 2.1], prob.atoms)
        assert prob.energy(x + shift) == pytest.approx(prob.energy(x), abs=1e-10)
        g = prob.gradient(x).reshape(-1, 3)
        np.testing.assert_allclose(g.sum(axis=0), np.zeros(3), atol=1e-8)

    @pytest.mark.parametrize("quantity", ["energy", "gradient"])
    @pytest.mark.parametrize("gap", [0.0, 0.5e-8])
    def test_coincident_atoms_rejected(self, quantity, gap):
        # The guard sits in the pair pass both kernels share; the limit is
        # a pair distance of 1e-8.
        prob = LennardJonesProblem(cells_per_side=1)
        x = prob.initial_positions()
        x[3:6] = x[0:3]
        x[3] += gap
        with pytest.raises(ValueError, match="coincident"):
            getattr(prob, quantity)(x)

    @pytest.mark.parametrize("quantity", ["energy", "gradient"])
    def test_close_atoms_above_limit_accepted(self, quantity):
        prob = LennardJonesProblem(cells_per_side=1)
        x = prob.initial_positions()
        x[3:6] = x[0:3]
        x[3] += 2e-8
        assert np.all(np.isfinite(getattr(prob, quantity)(x)))

    def test_fcc_init_deterministic_and_counts(self):
        prob = LennardJonesProblem(cells_per_side=3, rng_seed=11)
        a = prob.initial_positions()
        b = prob.initial_positions()
        assert prob.atoms == 108
        assert a.shape == (324,)
        np.testing.assert_array_equal(a, b)
        c = prob.initial_positions(seed=12)
        assert np.abs(a - c).max() > 0

    def test_unperturbed_lattice_energy_finite_and_negative(self):
        prob = LennardJonesProblem(cells_per_side=2, perturbation_scale=0.0)
        x = prob.initial_positions()
        e = prob.energy(x)
        assert np.isfinite(e)
        assert e < 0

    def test_reference_cluster_energy(self):
        # The documented-seed 108-atom run lands on the known local minimum
        # near -579.4638.
        from nltgcr import LineSearchOptions

        prob = LennardJonesProblem(cells_per_side=3, perturbation_scale=0.05, rng_seed=7)
        opts = SolverOptions(
            window_m=10, tol_rel=1e-6, max_iters=1000, restart_every=None,
            linesearch=LineSearchOptions(),
        )
        x, _ = nltgcr_solve(prob.problem(), prob.initial_positions(), opts)
        e = prob.energy(x)
        assert -579.47 <= e <= -579.40

    def test_small_cluster_minimization(self):
        prob = LennardJonesProblem(cells_per_side=2, rng_seed=5)
        pb = prob.problem()
        x0 = prob.initial_positions()
        from nltgcr import LineSearchOptions

        opts = SolverOptions(
            window_m=5, tol_rel=1e-7, max_iters=400, restart_every=None,
            linesearch=LineSearchOptions(),
        )
        x, trace = nltgcr_solve(pb, x0, opts)
        assert prob.energy(x) < prob.energy(x0)
        assert np.abs(prob.gradient(x)).max() <= 1e-3


class TestLogReg:
    def test_gradient_at_zero_matches_hand_formula(self):
        X = np.array([[1.0, 2.0], [0.5, -1.0], [-2.0, 0.3]])
        y = np.array([1.0, -1.0, 1.0])
        prob = LogRegProblem(X=X, y=y, lambda_reg=0.0)
        # At theta = 0 the sigmoid is 1/2: grad = -(1/2N) sum y_i x_i.
        expected = -(X.T @ y) / (2.0 * 3.0)
        np.testing.assert_allclose(prob.grad(np.zeros(2)), expected, atol=1e-14)

    def test_strong_regularization_shrinks_minimizer(self):
        lr = logreg_make_synthetic(n_samples=60, n_features=5, seed=6, lambda_reg=100.0)
        x, trace = nltgcr_solve(
            lr.problem(), np.zeros(5),
            SolverOptions(window_m=5, tol_rel=1e-10, max_iters=100, restart_every=None),
        )
        assert np.linalg.norm(x) <= 0.05

    def test_gradient_matches_finite_differences(self):
        lr = logreg_make_synthetic(n_samples=40, n_features=6, seed=7)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(6)
        fd = central_diff_gradient(lr.phi, theta)
        np.testing.assert_allclose(lr.grad(theta), fd, rtol=1e-6, atol=1e-9)

    def test_jv_matches_frechet_and_is_spd(self):
        lr = logreg_make_synthetic(n_samples=50, n_features=8, seed=9)
        prob = lr.problem()
        rng = np.random.default_rng(10)
        theta = 0.1 * rng.standard_normal(8)
        for _ in range(3):
            p = rng.standard_normal(8)
            assert float(p @ lr.jv(theta, p)) > 0.0
            jv_fd = EvalCounter(prob).jv(theta, p, -lr.grad(theta))
            assert np.linalg.norm(jv_fd - lr.jv(theta, p)) <= 1e-5 * np.linalg.norm(p)

    def test_synthetic_generator_deterministic(self):
        a = logreg_make_synthetic(n_samples=30, n_features=4, seed=11)
        b = logreg_make_synthetic(n_samples=30, n_features=4, seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="labels"):
            LogRegProblem(X=np.ones((2, 2)), y=np.array([0.0, 1.0]))

    def test_nltgcr_beats_ncg_on_synthetic_set(self):
        from nltgcr import ncg_fr_solve

        lr = logreg_make_synthetic(n_samples=400, n_features=60, seed=12)
        prob = lr.problem()
        rng = np.random.default_rng(12)
        x0 = 1e-6 * rng.standard_normal(60)
        g0 = np.linalg.norm(lr.grad(x0))
        tol = 1e-6 / g0  # stop both at ||grad|| <= 1e-6 absolute
        opts = SolverOptions(window_m=10, tol_rel=tol, max_iters=400, restart_every=None)
        _, tr_nl = nltgcr_solve(prob, x0, opts)
        _, tr_ncg = ncg_fr_solve(prob, x0, SolverOptions(tol_rel=tol, max_iters=2000))
        fe_nl = tr_nl.fevals_to_relative(tol)
        fe_ncg = tr_ncg.fevals_to_relative(tol)
        assert fe_nl is not None
        assert fe_ncg is None or fe_nl < fe_ncg


class TestLinearFixtures:
    def test_spd_operator_is_positive_definite(self):
        op, b = make_linear_problem("spd", 12, seed=13)
        np.linalg.cholesky(op.mat)

    def test_nonsymmetric_has_positive_definite_symmetric_part(self):
        op, b = make_linear_problem("nonsymmetric", 12, seed=14)
        sym = 0.5 * (op.mat + op.mat.T)
        eigs = np.linalg.eigvalsh(sym)
        assert eigs.min() > 0

    def test_indefinite_has_mixed_signs(self):
        op, b = make_linear_problem("indefinite", 12, seed=15)
        eigs = np.linalg.eigvalsh(op.mat)
        assert eigs.min() < 0 < eigs.max()

    def test_seeded_fixture_reproducible(self):
        a, ba = make_linear_problem("spd", 9, seed=16)
        b, bb = make_linear_problem("spd", 9, seed=16)
        np.testing.assert_array_equal(a.mat, b.mat)
        np.testing.assert_array_equal(ba, bb)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_linear_problem("bogus", 4, seed=0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BratuProblem(grid_n=0), "grid_n must be >= 1, got 0"),
        (lambda: BratuProblem(grid_n=-3), "grid_n must be >= 1, got -3"),
        (lambda: LennardJonesProblem(cells_per_side=0), "cells_per_side must be >= 1, got 0"),
        (lambda: logreg_make_synthetic(n_samples=0), "n_samples must be >= 1, got 0"),
        (lambda: logreg_make_synthetic(n_features=0), "n_features must be >= 1, got 0"),
    ],
    ids=["bratu-0", "bratu-neg", "lj-0", "logreg-samples", "logreg-features"],
)
def test_problem_sizes_below_one_rejected(make, message):
    # An empty grid, cluster or data set has nothing to solve: each used
    # to surface later as a cryptic failure inside a solve.
    with pytest.raises(ValueError, match=message):
        make()
