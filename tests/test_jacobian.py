import numpy as np
import pytest

from nltgcr import (
    BratuProblem,
    JvProbe,
    NonlinearProblem,
    descent_check,
    frechet_jv,
    make_linear_problem,
)


def _affine_problem(n=8, seed=0):
    op, b = make_linear_problem("nonsymmetric", n, seed=seed)
    return NonlinearProblem(
        dim=n,
        eval_f=lambda x: op.mat @ x - b,
        exact_jv=lambda x, p: op.mat @ p,
    ), op.mat, b


class TestFrechetJv:
    def test_affine_problem_recovers_matrix_action(self):
        prob, A, b = _affine_problem()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        p = rng.standard_normal(8)
        jv, fev = frechet_jv(prob, x, p, prob.eval_f(x), JvProbe())
        assert fev == 1
        truth = A @ p
        assert np.linalg.norm(jv - truth) <= 1e-6 * np.linalg.norm(truth)

    def test_componentwise_square_matches_analytic_jacobian(self):
        # f(x) = (x1^2, x2^2) has J = diag(2 x); at x = (1, 2), p = (1, 0)
        # the product is (2, 0) up to O(eps).
        prob = NonlinearProblem(dim=2, eval_f=lambda x: x * x)
        x = np.array([1.0, 2.0])
        jv, fev = frechet_jv(prob, x, np.array([1.0, 0.0]), x * x, JvProbe())
        assert fev == 1
        np.testing.assert_allclose(jv, [2.0, 0.0], atol=1e-5)

    def test_bratu_probe_agrees_with_exact_jacobian(self):
        bp = BratuProblem(grid_n=12)
        prob = bp.problem()
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = 0.2 * rng.standard_normal(bp.dim)
            p = rng.standard_normal(bp.dim)
            jv, _ = frechet_jv(prob, u, p, prob.eval_f(u), JvProbe())
            truth = bp.jv(u, p)
            assert np.linalg.norm(jv - truth) <= 1e-6 * np.linalg.norm(truth)

    def test_exact_mode_costs_nothing(self):
        prob, A, b = _affine_problem()
        x = np.zeros(8)
        jv, fev = frechet_jv(prob, x, np.ones(8), prob.eval_f(x), JvProbe(mode="exact"))
        assert fev == 0
        np.testing.assert_allclose(jv, A @ np.ones(8), atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exact_mode_non_finite_product_rejected(self, bad):
        from nltgcr import NonFiniteError

        prob = NonlinearProblem(dim=2, eval_f=lambda x: x, exact_jv=lambda x, p: np.array([1.0, bad]))
        with pytest.raises(NonFiniteError, match="not finite"):
            frechet_jv(prob, np.ones(2), np.ones(2), np.ones(2), JvProbe(mode="exact"))

    def test_zero_direction_rejected(self):
        prob = NonlinearProblem(dim=2, eval_f=lambda x: x)
        with pytest.raises(ValueError, match="zero direction"):
            frechet_jv(prob, np.ones(2), np.zeros(2), np.ones(2), JvProbe())

    def test_non_finite_shifted_value_rejected(self):
        from nltgcr import NonFiniteError

        def f(x):
            out = x.copy()
            if np.abs(x).max() > 1.0:
                out[0] = np.nan
            return out

        prob = NonlinearProblem(dim=1, eval_f=f)
        x = np.array([1.0])
        with pytest.raises(NonFiniteError, match="not finite"):
            frechet_jv(prob, x, np.array([1e9]), f(x), JvProbe())


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3])
    def test_overflowing_sum_of_squares_is_not_non_finite(self, bad, where):
        # f(x) = 1e200 + x: its sum of squares overflows, yet every entry of
        # the shifted value is finite, so the probe goes through; a NaN or
        # inf entry in the shifted value still raises.
        from nltgcr import NonFiniteError

        def f(x):
            out = 1e200 + x
            if bad is not None and x[0] != 0.0:
                out[where] = bad
            return out

        prob = NonlinearProblem(dim=4, eval_f=f)
        x = np.zeros(4)
        p = np.array([1.0, 0.0, 0.0, 0.0])
        if bad is None:
            jv, fev = frechet_jv(prob, x, p, f(x), JvProbe())
            assert fev == 1 and np.all(np.isfinite(jv))
        else:
            with pytest.raises(NonFiniteError, match="not finite"):
                frechet_jv(prob, x, p, f(x), JvProbe())


class TestDescentCheck:
    def test_identity_map_negated_direction_is_descent(self):
        # f(x) = x, r = -x, d = -x at x = (1, 1): <r, J d> = <x, x> = 2.
        prob = NonlinearProblem(dim=2, eval_f=lambda x: x)
        x = np.array([1.0, 1.0])
        val, fev = descent_check(prob, x, -x, -x, JvProbe())
        assert fev == 1
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_orthogonal_direction_gives_near_zero(self):
        # Explicit 2x2 Jacobian: pick d orthogonal to J^T r.
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        prob = NonlinearProblem(dim=2, eval_f=lambda x: A @ x)
        x = np.array([0.3, -0.7])
        r = -prob.eval_f(x)
        w = A.T @ r
        d = np.array([-w[1], w[0]])  # orthogonal to J^T r
        val, _ = descent_check(prob, x, r, d, JvProbe())
        assert abs(val) <= 1e-6 * np.linalg.norm(r) * np.linalg.norm(d)

    def test_bratu_first_step_direction_is_descent(self):
        from nltgcr import EvalCounter

        bp = BratuProblem(grid_n=10)
        prob = bp.problem()
        ev = EvalCounter(prob)
        x = np.ones(bp.dim)
        fx = ev.f(x)
        r = -fx
        v = ev.jv(x, r, fx)
        p = r / np.linalg.norm(v)
        vn = v / np.linalg.norm(v)
        d = float(vn @ r) * p
        val, _ = descent_check(prob, x, r, d, JvProbe())
        assert val > 0.0
