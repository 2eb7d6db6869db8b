import numpy as np
import pytest

from nltgcr import (
    EvalCounter,
    LineSearchOptions,
    NonlinearProblem,
    NotDescentError,
    backtrack,
    backtrack_linearized,
    update_alpha0,
)
from nltgcr.linesearch import backtrack_phi, sufficient_decrease


class TestBacktrack:
    def test_identity_accepts_full_step(self):
        # f(x) = x, x = 1, d = -1, slope = 1: the full step lands on zero.
        opts = LineSearchOptions()
        res = backtrack(lambda x: x, np.array([1.0]), np.array([-1.0]), np.array([-1.0]), 1.0, opts)
        assert res.satisfied
        assert res.steps == 1
        assert res.alpha == 1.0
        np.testing.assert_allclose(res.f_new, [0.0], atol=1e-15)

    def test_overshooting_cubic_backtracks_then_satisfies(self):
        # Scalar cubic around its root at 1: the unit step from x = 2
        # overshoots badly, so alpha < 1 at acceptance.
        def f(x):
            return x**3 - 1.0

        x = np.array([1.2])
        r = -f(x)
        d = np.array([-1.0])  # roughly 6x the Newton step: overshoots
        slope = float(r @ (3.0 * x**2 * d))  # exact <r, J d> > 0
        opts = LineSearchOptions()
        res = backtrack(f, x, d, r, slope, opts)
        assert res.satisfied
        assert res.steps > 1
        assert res.alpha < 1.0
        # Re-check the accepted condition verbatim.
        assert sufficient_decrease(
            float(res.f_new @ res.f_new), float(r @ r), res.alpha, slope, opts.c1
        )
        # Brute force over the alpha grid: the accepted alpha is the first
        # (largest) grid point satisfying the condition.
        alpha = opts.alpha0
        for _ in range(opts.max_backtracks):
            ft = f(x + alpha * d)
            if float(ft @ ft) <= float(r @ r) - 2 * opts.c1 * alpha * slope:
                break
            alpha *= opts.tau
        assert res.alpha == pytest.approx(alpha)

    def test_non_positive_slope_rejected(self):
        with pytest.raises(NotDescentError):
            backtrack(lambda x: x, np.ones(1), np.ones(1), -np.ones(1), 0.0, LineSearchOptions())

    def test_exhausted_backtracks_return_best_seen(self):
        # f grows along d no matter the step: never satisfiable.
        def f(x):
            return x + 1.0

        opts = LineSearchOptions(max_backtracks=5)
        res = backtrack(f, np.zeros(1), np.ones(1), -f(np.zeros(1)), 1.0, opts)
        assert not res.satisfied
        assert res.steps == 5

    def test_accepted_step_never_increases_residual(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = rng.integers(1, 4)
            A = rng.standard_normal((n, n)) + 2 * np.eye(n)
            b = rng.standard_normal(n)

            def f(x):
                return A @ x - b

            x = rng.standard_normal(n)
            r = -f(x)
            d = np.linalg.solve(A, r)  # Newton direction
            slope = float(r @ (A @ d))
            if slope <= 0:
                continue
            res = backtrack(f, x, d, r, slope, LineSearchOptions())
            if res.satisfied:
                assert np.linalg.norm(res.f_new) <= np.linalg.norm(r) + 1e-14

    def test_evaluation_failures_shrink_instead_of_crashing(self):
        def f(x):
            if np.abs(x).max() > 1.5:
                raise ValueError("out of range")
            return x

        res = backtrack(f, np.array([1.0]), np.array([-2.0]), np.array([-1.0]), 1.0, LineSearchOptions())
        assert res.satisfied

    def test_failed_trial_counts_as_a_step(self):
        # f is not finite left of -0.5: EvalCounter charges the trials at
        # a = 1 and 0.8 and raises, and the search accepts a = 0.64. Every
        # charged trial is a step.
        def f(x):
            return np.array([np.nan]) if x[0] < -0.5 else x

        ev = EvalCounter(NonlinearProblem(dim=1, eval_f=f))
        res = backtrack(ev.f, np.array([1.0]), np.array([-2.0]), np.array([-1.0]), 1.0,
                        LineSearchOptions())
        assert res.satisfied
        assert res.steps == ev.count == 3

    def test_every_trial_failing_raises_the_last_error(self):
        calls = []

        def f(x):
            calls.append(x)
            raise ValueError(f"trial {len(calls)}")

        with pytest.raises(ValueError, match="trial 4"):
            backtrack(f, np.zeros(1), np.ones(1), -np.ones(1), 1.0,
                      LineSearchOptions(max_backtracks=4))
        assert len(calls) == 4


class TestBacktrackLinearized:
    def test_orthonormal_model_accepts_first_step(self):
        # With Vy built from an orthonormal window, ||r - a V y||^2 meets the
        # condition at any a <= 1, so the first trial is accepted free.
        rng = np.random.default_rng(1)
        r = rng.standard_normal(6)
        V, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        y = V.T @ r
        res = backtrack_linearized(r, V @ y, float(y @ y), LineSearchOptions(), rnorm2=float(r @ r))
        assert res.satisfied and res.steps == 1 and res.alpha == 1.0
        assert res.f_new.tobytes() == (r - res.alpha * (V @ y)).tobytes()
        assert res.merit == float(res.f_new @ res.f_new)

    def test_exhausted_search_returns_best_trial_residual(self):
        # Vy points away from r: every trial grows the model residual, so
        # the smallest trial alpha wins, with its residual and squared norm.
        r = np.array([1.0, 0.0])
        Vy = np.array([-1.0, 0.0])
        opts = LineSearchOptions(max_backtracks=4)
        res = backtrack_linearized(r, Vy, 1.0, opts, rnorm2=float(r @ r))
        assert not res.satisfied and res.steps == 4
        smallest = opts.alpha0
        for _ in range(3):
            smallest *= opts.tau
        assert res.alpha == smallest
        assert res.f_new.tobytes() == (r - res.alpha * Vy).tobytes()
        assert res.merit == float(res.f_new @ res.f_new)


class TestBacktrackPhi:
    def test_quadratic_bowl_accepts_full_step(self):
        phi = lambda x: 0.5 * float(x @ x)
        x = np.array([2.0, -1.0])
        d = -x
        slope_phi = float(x @ d)  # <grad phi, d> = -||x||^2
        res = backtrack_phi(phi, x, d, phi(x), slope_phi, LineSearchOptions())
        assert res.satisfied and res.alpha == 1.0
        assert res.merit <= phi(x)

    def test_exhausted_search_returns_best_trial(self):
        # phi_x = 0 lies below every trial, so none is accepted. Of the
        # trials a = 1, 0.8, 0.64, 0.512, phi is smallest at a = 0.64, not
        # at the last one.
        def phi(x):
            return float((x[0] - 0.6) ** 2)

        x, d = np.zeros(1), np.ones(1)
        opts = LineSearchOptions(max_backtracks=4)
        res = backtrack_phi(phi, x, d, 0.0, -1.0, opts)
        assert not res.satisfied and res.steps == 4
        assert res.alpha == opts.alpha0 * opts.tau * opts.tau
        assert res.x_new.tobytes() == (x + res.alpha * d).tobytes()
        assert res.merit == phi(res.x_new)

    def test_every_trial_failing_raises_the_last_error(self):
        calls = []

        def phi(x):
            calls.append(x)
            raise ZeroDivisionError(f"trial {len(calls)}")

        with pytest.raises(ZeroDivisionError, match="trial 3"):
            backtrack_phi(phi, np.zeros(1), np.ones(1), 0.0, -1.0,
                          LineSearchOptions(max_backtracks=3))
        assert len(calls) == 3

    def test_positive_slope_rejected(self):
        with pytest.raises(NotDescentError):
            backtrack_phi(lambda x: 0.0, np.zeros(1), np.ones(1), 0.0, 1.0, LineSearchOptions())


class TestUpdateAlpha0:
    def test_one_step_growth_clamped_at_one(self):
        opts = LineSearchOptions(alpha0=1.0)
        assert update_alpha0(opts, 1).alpha0 == 1.0

    def test_one_step_growth_from_half(self):
        opts = LineSearchOptions(alpha0=0.5)
        assert update_alpha0(opts, 1).alpha0 == pytest.approx(0.625)

    def test_multi_step_shrink(self):
        opts = LineSearchOptions(alpha0=0.5)
        assert update_alpha0(opts, 3).alpha0 == pytest.approx(0.4)

    def test_alpha0_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        opts = LineSearchOptions()
        for _ in range(200):
            opts = update_alpha0(opts, int(rng.integers(1, 6)))
            assert 0.0 < opts.alpha0 <= 1.0

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            update_alpha0(LineSearchOptions(), 0)
