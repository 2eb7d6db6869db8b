import dataclasses
import gc
import weakref

import numpy as np
import pytest

import nltgcr.baselines as baselines
from nltgcr import (
    BratuProblem,
    BreakdownError,
    LineSearchOptions,
    NonFiniteError,
    NonlinearProblem,
    NotDescentError,
    SolverOptions,
    aa_solve,
    broyden2_solve,
    lbfgs_solve,
    make_linear_problem,
    ncg_fr_solve,
    nesterov_solve,
    newton_krylov_solve,
    nltgcr_solve,
    secant_property_check,
    WindowPair,
)
from nltgcr.linear import add_direction
from oracles import broyden1_update, central_diff_gradient


def _contraction_problem(n=3, seed=0):
    # f(x) = b - x: the map g = x + beta f contracts toward b for beta in (0, 2).
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    return NonlinearProblem(dim=n, eval_f=lambda x: b - x), b


def _quadratic_bowl(n=6):
    return NonlinearProblem(
        dim=n,
        eval_f=lambda x: x.copy(),
        exact_jv=lambda x, p: p.copy(),
        eval_phi=lambda x: 0.5 * float(x @ x),
    )


def _rosenbrock():
    def phi(z):
        x, y = z
        return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

    def grad(z):
        x, y = z
        return np.array(
            [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]
        )

    return NonlinearProblem(dim=2, eval_f=grad, eval_phi=phi)


class TestAndersonAcceleration:
    def test_linear_contraction_terminates_finitely(self):
        prob, b = _contraction_problem(n=3)
        opts = SolverOptions(tol_rel=1e-10, max_iters=30)
        x, trace = aa_solve(prob, np.zeros(3), m=3, beta=0.5, opts=opts)
        np.testing.assert_allclose(x, b, atol=1e-9)
        assert trace.final().iter <= 6

    def test_window_zero_is_plain_fixed_point(self):
        prob, b = _contraction_problem(n=2, seed=1)
        opts = SolverOptions(tol_rel=1e-3, max_iters=5)
        beta = 0.5
        x, trace = aa_solve(prob, np.zeros(2), m=0, beta=beta, opts=opts)
        # x_{j+1} = x_j + beta (b - x_j) has closed form 1-step values
        expected = np.zeros(2)
        for _ in range(trace.final().iter):
            expected = expected + beta * (b - expected)
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_one_feval_per_iteration(self):
        prob, b = _contraction_problem(n=4, seed=2)
        _, trace = aa_solve(prob, np.zeros(4), m=2, beta=0.3,
                            opts=SolverOptions(tol_rel=1e-12, max_iters=20))
        assert np.all(np.diff(trace.fevals()) == 1)

    def test_constant_f_takes_plain_steps(self):
        # Every df is zero, so every pair collapses and no window forms.
        prob = NonlinearProblem(dim=3, eval_f=lambda x: np.ones(3))
        calls = []
        x, trace = aa_solve(prob, np.zeros(3), m=2, beta=0.5,
                            opts=SolverOptions(max_iters=5), observer=calls.append)
        assert trace.final().iter == 5
        np.testing.assert_array_equal(x, 2.5 * np.ones(3))
        assert calls == []

    @staticmethod
    def _window(rng, k, n):
        """A window refilled as aa_solve refills it, from k random raw
        (dx, df) pairs, newest first; returns it with X and F, oldest first."""
        X, F = rng.standard_normal((n, k)), rng.standard_normal((n, k))
        window = WindowPair(k)
        for i in reversed(range(k)):
            assert add_direction(window, X[:, i], F[:, i], r0_norm=0.0) is not None
        return window, X, F

    @pytest.mark.parametrize("k", [1, 3])
    def test_window_keeps_the_multisecant_identity(self, k):
        # G F = X for G = -beta I + (P + beta V) V^T, which is G V = P.
        window, X, F = self._window(np.random.default_rng(3 + k), k, 8)
        assert secant_property_check(window).secant_max <= 1e-12
        P, V = window.p_matrix(), window.v_matrix()
        beta = 0.1
        GF = -beta * F + (P + beta * V) @ (V.T @ F)
        assert np.abs(GF - X).max() <= 1e-12 * np.abs(X).max()

    def test_window_step_is_the_least_squares_step(self):
        # (P + beta V) V^T f = (X + beta F) theta, theta = argmin ||f - F theta||.
        rng = np.random.default_rng(5)
        window, X, F = self._window(rng, 3, 8)
        f = rng.standard_normal(8)
        theta, *_ = np.linalg.lstsq(F, f, rcond=None)
        P, V = window.p_matrix(), window.v_matrix()
        for beta in (0.0, 0.4):
            np.testing.assert_allclose((P + beta * V) @ (V.T @ f), (X + beta * F) @ theta,
                                       rtol=0, atol=1e-12)

    def test_observer_sees_windows_with_the_secant_identity(self):
        prob, op, b = _affine(8, seed=21, kind="nonsymmetric")
        sizes = []

        def watch(window):
            sizes.append(len(window))
            assert secant_property_check(window).secant_max <= 1e-8

        aa_solve(prob, np.zeros(8), m=3, beta=-0.1,
                 opts=SolverOptions(tol_rel=1e-9, max_iters=30), observer=watch)
        assert sizes[:3] == [1, 2, 3] and max(sizes) == 3

    def test_bratu_count(self):
        # Scaled Bratu 30x30, beta 0.1, m 10: the count of the dense
        # least-squares implementation, unchanged by the QR form.
        bp = BratuProblem(grid_n=30, lam=0.5, scaled=True)
        _, trace = aa_solve(bp.minimization_problem(), np.zeros(bp.dim), m=10, beta=0.1,
                            opts=SolverOptions(tol_rel=1e-6, max_iters=2000))
        assert (trace.final().iter, trace.final().fevals) == (555, 556)

    def test_converges_on_bratu_but_costs_more_than_windowed_cr(self):
        from nltgcr import BratuProblem, LineSearchOptions, nltgcr_solve

        bp = BratuProblem(grid_n=30, lam=0.5, scaled=True)
        pm = bp.minimization_problem()
        x0 = np.zeros(bp.dim)
        _, tr_aa = aa_solve(pm, x0, m=10, beta=0.1,
                            opts=SolverOptions(tol_rel=1e-6, max_iters=2000))
        fe_aa = tr_aa.fevals_to_relative(1e-6)
        assert fe_aa is not None
        _, tr_cr = nltgcr_solve(
            pm, x0,
            SolverOptions(window_m=1, tol_rel=1e-7, max_iters=400, restart_every=None,
                          linesearch=LineSearchOptions()),
        )
        fe_cr = tr_cr.fevals_to_relative(1e-6)
        assert fe_cr is not None
        assert fe_cr < fe_aa

    def test_divergence_raises_with_trace(self):
        from nltgcr import DivergenceError

        prob = NonlinearProblem(dim=1, eval_f=lambda x: x + 1.0)
        with pytest.raises(DivergenceError) as info:
            aa_solve(prob, np.zeros(1), m=0, beta=5.0,
                     opts=SolverOptions(tol_rel=1e-12, max_iters=200))
        assert info.value.trace is not None


class TestBroyden:
    def test_secant_and_nochange_identities_each_step(self):
        prob, op, b = _affine(n=6, seed=6)
        checks = []
        prev = {}

        def watch(s):
            G, dx, df = s["G"], s["dx"], s["df"]
            secant = np.abs(G @ df - dx).max() / max(1.0, np.abs(dx).max())
            q = _orth_probe(df, seed=s["iter"])
            nochange = np.abs((G - prev["G"]) @ q).max() if "G" in prev else 0.0
            prev["G"] = G.copy()
            checks.append((secant, nochange))

        broyden2_solve(prob, np.zeros(6), opts=SolverOptions(tol_rel=1e-8, max_iters=40),
                       beta=0.4, observer=watch)
        assert checks
        for secant, nochange in checks:
            assert secant <= 1e-12
            assert nochange <= 1e-12

    def test_linear_system_converges(self):
        prob, op, b = _affine(n=5, seed=7)
        x, trace = broyden2_solve(prob, np.zeros(5), opts=SolverOptions(tol_rel=1e-8, max_iters=200),
                                  beta=0.4)
        x_star = np.linalg.solve(op.mat, b)
        assert np.linalg.norm(x - x_star) <= 1e-6 * np.linalg.norm(x_star)

    def test_jacobian_form_update_satisfies_secant(self):
        rng = np.random.default_rng(8)
        J = rng.standard_normal((5, 5))
        dx = rng.standard_normal(5)
        df = rng.standard_normal(5)
        J_new = broyden1_update(J, dx, df)
        assert np.abs(J_new @ dx - df).max() <= 1e-12
        # no-change on the orthogonal complement of dx
        q = rng.standard_normal(5)
        q -= (q @ dx) * dx / (dx @ dx)
        assert np.abs((J_new - J) @ q).max() <= 1e-12


def _affine(n, seed, kind="spd"):
    op, b = make_linear_problem(kind, n, seed=seed)
    prob = NonlinearProblem(
        dim=n, eval_f=lambda x: op.mat @ x - b, exact_jv=lambda x, p: op.mat @ p
    )
    return prob, op, b


def _orth_probe(v, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(v.shape[0])
    q -= (q @ v) * v / (v @ v)
    return q / np.linalg.norm(q)


class TestNewtonKrylov:
    def test_affine_problem_needs_one_deep_outer_step(self):
        prob, op, b = _affine(n=10, seed=9)
        # eta0 tiny forces the inner solve to full accuracy: Newton is exact
        # on affine problems, so a single outer step converges.
        x, trace = newton_krylov_solve(
            prob, np.zeros(10), inner_m=30, eta0=1e-12,
            opts=SolverOptions(tol_rel=1e-8, max_iters=5),
        )
        assert trace.final().iter == 1

    def test_bratu_converges_in_few_outer_steps(self):
        bp = BratuProblem(grid_n=30)
        prob = bp.problem()
        reports = []
        x, trace = newton_krylov_solve(
            prob, np.zeros(bp.dim), inner_m=50, eta0=0.9,
            opts=SolverOptions(tol_rel=1e-10, max_iters=25),
            observer=reports.append,
        )
        assert trace.final().resnorm <= 1e-10 * trace.records[0].resnorm
        assert trace.final().iter <= 20

    def test_forcing_inequality_met_when_cap_not_hit(self):
        bp = BratuProblem(grid_n=20)
        prob = bp.problem()
        reports = []
        newton_krylov_solve(
            prob, np.zeros(bp.dim), inner_m=80, eta0=0.9,
            opts=SolverOptions(tol_rel=1e-9, max_iters=25),
            observer=reports.append,
        )
        assert reports
        for rep in reports:
            if not rep["cap_hit"]:
                inner_final = rep["inner_resnorms"][-1]
                assert inner_final <= rep["forcing_rhs"] * (1.0 + 1e-8)

    def test_forcing_enabled_succeeds_on_cluster_and_comparison_recorded(self):
        # The indefinite cluster Hessian punishes deep frozen-point inner
        # solves; the Eisenstat-Walker forcing run must succeed.
        from nltgcr import LennardJonesProblem

        lj = LennardJonesProblem(rng_seed=7)
        prob = lj.problem()
        x0 = lj.initial_positions()
        opts = SolverOptions(tol_rel=1e-7, max_iters=60)
        x, tr = newton_krylov_solve(prob, x0, inner_m=20, eta0=0.9, opts=opts)
        assert tr.final().resnorm <= 1e-7 * tr.records[0].resnorm
        assert np.abs(prob.eval_f(x)).max() <= 1e-4
        assert tr.fevals_to_relative(1e-6) is not None

    @pytest.mark.parametrize("eta0", [0.0, -0.5, 1.0, 1.5])
    def test_eta0_outside_unit_interval_rejected(self, eta0):
        prob, _, _ = _affine(n=4, seed=0)
        with pytest.raises(ValueError, match="eta0"):
            newton_krylov_solve(prob, np.zeros(4), eta0=eta0)

    def test_peak_memory_is_about_one_inner_window(self):
        # Every inner solve runs in one window of inner_m v rows, one per
        # direction (the residual basis stores no P rows), and keeps no
        # residuals or iterates, so no outer step holds a second one. Here
        # eta falls below TOL_FLOOR_F32 (to 7.8e-7 at the last step), and
        # the float32 window is dropped before the float64 one that takes
        # its place gets rows, so the peak is one window of inner_m * n
        # doubles; keeping the float32 window beside it put it at 1.67. The
        # rest of the peak is about six n-vectors (0.12 of a window) and one
        # inner history's betas (inner_m^2 / 2 doubles with their array
        # headers, 0.02 of a window at this small n); small objects bring it
        # to 1.20 windows, measured.
        # The bound leaves 0.05 of a window, 2.5 n-vectors. A zero start
        # and its copy, a U of inner_m^2 doubles per inner solve and the
        # previous step's history held as well put it at 1.28; with a P row
        # per direction it was 2.47.
        import tracemalloc

        bp = BratuProblem(grid_n=40, lam=0.5, scaled=True)
        prob = bp.minimization_problem()
        x0 = np.zeros(bp.dim)
        opts = SolverOptions(tol_rel=1e-8, max_iters=40)
        tracemalloc.start()
        try:
            _, trace = newton_krylov_solve(prob, x0, inner_m=50, eta0=0.9, opts=opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
        window_bytes = 50 * bp.dim * 8
        assert peak < 1.25 * window_bytes

    def test_peak_memory_in_n_vectors(self, monkeypatch):
        # With float64 rows throughout (eta never falls below a floor of 1,
        # while this instance keeps eta >= 1.3e-3), the peak is in a Jv
        # probe of an inner solve, 58.0 n-vectors here:
        # - the window's inner_m v rows; the exit replays the residuals the
        #   iterate is summed from into those rows, so it adds none;
        # - three vectors live through every inner solve: the outer x and
        #   r = -f(x), and the residual r_t. The inner x0 is a read-only
        #   zero view, which tgcr_solve neither copies nor writes;
        # - three in the probe: x + eps p, the stencil's output and exp(u);
        # - the betas of this inner history only (about inner_m^2 / 2
        #   doubles, plus array headers), 0.5 of an n-vector at n = 3600.
        #   U is formed at the exit, after the last probe.
        # That is inner_m + 6.5, and small objects bring it to 58.0; the
        # bound leaves 1 n-vector. A zero start and its copy, a U of
        # inner_m^2 doubles per inner solve and the previous step's history
        # held through this one put it at 61.4.
        import tracemalloc

        monkeypatch.setattr(baselines, "TOL_FLOOR_F32", 1.0)
        bp = BratuProblem(grid_n=60, lam=0.5, scaled=True)
        prob = bp.minimization_problem()
        opts = SolverOptions(tol_rel=1e-8, max_iters=40)
        tracemalloc.start()
        try:
            _, trace = newton_krylov_solve(prob, np.zeros(bp.dim), inner_m=50, eta0=0.9,
                                           opts=opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
        assert peak <= (50 + 9) * bp.dim * 8

    def test_peak_memory_with_float32_rows_in_n_vectors(self):
        # Here eta stays >= 1.3e-3, above TOL_FLOOR_F32, so every inner
        # solve runs in float32 rows, and the peak moves to an inner
        # solve's exit, 33.8 n-vectors:
        # - the window's inner_m rows, half an n-vector each: 25;
        # - the outer x and r = -f(x), and the inner r_t: 3;
        # - the exit sum: the iterate, the residual being replayed and the
        #   float64 product it overwrites (the rows cannot hold float64
        #   residuals, so they are formed and added one at a time): 3;
        # - this inner history's betas and the exit's U, about 1.5 inner_m^2
        #   doubles: 1.2 at n = 3600.
        # That is inner_m / 2 + 7.2, and small objects bring it to 33.8; the
        # bound leaves 1 n-vector. The same solve in float64 rows reads
        # 58.1 (test_peak_memory_in_n_vectors).
        import tracemalloc

        bp = BratuProblem(grid_n=60, lam=0.5, scaled=True)
        prob = bp.minimization_problem()
        reports = []
        tracemalloc.start()
        try:
            _, trace = newton_krylov_solve(prob, np.zeros(bp.dim), inner_m=50, eta0=0.9,
                                           opts=SolverOptions(tol_rel=1e-8, max_iters=40),
                                           observer=reports.append)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
        assert min(rep["eta"] for rep in reports) >= baselines.TOL_FLOOR_F32
        assert peak <= (50 / 2 + 10) * bp.dim * 8

    @pytest.mark.parametrize("inner_m, iters, fevals", [(10, 8, 64), (50, 7, 90)])
    def test_float32_rows_keep_the_counts_on_a_nonsymmetric_problem(
            self, monkeypatch, inner_m, iters, fevals):
        # f(x) = T x + 0.1 sin(x) - c, T tridiagonal (-1.5, 2.5, -0.5): its
        # Jacobian is not symmetric. eta falls below TOL_FLOOR_F32 during
        # the solve, so the window switches to float64 rows part way. The
        # counts are those of float64 rows throughout (a floor of 1).
        n = 4000
        c = np.random.default_rng(0).standard_normal(n)

        def f(x):
            out = 2.5 * x + 0.1 * np.sin(x) - c
            out[1:] -= 1.5 * x[:-1]
            out[:-1] -= 0.5 * x[1:]
            return out

        opts = SolverOptions(tol_rel=1e-8, max_iters=60)
        for floor in (baselines.TOL_FLOOR_F32, 1.0):
            monkeypatch.setattr(baselines, "TOL_FLOOR_F32", floor)
            reports = []
            _, trace = newton_krylov_solve(NonlinearProblem(dim=n, eval_f=f), np.zeros(n),
                                           inner_m=inner_m, eta0=0.9, opts=opts,
                                           observer=reports.append)
            assert (trace.final().iter, trace.final().fevals) == (iters, fevals)
            assert reports[0]["eta"] >= 1e-3 > min(rep["eta"] for rep in reports)

    def test_accepted_trial_f_is_released_before_the_next_inner_solve(self):
        # The line search's f(x_new) lives on only as r = -f(x_new): by the
        # first Jv probe of the next outer step it is freed. The last
        # evaluation before the observer is the accepted trial's.
        bp = BratuProblem(grid_n=20)
        last, pending, dead = [None], [None], []

        def f(x):
            if pending[0] is not None:
                gc.collect()
                dead.append(pending[0]() is None)
                pending[0] = None
            out = bp.f(x)
            last[0] = weakref.ref(out)
            return out

        def observe(rep):
            assert rep["alpha"] == 1.0
            pending[0] = last[0]

        newton_krylov_solve(
            dataclasses.replace(bp.problem(), eval_f=f), np.zeros(bp.dim), inner_m=50,
            eta0=0.9, opts=SolverOptions(tol_rel=1e-8, max_iters=25), observer=observe,
        )
        assert len(dead) > 2 and all(dead)

    def test_inner_solution_is_released_before_the_next_inner_solve(self, monkeypatch):
        # delta, the accepted inner solution, is read only by the slope and
        # the line search: by the next outer step's inner solve it is freed.
        # tgcr_solve is looked up at call time, so the wrapper sees each one.
        bp = BratuProblem(grid_n=20)
        inner = baselines.tgcr_solve
        last, dead = [None], []

        def tgcr_solve(*args, **kwargs):
            if last[0] is not None:
                gc.collect()
                dead.append(last[0]() is None)
            delta, hist = inner(*args, **kwargs)
            last[0] = weakref.ref(delta)
            return delta, hist

        monkeypatch.setattr(baselines, "tgcr_solve", tgcr_solve)
        newton_krylov_solve(bp.problem(), np.zeros(bp.dim), inner_m=50, eta0=0.9,
                            opts=SolverOptions(tol_rel=1e-8, max_iters=25))
        assert len(dead) > 2 and all(dead)

    def test_non_descent_raises_after_one_slope_probe(self):
        # f(x) = 1 + 2|x| has its kink at x0 = 0. The inner probe along
        # r0 = -1 sees slope 2 on the left, so delta = 1/2 > 0, and the slope
        # probe along delta sees the right side: r . J delta = -1 < 0. A
        # shorter delta probes the same point, so no retry is made.
        calls = []

        def f(x):
            calls.append(float(x[0]))
            return 1.0 + 2.0 * np.abs(x)

        with pytest.raises(NotDescentError) as info:
            newton_krylov_solve(NonlinearProblem(dim=1, eval_f=f), np.zeros(1))
        # f(x0), one Jv probe left of 0, one slope probe right of it.
        assert len(calls) == 3 and calls[0] == 0.0 and calls[1] < 0.0
        assert sum(c > 0.0 for c in calls) == 1
        assert info.value.trace.frozen and info.value.x.tolist() == [0.0]

    def test_inner_breakdown_before_a_step_raises_at_x0(self):
        # A constant f has J = 0: the first inner direction collapses, so
        # there is no step to search along.
        x0 = np.array([0.5, -1.0])
        prob = NonlinearProblem(dim=2, eval_f=lambda x: np.array([1.0, 2.0]))
        with pytest.raises(BreakdownError, match="direction collapsed at step 0") as info:
            newton_krylov_solve(prob, x0)
        trace = info.value.trace
        assert trace.frozen and len(trace) == 1 and trace.final().iter == 0
        assert info.value.x.tobytes() == x0.tobytes()

    def test_inner_breakdown_after_a_step_keeps_the_step(self):
        # f(x) = u (sum(x) - 1) has the one-dimensional range span(u): one
        # inner step leaves r at rounding level, above the forcing tolerance
        # 1e-20 ||r_0||, and the next inner direction collapses. The outer
        # solve takes that step, which solves f(x) = 0 to the probe's accuracy.
        u = np.array([1.0, 2.0, -1.0])
        prob = NonlinearProblem(dim=3, eval_f=lambda x: u * (x.sum() - 1.0))
        reports = []
        x, trace = newton_krylov_solve(prob, np.zeros(3), inner_m=5, eta0=1e-20,
                                       opts=SolverOptions(tol_rel=1e-8, max_iters=5),
                                       observer=reports.append)
        (rep,) = reports
        # Neither converged nor capped: the inner solve broke down.
        assert rep["inner_steps"] == 1 and not rep["cap_hit"]
        assert rep["inner_resnorms"][-1] > rep["forcing_rhs"]
        assert rep["alpha"] == 1.0
        assert trace.final().iter == 1
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
        assert abs(x.sum() - 1.0) <= 1e-8

    def test_eta_floor_keeps_inner_solves_shallow_early(self):
        bp = BratuProblem(grid_n=20)
        prob = bp.problem()
        reports = []
        newton_krylov_solve(
            prob, np.ones(bp.dim), inner_m=50, eta0=0.9,
            opts=SolverOptions(tol_rel=1e-8, max_iters=25),
            observer=reports.append,
        )
        assert reports[0]["inner_steps"] <= 5


class TestGradientMethods:
    def test_quadratic_bowl_all_three_converge(self):
        prob = _quadratic_bowl(6)
        opts = SolverOptions(tol_rel=1e-10, max_iters=200)
        for solver in (
            lambda: nesterov_solve(prob, np.ones(6), opts),
            lambda: ncg_fr_solve(prob, np.ones(6), opts),
            lambda: lbfgs_solve(prob, np.ones(6), m=5, opts=opts),
        ):
            x, trace = solver()
            assert trace.final().resnorm <= 1e-10 * trace.records[0].resnorm

    def test_ncg_finishes_bowl_in_dimension_steps(self):
        prob = _quadratic_bowl(6)
        x, trace = ncg_fr_solve(prob, np.ones(6), SolverOptions(tol_rel=1e-10, max_iters=50))
        assert trace.final().iter <= 6

    def test_lbfgs_solves_rosenbrock(self):
        prob = _rosenbrock()
        x, trace = lbfgs_solve(
            prob, np.array([-1.2, 1.0]), m=10,
            opts=SolverOptions(tol_rel=1e-8, max_iters=500),
        )
        assert np.linalg.norm(prob.eval_f(x)) <= 1e-6
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-5)

    def test_rosenbrock_gradient_matches_finite_differences(self):
        prob = _rosenbrock()
        z = np.array([0.4, -0.3])
        fd = central_diff_gradient(prob.eval_phi, z)
        np.testing.assert_allclose(prob.eval_f(z), fd, rtol=1e-6, atol=1e-8)


# The seven solvers as runner(prob, x0, opts) -> (x, trace), with small windows.
RUNNERS = {
    "aa": lambda p, x0, o: aa_solve(p, x0, m=3, beta=0.4, opts=o),
    "broyden2": lambda p, x0, o: broyden2_solve(p, x0, opts=o, beta=0.4),
    "newton-krylov": lambda p, x0, o: newton_krylov_solve(p, x0, inner_m=10, eta0=0.5, opts=o),
    "nesterov": lambda p, x0, o: nesterov_solve(p, x0, o),
    "ncg": lambda p, x0, o: ncg_fr_solve(p, x0, o),
    "lbfgs": lambda p, x0, o: lbfgs_solve(p, x0, m=3, opts=o),
    "nltgcr": lambda p, x0, o: nltgcr_solve(p, x0, o),
}
BASELINES = [name for name in RUNNERS if name != "nltgcr"]


def _counted(base):
    """base with eval_f and eval_phi counting raw oracle calls into calls["n"]."""
    calls = {"n": 0}

    def counted_f(x):
        calls["n"] += 1
        return base.eval_f(x)

    def counted_phi(x):
        calls["n"] += 1
        return base.eval_phi(x)

    phi = counted_phi if base.eval_phi is not None else None
    return NonlinearProblem(dim=base.dim, eval_f=counted_f, eval_phi=phi), calls


class TestAccountingContract:
    @pytest.mark.parametrize("name", BASELINES)
    def test_trace_fevals_equal_raw_oracle_calls(self, name):
        prob, calls = _counted(_quadratic_bowl(5))
        opts = SolverOptions(tol_rel=1e-8, max_iters=40)
        _, trace = RUNNERS[name](prob, np.full(5, 0.7), opts)
        assert trace.final().fevals == calls["n"]

    def test_nltgcr_trace_fevals_equal_raw_oracle_calls(self):
        bp = BratuProblem(grid_n=10)
        prob, calls = _counted(NonlinearProblem(dim=bp.dim, eval_f=bp.f))
        opts = SolverOptions(
            window_m=2, tol_rel=1e-9, max_iters=100, restart_every=None,
            variant="adaptive", linesearch=LineSearchOptions(),
        )
        _, trace = nltgcr_solve(prob, np.zeros(bp.dim), opts)
        assert trace.final().fevals == calls["n"]

    @pytest.mark.parametrize("max_iters", [1, 3])
    @pytest.mark.parametrize(
        "name, kw",
        [(name, {}) for name in RUNNERS]
        + [
            ("nltgcr", dict(window_m=2, restart_every=None, variant="adaptive",
                            linesearch=LineSearchOptions())),
            # Every iteration, the last included, is a LIN-mode restart
            # boundary, where a refresh and a reseed would follow the step.
            ("nltgcr", dict(window_m=2, restart_every=1, variant="linearized")),
        ],
        ids=list(RUNNERS) + ["nltgcr-adaptive", "nltgcr-lin-restart"],
    )
    def test_max_iters_exit_charges_every_oracle_call(self, name, kw, max_iters):
        # No solver may spend an evaluation after the record that ends it.
        bp = BratuProblem(grid_n=10)
        prob, calls = _counted(bp.minimization_problem())
        opts = SolverOptions(tol_rel=1e-8, max_iters=max_iters, **kw)
        _, trace = RUNNERS[name](prob, np.zeros(bp.dim), opts)
        assert trace.final().iter == max_iters and trace.frozen
        assert trace.final().fevals == calls["n"]


class TestSetupFailures:
    """A failure before the first iteration carries x0 and the x0 record."""

    @staticmethod
    def _check(info, x0):
        trace = info.value.trace
        assert trace.frozen and len(trace) == 1 and trace.final().iter == 0
        np.testing.assert_array_equal(info.value.x, x0)

    @pytest.mark.parametrize("name", ["ncg", "lbfgs"])
    def test_objective_out_of_domain_at_x0(self, name):
        def phi(x):
            raise ValueError("objective out of domain")

        prob = NonlinearProblem(dim=3, eval_f=lambda x: x - 1.0, eval_phi=phi)
        x0 = np.array([0.5, -0.5, 2.0])
        with pytest.raises(ValueError, match="objective out of domain") as info:
            RUNNERS[name](prob, x0, SolverOptions())
        self._check(info, x0)

    def test_nesterov_non_finite_lipschitz_probe(self):
        x0 = np.array([0.5, -0.5, 2.0])
        # Finite at x0 only: the first power-iteration probe sees NaN.
        prob = NonlinearProblem(
            dim=3, eval_f=lambda x: x - 1.0 if np.array_equal(x, x0) else np.full(3, np.nan)
        )
        with pytest.raises(NonFiniteError) as info:
            nesterov_solve(prob, x0)
        self._check(info, x0)
