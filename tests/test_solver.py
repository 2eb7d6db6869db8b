import dataclasses

import numpy as np
import pytest

from nltgcr import (
    BratuProblem,
    BreakdownError,
    JvProbe,
    LineSearchOptions,
    NonFiniteError,
    NonlinearProblem,
    SolverOptions,
    adaptive_switch,
    angular_distance,
    cr_solve,
    identity_observer,
    LinearOptions,
    make_linear_problem,
    nltgcr_solve,
    secant_property_check,
    tgcr_solve,
)
from nltgcr import solver
from nltgcr.jacobian import descent_check
from nltgcr.solver import STAY, TO_LIN, TO_NL
from oracles import frobenius_gap


def _affine_problem(n=30, seed=0, kind="spd"):
    op, b = make_linear_problem(kind, n, seed=seed)
    prob = NonlinearProblem(
        dim=n,
        eval_f=lambda x: op.mat @ x - b,
        exact_jv=lambda x, p: op.mat @ p,
    )
    return prob, op, b


def _bratu(grid_n, **kw):
    bp = BratuProblem(grid_n=grid_n, **kw)
    return bp, bp.problem()


class TestBasics:
    def test_zero_residual_start_returns_immediately(self):
        prob = NonlinearProblem(dim=3, eval_f=lambda x: x * 0.0)
        x, trace = nltgcr_solve(prob, np.ones(3))
        assert len(trace) == 1
        assert trace.final().fevals == 1
        np.testing.assert_array_equal(x, np.ones(3))

    def test_scalar_identity_exact_correction(self):
        prob = NonlinearProblem(
            dim=1, eval_f=lambda x: x.copy(), exact_jv=lambda x, p: p.copy()
        )
        opts = SolverOptions(tol_rel=1e-14, max_iters=5)
        x, trace = nltgcr_solve(prob, np.array([1.0]), opts, probe=JvProbe(mode="exact"))
        assert trace.final().iter == 1
        assert abs(x[0]) <= 1e-15

    def test_two_fevals_per_nonlinear_iteration(self):
        prob, op, b = _affine_problem(n=12, seed=1)
        opts = SolverOptions(window_m=3, tol_rel=1e-10, max_iters=30, restart_every=None)
        _, trace = nltgcr_solve(prob, np.zeros(12), opts)
        diffs = np.diff(trace.fevals())
        assert np.all(diffs == 2)

    def test_one_feval_per_linearized_iteration(self):
        prob, op, b = _affine_problem(n=12, seed=2)
        opts = SolverOptions(
            window_m=3, tol_rel=1e-8, max_iters=30, restart_every=None, variant="linearized"
        )
        _, trace = nltgcr_solve(prob, np.zeros(12), opts)
        diffs = np.diff(trace.fevals())
        # Final iteration verifies apparent convergence with one extra
        # nonlinear evaluation; all others cost exactly one probe.
        assert np.all(diffs[:-1] == 1)
        assert diffs[-1] == 2

    def test_periodic_check_charges_one_extra_feval(self):
        # Adaptive runs that settle into linear updates pay one evaluation
        # per iteration plus one more every adaptive_check_period iterations.
        bp = BratuProblem(grid_n=20)
        opts = SolverOptions(
            window_m=1, tol_rel=1e-9, max_iters=300, restart_every=None,
            variant="adaptive", adaptive_check_period=10,
        )
        _, trace = nltgcr_solve(bp.problem(), np.zeros(bp.dim), opts)
        modes = [r.mode for r in trace.records]
        assert "LIN" in modes
        start = modes.index("LIN")
        diffs = np.diff(trace.fevals()[start:])
        if len(diffs) > 25:
            # at steady state: mostly 1, with a 2 at each periodic check
            counts = {int(d): int((diffs == d).sum()) for d in np.unique(diffs)}
            assert set(counts) <= {1, 2}
            assert counts.get(2, 0) >= len(diffs) // 12

    def test_adaptive_run_keeps_window_invariants(self):
        bp = BratuProblem(grid_n=20)
        diags = []
        opts = SolverOptions(
            window_m=3, tol_rel=1e-9, max_iters=300, restart_every=None,
            variant="adaptive",
        )
        nltgcr_solve(bp.problem(), np.zeros(bp.dim), opts, observer=identity_observer(diags))
        assert any(d["mode"] == "LIN" for d in diags)
        for d in diags:
            assert d["window_defect"] <= 1e-10
            assert d["least_squares_gap"] <= 1e-10

    def test_trace_csv_emitted(self, tmp_path):
        prob, op, b = _affine_problem(n=6, seed=3)
        _, trace = nltgcr_solve(prob, np.zeros(6), SolverOptions(max_iters=10))
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        assert path.read_text().startswith("iter,fevals,resnorm")


class TestLinearEquivalence:
    def test_linearized_variant_tracks_tgcr_iterates(self):
        n = 30
        prob, op, b = _affine_problem(n=n, seed=4)
        m = 3
        xs = []
        opts = SolverOptions(
            window_m=m, tol_rel=1e-12, max_iters=40, restart_every=None, variant="linearized"
        )
        nltgcr_solve(
            prob,
            np.zeros(n),
            opts,
            probe=JvProbe(mode="exact"),
            observer=lambda s: xs.append(s["x"].copy()),
        )
        _, hist = tgcr_solve(op, b, np.zeros(n), m=m, opts=LinearOptions(tol_rel=1e-12, max_iters=40))
        k = min(len(xs), len(hist.xs) - 1)
        assert k > 5
        for j in range(k):
            scale = max(1.0, np.abs(hist.xs[j + 1]).max())
            assert np.abs(xs[j] - hist.xs[j + 1]).max() <= 1e-12 * scale

    def test_nonlinear_variant_tracks_tgcr_iterates(self):
        n = 30
        prob, op, b = _affine_problem(n=n, seed=4)
        m = 3
        xs = []
        opts = SolverOptions(
            window_m=m, tol_rel=1e-10, max_iters=40, restart_every=None, variant="nonlinear"
        )
        nltgcr_solve(
            prob,
            np.zeros(n),
            opts,
            probe=JvProbe(mode="exact"),
            observer=lambda s: xs.append(s["x"].copy()),
        )
        _, hist = tgcr_solve(op, b, np.zeros(n), m=m, opts=LinearOptions(tol_rel=1e-10, max_iters=40))
        k = min(len(xs), len(hist.xs) - 1)
        for j in range(k):
            scale = max(1.0, np.abs(hist.xs[j + 1]).max())
            assert np.abs(xs[j] - hist.xs[j + 1]).max() <= 1e-10 * scale

    def test_variants_agree_on_affine_problems(self):
        prob, op, b = _affine_problem(n=20, seed=5)
        opts = SolverOptions(window_m=2, tol_rel=1e-9, max_iters=40, restart_every=None)
        xs_nl, xs_lin = [], []
        nltgcr_solve(prob, np.zeros(20), opts, probe=JvProbe(mode="exact"),
                     observer=lambda s: xs_nl.append(s["x"].copy()))
        nltgcr_solve(prob, np.zeros(20), opts.with_(variant="linearized"),
                     probe=JvProbe(mode="exact"),
                     observer=lambda s: xs_lin.append(s["x"].copy()))
        k = min(len(xs_nl), len(xs_lin))
        for j in range(k):
            assert np.abs(xs_nl[j] - xs_lin[j]).max() <= 1e-10 * max(1.0, np.abs(xs_lin[j]).max())

    def test_linearized_residual_tracks_true_affine_residual(self):
        # On an affine problem the linear recursion is exact, so the stored
        # residual must reproduce b - A x recomputed from the iterate; this
        # replays the accumulated V y updates through an independent route.
        prob, op, b = _affine_problem(n=15, seed=6)
        opts = SolverOptions(
            window_m=3, tol_rel=1e-9, max_iters=25, restart_every=None, variant="linearized"
        )
        snaps = []
        nltgcr_solve(prob, np.zeros(15), opts, probe=JvProbe(mode="exact"),
                     observer=lambda s: snaps.append((s["x"].copy(), s["r"].copy())))
        assert len(snaps) > 5
        r0n = np.linalg.norm(b)
        for x, r in snaps:
            np.testing.assert_allclose(r, b - op.mat @ x, atol=1e-12 * r0n)


class TestAdaptiveSwitch:
    def test_identical_residuals_switch_to_linear(self):
        r = np.array([1.0, 2.0])
        theta = angular_distance(r, r.copy())
        assert adaptive_switch(theta, SolverOptions(variant="adaptive")) == TO_LIN

    def test_orthogonal_residuals_stay_nonlinear(self):
        r1 = np.array([1.0, 0.0])
        r2 = np.array([0.0, 1.0])
        opts = SolverOptions(variant="adaptive")
        theta = angular_distance(r1, r2)
        assert adaptive_switch(theta, opts, mode="NL") == STAY
        assert adaptive_switch(theta, opts, mode="LIN") == TO_NL

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError):
            angular_distance(np.zeros(2), np.ones(2))

    def test_bratu_switches_early_and_saves_fevals(self):
        bp, prob = _bratu(40)
        x0 = np.ones(bp.dim)
        base = SolverOptions(
            window_m=1, tol_rel=1e-8, max_iters=600, restart_every=None,
            linesearch=LineSearchOptions(),
        )
        diags = []
        _, tr_adapt = nltgcr_solve(prob, x0, base.with_(variant="adaptive"), observer=identity_observer(diags))
        _, tr_nl = nltgcr_solve(prob, x0, base)
        modes = [r.mode for r in tr_adapt.records]
        first_lin = modes.index("LIN") if "LIN" in modes else None
        assert first_lin is not None and first_lin <= 5
        fe_adapt = tr_adapt.fevals_to_relative(1e-8)
        fe_nl = tr_nl.fevals_to_relative(1e-8)
        assert fe_adapt is not None and fe_nl is not None
        assert fe_adapt < fe_nl

    def test_bratu_from_ones_switches_back_at_stagnation(self):
        bp, prob = _bratu(50)
        opts = SolverOptions(
            window_m=1, tol_rel=1e-10, max_iters=800, restart_every=None, variant="adaptive"
        )
        _, trace = nltgcr_solve(prob, np.ones(bp.dim), opts)
        modes = [r.mode for r in trace.records]
        to_lin = any(a == "NL" and b == "LIN" for a, b in zip(modes, modes[1:]))
        to_nl = any(a == "LIN" and b == "NL" for a, b in zip(modes, modes[1:]))
        assert to_lin and to_nl
        assert trace.final().resnorm <= 1e-10 * trace.records[0].resnorm

    def test_line_search_gets_the_square_of_its_residual(self, monkeypatch):
        # The LIN line search takes r @ r from the solve instead of forming
        # it. Across LIN -> NL -> LIN switches, adaptive refreshes and the
        # periodic LIN restart (iterations 20 and 40, both in LIN mode), each
        # call must get the square of the r it is handed, to the bit.
        calls = []
        search = solver.backtrack_linearized

        def spy(r, Vy, slope, opts, **kw):
            calls.append(kw["rnorm2"] == float(r @ r))
            return search(r, Vy, slope, opts, **kw)

        monkeypatch.setattr(solver, "backtrack_linearized", spy)
        bp, prob = _bratu(10, lam=3.0)
        opts = SolverOptions(window_m=1, tol_rel=1e-10, max_iters=200, restart_every=20,
                             variant="adaptive", linesearch=LineSearchOptions())
        _, trace = nltgcr_solve(prob, np.ones(bp.dim), opts)
        modes = "".join("L" if r.mode == "LIN" else "N" for r in trace.records)
        assert "LN" in modes and "L" in modes[modes.index("LN") + 1:]
        assert modes[20:22] == modes[40:42] == "LL"
        assert len(calls) > 40 and all(calls)
        assert trace.final().resnorm <= 1e-10 * trace.records[0].resnorm


class TestResidualIdentities:
    def test_window_projection_identities_on_bratu(self):
        bp, prob = _bratu(20)
        diags = []
        opts = SolverOptions(window_m=3, tol_rel=1e-10, max_iters=200, restart_every=None)
        nltgcr_solve(prob, np.zeros(bp.dim), opts, observer=identity_observer(diags))
        assert len(diags) > 20
        for d in diags:
            assert d["item1_vt_rtilde"] <= 1e-10
            if "item3_vr" in d:
                assert d["item3_vr"] <= 1e-10
            if "item4_y_reconstruction" in d:
                assert d["item4_y_reconstruction"] <= 1e-10
            assert d["window_defect"] <= 1e-10
            assert d["least_squares_gap"] <= 1e-10

    def test_linear_residual_deviation_shrinks_superlinearly(self):
        bp, prob = _bratu(20)
        diags = []
        opts = SolverOptions(window_m=1, tol_rel=1e-10, max_iters=400, restart_every=None)
        nltgcr_solve(prob, np.zeros(bp.dim), opts, observer=identity_observer(diags))
        ratios = [d["z_norm"] / d["prev_resnorm"] for d in diags if d["z_norm"] is not None]
        assert len(ratios) > 10
        assert max(ratios[-10:]) < 1e-3

    def test_secant_and_nochange_identities(self):
        bp, prob = _bratu(15)
        diags = []
        opts = SolverOptions(window_m=5, tol_rel=1e-9, max_iters=150, restart_every=None)
        nltgcr_solve(prob, np.zeros(bp.dim), opts, observer=identity_observer(diags))
        for d in diags:
            assert d["secant_max"] <= 1e-10
            assert d["nochange_max"] <= 1e-10

    def test_single_pair_secant_is_exact(self):
        from nltgcr import WindowPair

        rng = np.random.default_rng(0)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        w = WindowPair(capacity=1)
        w.push(rng.standard_normal(8), v)
        rep = secant_property_check(w)
        assert rep.secant_max <= 1e-12

    def test_window_product_is_frobenius_minimal(self):
        bp, prob = _bratu(12)
        windows = []
        opts = SolverOptions(window_m=5, tol_rel=1e-9, max_iters=60, restart_every=None)
        nltgcr_solve(prob, np.zeros(bp.dim), opts,
                     observer=lambda s: windows.append(s["window"]) if len(s["window"]) == 5 else None)
        assert windows
        gap = frobenius_gap(windows[-1], seed=1, n_samples=10)
        assert gap >= -1e-9

    def test_gradient_pairing_formula_with_exact_jacobian(self):
        # For phi = 0.5 ||f||^2 the slope of the next step factors into
        # -<v_last, r>^2 minus cross terms <v_i, r><J(x) p_i, r>. The stored
        # window mixes Jacobians from different iterates, so the factoring
        # carries a second-order error that must vanish near convergence,
        # while the descent sign agrees throughout.
        bp, prob = _bratu(12)
        gaps = []
        signs = []
        last = {}

        def watch(s):
            # The newest pair was built along the previous step's residual
            # r_old at the previous iterate, where the next step starts.
            x = last.get("x")
            last["x"] = s["x"]
            if not s["fresh_pair"]:
                return
            w, r = s["window"], s["r_old"]
            rnorm = float(np.linalg.norm(r))
            if rnorm == 0.0:
                return
            P = w.p_matrix()
            V = w.v_matrix()
            y = V.T @ r
            d = P @ y
            lhs = -float(bp.jv(x, r) @ d)
            rhs = -float(V[:, -1] @ r) ** 2
            for i in range(len(w) - 1):
                rhs -= float(V[:, i] @ r) * float(bp.jv(x, P[:, i]) @ r)
            scale = max(rnorm * rnorm, abs(lhs))
            gaps.append(abs(lhs - rhs) / scale)
            signs.append((lhs, rhs))

        opts = SolverOptions(window_m=3, tol_rel=1e-11, max_iters=200, restart_every=None)
        nltgcr_solve(prob, np.zeros(bp.dim), opts, probe=JvProbe(mode="exact"), observer=watch)
        assert len(gaps) > 10
        assert max(gaps[-10:]) <= 1e-8
        assert max(gaps) <= 1e-3
        for lhs, rhs in signs:
            assert rhs <= 0.0
            assert lhs < 0.0

    def test_monotone_residuals_with_line_search(self):
        bp, prob = _bratu(20)
        opts = SolverOptions(
            window_m=1, tol_rel=1e-10, max_iters=400, restart_every=None,
            linesearch=LineSearchOptions(),
        )
        _, trace = nltgcr_solve(prob, np.ones(bp.dim), opts)
        res = trace.resnorms()
        assert np.all(np.diff(res) <= 1e-12 * res[0])


class TestObserver:
    @pytest.mark.parametrize(
        "variant,truncated",
        [("nonlinear", False), ("linearized", False), ("adaptive", False), ("nonlinear", True)],
    )
    def test_identity_observer_changes_nothing(self, variant, truncated):
        bp, prob = _bratu(20)
        opts = SolverOptions(
            window_m=3, tol_rel=1e-10, max_iters=300, variant=variant,
            truncated_update=truncated,
        )

        def untimed(trace):
            return [{**dataclasses.asdict(r), "wallclock_s": None} for r in trace.records]

        x_plain, tr_plain = nltgcr_solve(prob, np.zeros(bp.dim), opts)
        records = []
        x_seen, tr_seen = nltgcr_solve(
            prob, np.zeros(bp.dim), opts, observer=identity_observer(records)
        )
        assert len(records) == len(tr_seen) - 1
        assert x_seen.tobytes() == x_plain.tobytes()
        assert untimed(tr_seen) == untimed(tr_plain)


class TestTruncatedUpdate:
    def test_symmetric_linear_problem_reduces_to_cr(self):
        n = 20
        prob, op, b = _affine_problem(n=n, seed=7, kind="spd")
        xs = []
        opts = SolverOptions(
            window_m=1, tol_rel=1e-10, max_iters=60, restart_every=None, truncated_update=True
        )
        nltgcr_solve(prob, np.zeros(n), opts, probe=JvProbe(mode="exact"),
                     observer=lambda s: xs.append(s["x"].copy()))
        _, hist = cr_solve(op, b, np.zeros(n), LinearOptions(tol_rel=1e-10, max_iters=60))
        k = min(len(xs), len(hist.xs) - 1)
        for j in range(k):
            assert np.abs(xs[j] - hist.xs[j + 1]).max() <= 1e-8 * max(1.0, np.abs(hist.xs[j + 1]).max())

    def test_descent_along_truncated_direction_on_bratu(self):
        # The truncated update steps along d = <v, r> p for the newest pair;
        # its slope is <v, r>^2 up to Jacobian drift, hence never negative.
        bp, prob = _bratu(12)
        checks = []
        last = {}

        def watch(s):
            # The window steps from the previous iterate along r_old.
            w, x, r = s["window"], last.get("x"), s["r_old"]
            last["x"] = s["x"]
            if x is None:
                return
            a = float(w.v_matrix()[:, -1] @ r)
            if len(checks) < 100 and a != 0.0:
                d = a * w.p_matrix()[:, -1]
                val, _ = descent_check(prob, x, r, d, JvProbe())
                checks.append((val, a))

        opts = SolverOptions(
            window_m=4, tol_rel=1e-9, max_iters=120, restart_every=None, truncated_update=True
        )
        nltgcr_solve(prob, np.zeros(bp.dim), opts, observer=watch)
        assert checks
        for val, a in checks:
            assert val >= -1e-6 * (1.0 + a * a)

    def test_orthogonal_residual_gives_zero_step(self):
        # r orthogonal to the single stored v: the truncated update stalls,
        # which the solver treats as a breakdown restart.
        from nltgcr import WindowPair

        w = WindowPair(capacity=1)
        v = np.array([1.0, 0.0])
        w.push(v.copy(), v.copy())
        r = np.array([0.0, 1.0])
        y = float(w.v_matrix()[:, -1] @ r)
        assert y == 0.0


class TestFailureModes:
    def test_constant_function_breaks_down(self):
        prob = NonlinearProblem(dim=2, eval_f=lambda x: np.ones(2))
        with pytest.raises(BreakdownError):
            nltgcr_solve(prob, np.zeros(2), SolverOptions(max_iters=10))

    def test_non_finite_evaluation_carries_state(self):
        # sqrt leaves the domain on the first full correction from x0 = 4.
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(x)

        prob = NonlinearProblem(dim=1, eval_f=f)
        with pytest.raises(NonFiniteError) as info:
            nltgcr_solve(prob, np.array([4.0]), SolverOptions(max_iters=20))
        assert info.value.trace is not None
        assert info.value.x is not None

    def test_out_of_domain_evaluation_carries_state(self):
        # lambda = 50 is past the Bratu turning point: the iterate grows until
        # f refuses it with a plain ValueError, which keeps its class.
        bp = BratuProblem(grid_n=5, lam=50)
        with pytest.raises(ValueError, match="exp overflow") as info:
            nltgcr_solve(bp.problem(), np.zeros(bp.dim), SolverOptions(max_iters=200))
        trace = info.value.trace
        assert len(trace) > 1
        with pytest.raises(RuntimeError, match="frozen"):
            trace.append(trace.final())
        assert np.isfinite(trace.final().resnorm)
        np.testing.assert_array_less(info.value.x, 700.0)
        assert np.all(np.isfinite(bp.f(info.value.x)))

    def test_restart_policy_reseeds_window(self):
        # Hard restarts slow the short recurrence but must not break it.
        bp, prob = _bratu(10)
        opts = SolverOptions(window_m=2, tol_rel=1e-10, max_iters=300, restart_every=5)
        x, trace = nltgcr_solve(prob, np.zeros(bp.dim), opts)
        assert trace.final().resnorm <= 1e-10 * trace.records[0].resnorm


class TestConcurrentSolves:
    def test_parallel_instances_match_serial_results(self):
        from concurrent.futures import ThreadPoolExecutor

        bp, prob = _bratu(15)
        opts = SolverOptions(window_m=2, tol_rel=1e-9, max_iters=200, restart_every=None)
        starts = [np.zeros(bp.dim), np.ones(bp.dim), 0.5 * np.ones(bp.dim)]
        serial = [nltgcr_solve(prob, x0, opts)[0] for x0 in starts]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(lambda x0: nltgcr_solve(prob, x0, opts)[0], starts))
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)


class TestScaleInvariance:
    def test_row_scaling_leaves_iterates_unchanged(self):
        bp_a = BratuProblem(grid_n=12, scaled=False)
        bp_b = BratuProblem(grid_n=12, scaled=True)
        opts = SolverOptions(window_m=2, tol_rel=1e-9, max_iters=80, restart_every=None)
        xa, tra = nltgcr_solve(bp_a.problem(), np.zeros(bp_a.dim), opts)
        xb, trb = nltgcr_solve(bp_b.problem(), np.zeros(bp_b.dim), opts)
        assert np.abs(xa - xb).max() <= 1e-8
        assert abs(tra.final().iter - trb.final().iter) <= 1
