import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltgcr import (
    ConvergenceTrace,
    EvalCounter,
    LineSearchOptions,
    NonFiniteError,
    NonlinearProblem,
    SolverOptions,
    TraceRecord,
    WindowPair,
    nltgcr_solve,
)
from nltgcr.linear import add_direction


def _orthonormal_columns(n, k, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return [Q[:, i] for i in range(k)]


class TestWindowPair:
    def test_first_insertion(self):
        w = WindowPair(capacity=3)
        v = np.zeros(5)
        v[0] = 1.0
        w.push(np.arange(5.0), v)
        assert len(w) == 1

    def test_eviction_order_at_capacity(self):
        w = WindowPair(capacity=2)
        vs = _orthonormal_columns(6, 3)
        ps = [np.full(6, float(i)) for i in range(3)]
        for p, v in zip(ps, vs):
            w.push(p, v)
        assert len(w) == 2
        np.testing.assert_array_equal(w.p_matrix()[:, 0], ps[1])
        np.testing.assert_array_equal(w.p_matrix()[:, 1], ps[2])
        np.testing.assert_array_equal(w.v_matrix()[:, 0], vs[1])

    def test_window_start_matches_formula(self):
        # After pushing pairs 0..j with capacity m, the window holds
        # max(0, j - m + 1) .. j. Enumerated by hand for j = 0..6, m = 4.
        m = 4
        w = WindowPair(capacity=m)
        vs = _orthonormal_columns(10, 7)
        for j in range(7):
            w.push(np.full(10, float(j)), vs[j])
            assert w.p_matrix()[0, 0] == float(max(0, j - m + 1))

    def test_p_rows_for_all_pairs_or_none(self):
        w = WindowPair(capacity=3)
        e = np.eye(4)
        w.push(None, e[0])
        w.push(None, e[1])
        # No P buffer until a pair needs one.
        assert w.rows()[0] is None and w._p.size == 0
        with pytest.raises(ValueError, match="all its pairs or for none"):
            w.push(e[2], e[2])
        P = w.add_p_rows()
        assert P.shape == (2, 4)
        P[:] = e[2:]
        w.push(e[0], e[2])
        np.testing.assert_array_equal(w.p_matrix(), e[:, [2, 3, 0]])
        with pytest.raises(ValueError, match="all its pairs or for none"):
            w.push(None, e[3])
        with pytest.raises(ValueError, match="already"):
            w.add_p_rows()
        # A cleared window takes either kind, and keeps its P buffer.
        buffer = w._p
        w.clear()
        w.push(None, e[3])
        assert w.rows()[0] is None and w._p is buffer

    def test_dimension_mismatch_rejected(self):
        w = WindowPair(capacity=2)
        v = np.zeros(4)
        v[0] = 1.0
        w.push(np.zeros(4), v)
        with pytest.raises(ValueError):
            w.push(np.zeros(5), np.r_[v, 0.0])

    def test_non_normalized_v_rejected(self):
        w = WindowPair(capacity=2)
        with pytest.raises(ValueError, match="not normalized"):
            w.push(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_v_rejected(self, bad):
        w = WindowPair(2)
        with pytest.raises(ValueError, match="not normalized"):
            w.push(np.zeros(3), np.array([bad, 0.0, 0.0]), scale=1.0)
        assert len(w) == 0

    @pytest.mark.parametrize("given", [np.nan, np.inf, 2.0, 1.0 + 1e-9])
    def test_given_norm_is_checked(self, given):
        # The caller's ||v|| replaces the measured one, and the check runs
        # on it: a NaN, inf or wrong norm is rejected even for a unit v.
        w = WindowPair(2)
        with pytest.raises(ValueError, match="not normalized"):
            w.push(np.zeros(3), np.array([1.0, 0.0, 0.0]), v_norm=given)
        assert len(w) == 0
        w.push(np.zeros(3), np.array([3.0, 0.0, 0.0]), scale=3.0, v_norm=3.0)
        assert len(w) == 1

    @settings(max_examples=100, deadline=None)
    @given(cap=st.integers(1, 8), pushes=st.integers(0, 30), n=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_logical_is_roll_by_head(self, cap, pushes, n, seed):
        w = WindowPair(cap)
        e0 = np.eye(3)[0]
        for _ in range(pushes):
            w.push(np.zeros(3), e0)
        rng = np.random.default_rng(seed)
        for a in (rng.standard_normal(len(w)), rng.standard_normal((len(w), n))):
            expected = np.roll(a, -w.head, axis=0)
            assert w.logical(a).tobytes() == expected.tobytes()
            assert w.logical(a).shape == expected.shape

    def test_orthonormality_defect_small_for_orthonormal_pushes(self):
        w = WindowPair(capacity=5)
        for v in _orthonormal_columns(40, 5, seed=3):
            w.push(np.zeros(40), v)
        assert w.orthonormality_defect() <= 1e-10

    def test_float32_rows_hold_v_only(self):
        # push rounds v / scale to the rows' precision once; P stays float64.
        w = WindowPair(capacity=2)
        w.clear(np.float32)
        v = np.array([0.6, 0.8, 0.0])
        p = np.array([1.0 / 3.0, 0.1, 0.2])
        w.push(p, 0.5 * v, scale=0.5)
        P, V = w.rows()
        assert V.dtype == np.float32 and P.dtype == np.float64
        assert V[0].tobytes() == v.astype(np.float32).tobytes()
        assert P[0].tobytes() == (p / 0.5).tobytes()
        # A clear keeps a buffer of its precision and drops one of the
        # other, which the first push then sizes anew.
        buffer = w._v
        w.clear(np.float32)
        w.push(None, np.array([0.0, 0.0, 1.0]))
        assert w.rows()[0] is None and w.add_p_rows().dtype == np.float64
        assert w._v is buffer
        w.clear()
        assert w._v.size == 0
        w.push(None, np.array([0.0, 0.0, 1.0]))
        assert w.rows()[1].dtype == np.float64
        with pytest.raises(ValueError, match="float64 or float32"):
            w.clear(np.float16)

    def test_float32_push_rounds_once_within_an_ulp(self):
        # A float32 row is v times 1 / scale, formed in float64 and rounded
        # once to float32: within one float32 ulp of rounding v / scale.
        # Float64 rows divide, so they hold v / scale to the bit.
        rng = np.random.default_rng(5)
        n = 4096
        w32, w64 = WindowPair(capacity=4), WindowPair(capacity=4)
        w32.clear(np.float32)
        for scale in (3.0, 0.1, 7.0 / 3.0, 1e-30):
            v = rng.standard_normal(n)
            v[::7] = 0.0
            v *= scale / np.linalg.norm(v)
            w32.push(None, v, scale)
            w64.push(None, v, scale)
            got = w32.rows()[1][w32.newest_slot]
            want = (v / scale).astype(np.float32)
            # Both round the same real's sign, so adjacent floats are
            # adjacent integers.
            ulps = got.view(np.int32).astype(np.int64) - want.view(np.int32)
            assert np.abs(ulps).max() <= 1
            assert w64.rows()[1][w64.newest_slot].tobytes() == (v / scale).tobytes()

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_float32_push_allocates_no_float64_vector(self):
        n = 1 << 16  # a float64 n-vector is 512 KiB
        v = np.random.default_rng(6).standard_normal(n)
        scale = float(np.linalg.norm(v))
        w = WindowPair(capacity=2)
        w.clear(np.float32)
        w.push(None, v, scale, v_norm=scale)  # sizes the buffer
        row = w.rows()[1][0]
        assert self._peak_bytes(lambda: w.push(None, v, scale, v_norm=scale)) < 4 * n
        # The check sees a float64 temporary: assigning v * (1 / scale)
        # into the row builds one.
        assert self._peak_bytes(lambda: row.__setitem__(..., v * (1.0 / scale))) >= 8 * n

    def test_random_push_sequences_keep_invariants(self):
        # Property sweep: any reachable push sequence of orthonormalized
        # columns keeps the window orthonormal, within capacity, and paired.
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(4, 30))
            cap = int(rng.integers(1, 6))
            w = WindowPair(capacity=cap)
            pushes = int(rng.integers(1, 12))
            Q, _ = np.linalg.qr(rng.standard_normal((n, min(n, pushes))))
            for j in range(Q.shape[1]):
                w.push(np.full(n, float(j)), Q[:, j])
                assert len(w) <= cap
                assert w.p_matrix().shape == w.v_matrix().shape == (n, len(w))
                assert w.orthonormality_defect() <= 1e-10
                assert w.p_matrix()[0, 0] == float(max(0, j - cap + 1))

    def test_pairs_stay_paired_through_eviction(self):
        w = WindowPair(capacity=3)
        vs = _orthonormal_columns(8, 6, seed=1)
        for i, v in enumerate(vs):
            w.push(np.full(8, float(i)), v)
            for slot in range(len(w)):
                origin = int(w.p_matrix()[0, slot])
                np.testing.assert_array_equal(w.v_matrix()[:, slot], vs[origin])


class TestWindowRing:
    """The ring layout against a Python list of (p, v) pairs, oldest first."""

    N = 40  # room for 4 x 8 orthonormal v columns, one per push

    @settings(max_examples=150, deadline=None)
    @given(cap=st.integers(1, 8), data=st.data())
    def test_ring_matches_list_model(self, cap, data):
        ops = data.draw(st.lists(st.sampled_from(["push", "add", "clear"]), max_size=4 * cap))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Q, _ = np.linalg.qr(rng.standard_normal((self.N, 4 * cap)))
        w = WindowPair(cap)
        model = []
        for step, op in enumerate(ops):
            if op == "clear":
                w.clear()
                model = []
                continue
            q = Q[:, step]
            p = rng.standard_normal(self.N)
            if op == "push":
                w.push(p, q)
                pair = (p, q)
            else:
                # Raw v = q plus known multiples c of the window's v columns:
                # Gram-Schmidt must report c in window order.
                c = rng.standard_normal(len(model))
                v_raw = q + sum((cj * vj for cj, (_, vj) in zip(c, model)), np.zeros(self.N))
                p_raw = p + sum((cj * pj for cj, (pj, _) in zip(c, model)), np.zeros(self.N))
                s, b = add_direction(w, p_raw, v_raw, r0_norm=1.0)
                np.testing.assert_allclose(b, c, rtol=0, atol=1e-12)
                assert s == pytest.approx(1.0, abs=1e-12)
                newest_p, newest_v = w.p_matrix()[:, -1], w.v_matrix()[:, -1]
                np.testing.assert_allclose(newest_v, q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(newest_p, p, rtol=0, atol=1e-12 * np.abs(p_raw).max())
                pair = (newest_p.copy(), newest_v.copy())
            model.append(pair)
            if len(model) > cap:
                model.pop(0)
            self._check(w, model, rng)

    def _check(self, w, model, rng):
        assert len(w) == len(model)
        P_log = np.stack([p for p, _ in model], axis=1)
        V_log = np.stack([v for _, v in model], axis=1)
        np.testing.assert_array_equal(w.p_matrix(), P_log)
        np.testing.assert_array_equal(w.v_matrix(), V_log)
        P_rows, V_rows = w.rows()
        np.testing.assert_array_equal(V_rows[w.newest_slot], V_log[:, -1])
        # The storage-order products are the logical-order ones, summed in
        # another order. The P and V products take the same y, put back in
        # logical order, so only the summation order differs.
        r = rng.standard_normal(self.N)
        y = V_rows @ r
        y_log = V_log.T @ r
        np.testing.assert_allclose(w.logical(y), y_log, rtol=0, atol=1e-14 * (np.abs(V_log).T @ np.abs(r)).max())
        y_same = w.logical(y)
        scale = (np.abs(P_log) @ np.abs(y_same)).max()
        np.testing.assert_allclose(np.dot(y, P_rows), P_log @ y_same, rtol=0, atol=1e-14 * scale)
        scale = (np.abs(V_log) @ np.abs(y_same)).max()
        np.testing.assert_allclose(np.dot(y, V_rows), V_log @ y_same, rtol=0, atol=1e-14 * scale)


class TestConvergenceTrace:
    def _rec(self, it, fev, res=1.0):
        return TraceRecord(it, fev, res, 1.0, "NL", 0.0)

    def test_first_append(self):
        t = ConvergenceTrace()
        t.append(self._rec(0, 2))
        assert len(t) == 1

    def test_decreasing_fevals_rejected(self):
        t = ConvergenceTrace()
        t.append(self._rec(0, 5))
        with pytest.raises(ValueError, match="nondecreasing"):
            t.append(self._rec(1, 4))

    def test_many_appends_fevals_nondecreasing(self):
        t = ConvergenceTrace()
        fev = 0
        for i in range(300):
            fev += 1 + (i % 3)
            t.append(self._rec(i, fev))
        assert len(t) == 300
        assert np.all(np.diff(t.fevals()) >= 0)

    def test_frozen_trace_rejects_appends(self):
        t = ConvergenceTrace()
        t.append(self._rec(0, 1))
        t.freeze()
        with pytest.raises(RuntimeError):
            t.append(self._rec(1, 2))

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            TraceRecord(0, 1, 1.0, 1.0, "XX", 0.0)

    def test_csv_roundtrip_and_precision(self, tmp_path):
        t = ConvergenceTrace()
        t.append(TraceRecord(0, 1, 1.0 / 3.0, 0.5, "NL", 0.01))
        t.append(TraceRecord(1, 3, 1.2345678901234567e-9, 1.0, "LIN", 0.02))
        path = tmp_path / "trace.csv"
        text = t.to_csv(path)
        lines = text.splitlines()
        assert lines[0] == "iter,fevals,resnorm,step_size,mode,wallclock_s"
        # resnorm written in scientific notation with 17 significant digits
        import re

        assert re.match(r"^0,1,\d\.\d{16}e[+-]\d{2},", lines[1])
        # 17 significant digits survive the round trip exactly
        back = ConvergenceTrace.from_csv(path)
        assert back.records[0].resnorm == t.records[0].resnorm
        assert back.records[1].resnorm == t.records[1].resnorm
        assert back.records[1].mode == "LIN"

    def test_fevals_to_relative(self):
        t = ConvergenceTrace()
        t.append(TraceRecord(0, 1, 10.0, 0.0, "NL", 0.0))
        t.append(TraceRecord(1, 3, 1.0, 1.0, "NL", 0.0))
        t.append(TraceRecord(2, 5, 1e-5, 1.0, "NL", 0.0))
        assert t.fevals_to_relative(1e-1) == 3
        assert t.fevals_to_relative(1e-6) is None

    # Rows with every float a CSV line must spell out: -0, subnormal, inf,
    # nan, fevals past 2^32 and a wallclock that rounds up.
    EDGE_ROWS = [
        (0, 1, 1.0 / 3.0, 0.0, "NL", 0.0),
        (1, 3, -0.0, 1.0, "LIN", 0.0123456789),
        (2, 3, 1e-300, 0.8**7, "NL", 1.5e-7),
        (3, 2**40, float("inf"), 5e-324, "LIN", 12345.678901),
        (4, 2**40 + 1, float("nan"), -2.5, "NL", 0.9999995),
    ]

    def test_records_view_equals_the_appended_rows(self):
        rows = [TraceRecord(*row) for row in self.EDGE_ROWS]
        t = ConvergenceTrace()
        assert t.records == [] and t.fevals_to_relative(0.5) is None
        for rec in rows:
            t.append(rec)
        # nan != nan, so the rows are compared by their reprs.
        assert [repr(r) for r in t.records] == [repr(r) for r in rows]
        assert repr(t.final()) == repr(rows[-1])
        assert t.resnorms().tobytes() == np.array([r.resnorm for r in rows]).tobytes()
        assert t.fevals().tolist() == [r.fevals for r in rows]
        assert t.fevals().dtype == np.dtype(int)
        with pytest.raises(AttributeError):
            t.records = []

    def test_csv_gives_the_bytes_it_gave(self, tmp_path):
        # The sha256 prefix of the CSV text these rows gave when the trace
        # kept one TraceRecord per row; from_csv reads every field back.
        import hashlib

        t = ConvergenceTrace()
        for row in self.EDGE_ROWS:
            t.append(TraceRecord(*row))
        text = t.to_csv(tmp_path / "edge.csv")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "8c03697cb14982cd"
        assert ConvergenceTrace.from_csv(tmp_path / "edge.csv").to_csv() == text

    def test_csv_of_a_solve_is_its_records_formatted(self):
        # The CSV as the record-per-row trace wrote it, from the records view.
        from nltgcr import BratuProblem

        bp = BratuProblem(grid_n=8)
        _, t = nltgcr_solve(bp.problem(), np.zeros(bp.dim),
                            SolverOptions(window_m=3, tol_rel=1e-10, variant="adaptive"))
        want = "iter,fevals,resnorm,step_size,mode,wallclock_s\n" + "".join(
            f"{r.iter},{r.fevals},{r.resnorm:.16e},{r.step_size:.16e},{r.mode},"
            f"{r.wallclock_s:.6f}\n" for r in t.records)
        assert {r.mode for r in t.records} == {"NL", "LIN"}
        assert t.to_csv() == want

    def test_rejected_appends_leave_the_trace_as_it_was(self):
        t = ConvergenceTrace()
        t.append(self._rec(0, 5, 2.0))
        with pytest.raises(ValueError, match="nondecreasing"):
            t.append(self._rec(1, 4))
        with pytest.raises(ValueError, match="mode"):
            t.append(TraceRecord(1, 6, 1.0, 1.0, "XX", 0.0))
        # fevals is a count: a float has no place in its int64 column.
        with pytest.raises(TypeError):
            t.append(TraceRecord(1, 6.5, 1.0, 1.0, "NL", 0.0))
        t.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            t.append(self._rec(1, 6))
        assert len(t) == 1 and t.records == [self._rec(0, 5, 2.0)]

    def test_a_row_costs_under_64_bytes(self):
        # Six numbers are 41 bytes in columns; a TraceRecord object per row
        # held 237.
        import tracemalloc

        rows = 10**4
        t = ConvergenceTrace()
        t.append(self._rec(0, 0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(1, rows + 1):
                t.append(TraceRecord(i, i, 1.0 / i, 1.0, "LIN" if i % 2 else "NL", 1e-3 * i))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(t) == rows + 1
        assert held < 64 * rows


class TestSolverOptions:
    def test_defaults_valid(self):
        opts = SolverOptions()
        assert opts.window_m == 1
        assert opts.adaptive_threshold == 0.01
        assert opts.adaptive_check_period == 10
        assert opts.restart_every == 50

    @pytest.mark.parametrize(
        "kw",
        [
            {"window_m": 0},
            {"tol_rel": 0.0},
            {"adaptive_threshold": 0.0},
            {"adaptive_threshold": 2.0},
            {"variant": "bogus"},
            {"restart_every": 0},
            {"tol_rel": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverOptions(**kw)

    def test_linesearch_options_validated(self):
        with pytest.raises(ValueError):
            LineSearchOptions(tau=1.0)
        with pytest.raises(ValueError):
            LineSearchOptions(c1=0.0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_linesearch_needs_one_trial(self, n):
        # With no trial allowed, both searches had nothing to return.
        with pytest.raises(ValueError, match="max_backtracks"):
            LineSearchOptions(max_backtracks=n)
        LineSearchOptions(max_backtracks=1)


class TestEvalCounter:
    @pytest.mark.parametrize(
        "f, shape",
        [(lambda x: x[:2], (2,)), (lambda x: x[:, None], (3, 1)), (lambda x: float(x @ x), ())],
        ids=["short", "column", "scalar"],
    )
    def test_f_of_another_shape_is_rejected(self, f, shape):
        prob = NonlinearProblem(dim=3, eval_f=f)
        message = re.escape(f"f(x) has shape {shape}, expected (3,)")
        with pytest.raises(ValueError, match=message):
            EvalCounter(prob).f(np.ones(3))
        # In a solve it is a failure at x0 that carries x0 and the empty
        # frozen trace, as bench run records it.
        with pytest.raises(ValueError, match=message) as info:
            nltgcr_solve(prob, np.ones(3))
        assert info.value.trace.frozen and len(info.value.trace) == 0
        np.testing.assert_array_equal(info.value.x, np.ones(3))

    @pytest.mark.parametrize("jv, shape", [(lambda x, p: p[:, None], (5, 1)),
                                           (lambda x, p: p[:1], (1,))], ids=["column", "short"])
    def test_exact_jv_of_another_shape_is_rejected(self, jv, shape):
        # Rejected where it is made, as f is: unchecked, a column failed in
        # all_finite's product and a short one in the window's push.
        d = np.arange(1.0, 6.0)
        prob = NonlinearProblem(dim=5, eval_f=lambda x: d * x - 1.0, exact_jv=jv)
        message = re.escape(f"J(x) p has shape {shape}, expected (5,)")
        with pytest.raises(ValueError, match=message) as info:
            nltgcr_solve(prob, np.zeros(5), exact_jv=True)
        assert info.value.trace.frozen and len(info.value.trace) == 1

    def test_counts_f_and_frechet(self):
        prob = NonlinearProblem(dim=2, eval_f=lambda x: x * x)
        ev = EvalCounter(prob)
        x = np.array([1.0, 2.0])
        fx = ev.f(x)
        assert ev.count == 1
        ev.jv(x, np.array([1.0, 0.0]), -fx)
        assert ev.count == 2

    def test_exact_probe_costs_nothing(self):
        prob = NonlinearProblem(
            dim=2,
            eval_f=lambda x: x,
            exact_jv=lambda x, p: p,
        )
        ev = EvalCounter(prob, exact_jv=True)
        fx = ev.f(np.ones(2))
        ev.jv(np.ones(2), np.ones(2), -fx)
        assert ev.count == 1

    def test_non_finite_f_raises(self):
        prob = NonlinearProblem(dim=1, eval_f=lambda x: np.full(1, np.inf))
        ev = EvalCounter(prob)
        with pytest.raises(NonFiniteError):
            ev.f(np.ones(1))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_overflowing_sum_of_squares_is_not_non_finite(self, bad, where):
        # Entries near 1e200 overflow f @ f to inf, yet every entry is finite;
        # one NaN or inf entry among them still raises.
        def f(x):
            out = np.full(5, 1e200) * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
            if bad is not None:
                out[where] = bad
            return out

        ev = EvalCounter(NonlinearProblem(dim=5, eval_f=f))
        if bad is None:
            assert not np.isfinite(f(None) @ f(None))
            np.testing.assert_array_equal(ev.f(np.zeros(5)), f(None))
        else:
            with pytest.raises(NonFiniteError, match="not finite"):
                ev.f(np.zeros(5))
