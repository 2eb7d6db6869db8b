import numpy as np
import pytest

from nltgcr import (
    ConvergenceTrace,
    EvalCounter,
    JvProbe,
    LineSearchOptions,
    NonFiniteError,
    NonlinearProblem,
    SolverOptions,
    TraceRecord,
    WindowPair,
)


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
        assert w.oldest_index == 0

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

    def test_oldest_index_matches_window_start_formula(self):
        # After pushing pairs 0..j with capacity m, the window holds
        # max(0, j - m + 1) .. j. Enumerated by hand for j = 0..6, m = 4.
        m = 4
        w = WindowPair(capacity=m)
        vs = _orthonormal_columns(10, 7)
        for j in range(7):
            w.push(np.full(10, float(j)), vs[j])
            assert w.oldest_index == max(0, j - m + 1)
            assert w.p_matrix()[0, 0] == float(max(0, j - m + 1))

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

    def test_orthonormality_defect_small_for_orthonormal_pushes(self):
        w = WindowPair(capacity=5)
        for v in _orthonormal_columns(40, 5, seed=3):
            w.push(np.zeros(40), v)
        assert w.orthonormality_defect() <= 1e-10

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
                assert w.oldest_index == max(0, j - cap + 1)

    def test_pairs_stay_paired_through_eviction(self):
        w = WindowPair(capacity=3)
        vs = _orthonormal_columns(8, 6, seed=1)
        for i, v in enumerate(vs):
            w.push(np.full(8, float(i)), v)
            for slot in range(len(w)):
                origin = int(w.p_matrix()[0, slot])
                np.testing.assert_array_equal(w.v_matrix()[:, slot], vs[origin])


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


class TestEvalCounter:
    def test_counts_f_and_frechet(self):
        prob = NonlinearProblem(dim=2, eval_f=lambda x: x * x)
        ev = EvalCounter(prob, JvProbe())
        x = np.array([1.0, 2.0])
        fx = ev.f(x)
        assert ev.count == 1
        ev.jv(x, np.array([1.0, 0.0]), fx)
        assert ev.count == 2

    def test_exact_probe_costs_nothing(self):
        prob = NonlinearProblem(
            dim=2,
            eval_f=lambda x: x,
            exact_jv=lambda x, p: p,
        )
        ev = EvalCounter(prob, JvProbe(mode="exact"))
        fx = ev.f(np.ones(2))
        ev.jv(np.ones(2), np.ones(2), fx)
        assert ev.count == 1

    def test_non_finite_f_raises(self):
        prob = NonlinearProblem(dim=1, eval_f=lambda x: np.full(1, np.inf))
        ev = EvalCounter(prob)
        with pytest.raises(NonFiniteError):
            ev.f(np.ones(1))
