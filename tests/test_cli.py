import math

import numpy as np

from nltgcr import cli
from nltgcr.cli import main
from nltgcr.core import ConvergenceTrace, LineSearchOptions, SolverOptions
from nltgcr.problems import BratuProblem


BASE_CONFIG = """\
[bratu-small]
problem = bratu
grid_n = 15
lambda = 0.5
x0 = zeros
solver = nltgcr
m = 1
variant = adaptive
linesearch = on
restart_every = none
tol = 1e-8
max_iters = 200
seed = 0
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_run_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        rc = main(["run", str(cfg), "--out", str(out)])
        assert rc == 0
        trace_path = out / "bratu-small_rep0.csv"
        assert trace_path.exists()
        trace = ConvergenceTrace.from_csv(trace_path)
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "solver,problem,fevals_to_tol,final_resnorm,wallclock_s"
        assert summary[1].startswith("nltgcr,bratu,")

    def test_unknown_solver_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_CONFIG.replace("solver = nltgcr", "solver = bogus"))
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_CONFIG.replace("problem = bratu", "problem = bogus"))
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_empty_config_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_solver_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "[r]\nproblem = bratu\ngrid_n = 5\n")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_deterministic_traces_modulo_wallclock(self, tmp_path):
        cfg = _write(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0

        def strip_wallclock(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        a = strip_wallclock(out1 / "bratu-small_rep0.csv")
        b = strip_wallclock(out2 / "bratu-small_rep0.csv")
        assert a == b

    def test_summary_fevals_match_instrumented_problem(self, tmp_path):
        # Independent cross-check: rerun the same config manually with a
        # counting wrapper and compare raw oracle calls with the trace.
        from nltgcr import BratuProblem, LineSearchOptions, NonlinearProblem, SolverOptions, nltgcr_solve

        cfg = _write(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        trace = ConvergenceTrace.from_csv(out / "bratu-small_rep0.csv")

        calls = {"n": 0}
        bp = BratuProblem(grid_n=15, lam=0.5)

        def counted(u):
            calls["n"] += 1
            return bp.f(u)

        prob = NonlinearProblem(dim=bp.dim, eval_f=counted)
        opts = SolverOptions(
            window_m=1, tol_rel=1e-8, max_iters=200, restart_every=None,
            variant="adaptive", linesearch=LineSearchOptions(),
        )
        _, trace2 = nltgcr_solve(prob, np.zeros(bp.dim), opts)
        assert trace2.final().fevals == calls["n"]
        assert trace.final().fevals == trace2.final().fevals

    def test_seed_and_tol_overrides(self, tmp_path):
        cfg = _write(
            tmp_path,
            """\
[lj-tiny]
problem = lennard-jones
cells = 2
solver = nltgcr
m = 5
linesearch = on
restart_every = none
tol = 1e-5
max_iters = 300
seed = 3
""",
        )
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--out", str(out), "--seed", "4", "--tol", "1e-4"])
        assert rc == 0
        assert (out / "lj-tiny_rep0.csv").exists()

    def test_adaptive_beats_nonlinear_in_summary(self, tmp_path):
        cfg = _write(
            tmp_path,
            """\
[bratu-adaptive]
problem = bratu
grid_n = 30
x0 = ones
solver = nltgcr
m = 1
variant = adaptive
linesearch = on
restart_every = none
tol = 1e-8
max_iters = 400
seed = 0

[bratu-nonlinear]
problem = bratu
grid_n = 30
x0 = ones
solver = nltgcr
m = 1
variant = nonlinear
linesearch = on
restart_every = none
tol = 1e-8
max_iters = 400
seed = 0
""",
        )
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        fevals = [int(r.split(",")[2]) for r in rows]
        assert fevals[0] < fevals[1]

    def test_repetitions_write_one_trace_each(self, tmp_path):
        cfg = _write(
            tmp_path,
            """\
[logreg-reps]
problem = logreg
samples = 80
features = 8
solver = nltgcr
m = 5
restart_every = none
tol = 1e-6
max_iters = 150
seed = 1
repetitions = 2
""",
        )
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "logreg-reps_rep0.csv").exists()
        assert (out / "logreg-reps_rep1.csv").exists()
        # the second repetition reseeds the synthetic data, so traces differ
        a = (out / "logreg-reps_rep0.csv").read_text()
        b = (out / "logreg-reps_rep1.csv").read_text()
        assert a != b

    def test_props_flag_writes_property_report(self, tmp_path):
        import json

        cfg = _write(tmp_path, BASE_CONFIG + "props = on\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "bratu-small_rep0_props.json").read_text())
        assert len(report) > 5
        assert all("item1_vt_rtilde" in rec for rec in report)

    def test_divergence_recorded_not_fatal(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            """\
[aa-diverge]
problem = bratu
grid_n = 10
x0 = ones
solver = aa
m = 5
beta = 2.0
tol = 1e-8
max_iters = 300
""",
        )
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "diverged" in capsys.readouterr().out

    def test_failed_solve_recorded_and_batch_continues(self, tmp_path, capsys):
        # lambda = 50 is past the Bratu turning point: the iterate leaves the
        # range where exp(u) is finite and the solve raises ValueError.
        cfg = _write(
            tmp_path,
            """\
[bratu-supercritical]
problem = bratu
grid_n = 5
lambda = 50
x0 = zeros
solver = nltgcr
tol = 1e-8
max_iters = 200

"""
            + BASE_CONFIG,
        )
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "bratu-supercritical rep0" in printed
        assert "failed: ValueError: exp overflow" in printed
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[2] == "-"
        assert math.isfinite(float(rows[0].split(",")[3]))
        assert (out / "bratu-supercritical_rep0.csv").exists()
        assert rows[1].split(",")[2] != "-"
        trace = ConvergenceTrace.from_csv(out / "bratu-small_rep0.csv")
        assert trace.final().resnorm <= 1e-8 * trace.records[0].resnorm

    def test_every_baseline_failure_after_start_writes_a_trace(self, tmp_path, capsys):
        # Past the Bratu turning point the baselines end in DivergenceError,
        # NotDescentError or an evaluation's ValueError. Each failure after
        # x0 must leave its trace CSV and a finite final residual.
        cfg = "".join(
            f"[{solver}-{form}]\nproblem = bratu\ngrid_n = 5\nlambda = 50\nx0 = zeros\n"
            f"form = {form}\nsolver = {solver}\ntol = 1e-8\nmax_iters = 200\n\n"
            for solver in ("aa", "newton-krylov", "broyden2", "nesterov", "ncg", "lbfgs")
            for form in ("roots", "minimization")
        )
        out = tmp_path / "o"
        assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if " rep0: " in line]
        assert len(printed) == 12
        failed = [line for line in printed if line.endswith("]")]
        for kind in ("[diverged]", "NotDescentError", "ValueError: exp overflow"):
            assert any(kind in line for line in failed), kind
        for line in failed:
            run = line.split(" rep0: ")[0]
            assert (out / f"{run}_rep0.csv").exists(), line
            assert math.isfinite(float(line.split(" final=")[1].split(" ")[0])), line

    def test_failure_at_start_writes_no_trace(self, tmp_path, capsys, monkeypatch):
        # A solve refused at x0 carries an empty trace: the run is recorded
        # without a trace CSV and the batch does not crash on it.
        from nltgcr.problems import BratuProblem

        def refuse(self, u):
            raise ValueError("exp overflow: u is out of physical range")

        monkeypatch.setattr(BratuProblem, "f", refuse)
        out = tmp_path / "o"
        rc = main(["run", str(_write(tmp_path, BASE_CONFIG)), "--out", str(out)])
        assert rc == 0
        assert "failed: ValueError: exp overflow" in capsys.readouterr().out
        assert not (out / "bratu-small_rep0.csv").exists()
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "-" and row[3] == "nan"

    def test_unset_keys_take_the_library_defaults(self, tmp_path, monkeypatch):
        # A section that sets only problem and solver passes no other option,
        # so the problem, SolverOptions and the solver use their own defaults.
        seen = {}

        def spy(name):
            def solve(prob, x0, *args, **kw):
                seen[name] = (prob.dim, args, kw)
                raise ValueError("stop")  # recorded as a failed run

            return solve

        monkeypatch.setattr(cli, "nltgcr_solve", spy("nltgcr"))
        monkeypatch.setattr(cli, "newton_krylov_solve", spy("newton-krylov"))
        cfg = _write(tmp_path, "[a]\nproblem = bratu\nsolver = nltgcr\n"
                               "[b]\nproblem = bratu\nsolver = newton-krylov\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--tol", "1e-6"]) == 0
        dim = BratuProblem().dim
        assert seen["nltgcr"] == (dim, (SolverOptions(tol_rel=1e-6),), {"observer": None})
        opts = SolverOptions(tol_rel=1e-6, linesearch=LineSearchOptions())
        assert seen["newton-krylov"] == (dim, (), {"opts": opts})

    def test_every_key_reaches_its_library_argument(self, tmp_path, monkeypatch):
        # Each key README lists, set to a value other than its default, must
        # reach its library argument parsed. The problem classes are spied
        # and still built; the solvers are spied and stop at once.
        from nltgcr.problems import LennardJonesProblem, logreg_make_synthetic

        seen = []

        def spy(name, real=None):
            def call(*args, **kw):
                seen.append((name, args, kw))
                if real is None:
                    raise ValueError("stop")  # recorded as a failed run
                return real(*args, **kw)

            return call

        monkeypatch.setattr(cli, "BratuProblem", spy("bratu", BratuProblem))
        monkeypatch.setattr(cli, "LennardJonesProblem", spy("lj", LennardJonesProblem))
        monkeypatch.setattr(cli, "logreg_make_synthetic", spy("logreg", logreg_make_synthetic))
        solvers = ("nltgcr_solve", "aa_solve", "newton_krylov_solve", "broyden2_solve",
                   "nesterov_solve", "ncg_fr_solve", "lbfgs_solve")
        for fn in solvers:
            monkeypatch.setattr(cli, fn, spy(fn))
        bratu = ("problem = bratu\ngrid_n = 7\nlambda = 0.25\nscaled = on\n"
                 "form = minimization\nx0 = ones\n")
        lj = "problem = lennard-jones\ncells = 2\nperturbation = 0.02\nseed = 3\n"
        logreg = "problem = logreg\nsamples = 20\nfeatures = 3\nreg = 0.5\nseed = 2\n"
        cfg = (
            f"[nltgcr]\n{bratu}solver = nltgcr\nm = 3\nmax_iters = 17\nrestart_every = none\n"
            "variant = linearized\nlinesearch = on\nprops = on\ntol = 1e-7\n"
            f"[aa-defaults]\n{lj}repetitions = 2\nsolver = aa\nmax_iters = 11\ntol = 1e-5\n"
            f"[aa]\n{bratu}solver = aa\nm = 4\nbeta = 0.5\n"
            f"[newton-krylov]\n{logreg}solver = newton-krylov\ninner_m = 7\neta0 = 0.5\n"
            f"[broyden2]\n{bratu}solver = broyden2\nbeta = 0.7\n"
            f"[nesterov]\n{bratu}solver = nesterov\nmax_iters = 9\n"
            f"[ncg]\n{bratu}solver = ncg\ntol = 1e-3\n"
            f"[lbfgs]\n{bratu}solver = lbfgs\nm = 4\n"
        )
        assert main(["run", str(_write(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 0
        problems, calls = seen[0::2], seen[1::2]
        bratu_kw = {"grid_n": 7, "lam": 0.25, "scaled": True}
        assert problems == [
            ("bratu", (), bratu_kw),
            ("lj", (), {"rng_seed": 3, "cells_per_side": 2, "perturbation_scale": 0.02}),
            ("lj", (), {"rng_seed": 4, "cells_per_side": 2, "perturbation_scale": 0.02}),
            ("bratu", (), bratu_kw),
            ("logreg", (), {"seed": 2, "n_samples": 20, "n_features": 3, "lambda_reg": 0.5}),
            *[("bratu", (), bratu_kw)] * 4,
        ]
        for (problem, _, _), (_, args, _) in zip(problems, calls):
            if problem == "bratu":
                assert args[0].name == "bratu-min" and args[0].dim == 49
                assert np.array_equal(args[1], np.ones(49))
        ls = LineSearchOptions()
        nl = SolverOptions(window_m=3, tol_rel=1e-7, max_iters=17, restart_every=None,
                           variant="linearized", linesearch=ls)
        name, args, kw = calls[0]
        assert (name, args[2:]) == ("nltgcr_solve", (nl,))
        assert list(kw) == ["observer"] and kw["observer"] is not None
        lj_x0 = LennardJonesProblem(cells_per_side=2, perturbation_scale=0.02, rng_seed=4)
        assert np.array_equal(calls[2][1][1], lj_x0.initial_positions())
        x0 = 1e-6 * np.random.default_rng(2).standard_normal(3)
        assert np.array_equal(calls[4][1][1], x0)
        base = SolverOptions(linesearch=ls)
        aa_opts = SolverOptions(tol_rel=1e-5, max_iters=11, linesearch=ls)
        assert [(name, kw) for name, _, kw in calls[1:]] == [
            ("aa_solve", {"opts": aa_opts, "m": 10, "beta": 0.1}),
            ("aa_solve", {"opts": aa_opts, "m": 10, "beta": 0.1}),
            ("aa_solve", {"opts": base, "m": 4, "beta": 0.5}),
            ("newton_krylov_solve", {"opts": base, "inner_m": 7, "eta0": 0.5}),
            ("broyden2_solve", {"opts": base, "beta": 0.7}),
            ("nesterov_solve", {"opts": SolverOptions(max_iters=9, linesearch=ls)}),
            ("ncg_fr_solve", {"opts": SolverOptions(tol_rel=1e-3, linesearch=ls)}),
            ("lbfgs_solve", {"opts": base, "m": 4}),
        ]

    def test_committed_demo_config_runs(self, tmp_path, capsys):
        from pathlib import Path

        demo = Path(__file__).resolve().parent.parent / "configs" / "bratu_demo.ini"
        out = tmp_path / "o"
        assert main(["run", str(demo), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [
            ["nltgcr", "bratu"], ["newton-krylov", "bratu"], ["lbfgs", "bratu"]
        ]
        # Each run reached its tol; the final residual's digits vary with the
        # BLAS thread count, so they are not pinned.
        assert all(r[2] != "-" and int(r[2]) > 0 for r in rows)

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        # A bad value stops the batch and names its run, instead of running
        # with a guess (form, linesearch) or as a recorded failed solve.
        cases = [
            ("m = 1", "m = one", "bad value for 'm'"),
            ("x0 = zeros", "x0 = zeros\nform = minimisation", "unknown bratu form"),
            ("linesearch = on", "linesearch = enabled", "bad value for 'linesearch'"),
            ("restart_every = none", "restart_every = abc", "bad value for 'restart_every'"),
            ("variant = adaptive", "variant = bogus", "variant must be one of"),
            ("m = 1", "m = 0", "window_m must be >= 1"),
        ]
        for old, new, message in cases:
            cfg = _write(tmp_path, BASE_CONFIG.replace(old, new))
            rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 2, new
            assert err.startswith("error: run 'bratu-small': ") and message in err, err

    def test_nan_tol_stops_before_any_solve(self, tmp_path, capsys):
        # A NaN tol is never met: the solve ran to max_iters and its row read
        # "-". Both the key and the --tol override are refused.
        for text, extra in ((BASE_CONFIG.replace("tol = 1e-8", "tol = nan"), []),
                            (BASE_CONFIG, ["--tol", "nan"])):
            out = tmp_path / "o"
            assert main(["run", str(_write(tmp_path, text)), "--out", str(out), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: run 'bratu-small': bad value: tol_rel must be positive\n"
            assert captured.out == "" and not out.exists()

    def test_unknown_key_stops_before_any_solve(self, tmp_path, capsys):
        # A key that neither the run's problem nor its solver reads is a typo
        # or a key of another solver; it used to be dropped without a word.
        good = BASE_CONFIG.replace("[bratu-small]", "[good]")
        aa = "[aa]\nproblem = bratu\ngrid_n = 5\nsolver = aa\n"
        cases = [
            (BASE_CONFIG.replace("lambda", "lamda").replace("variant", "varient"),
             "bratu-small", "unknown key(s) 'lamda', 'varient'"),
            (aa + "props = on\nlinesearch = off\n", "aa", "unknown key(s) 'props', 'linesearch'"),
            (aa + "variant = adaptive\n", "aa", "unknown key(s) 'variant'"),
            ("[lj]\nproblem = lennard-jones\nsolver = lbfgs\ngrid_n = 5\n", "lj",
             "unknown key(s) 'grid_n'"),
        ]
        for i, (section, run, message) in enumerate(cases):
            out = tmp_path / f"o{i}"
            rc = main(["run", str(_write(tmp_path, good + "\n" + section)), "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 2, section
            assert captured.err == f"error: run '{run}': {message}\n"
            assert captured.out == ""
            assert not out.exists()

    def test_default_section_keys_are_shared_not_checked(self, tmp_path, capsys):
        # [DEFAULT] keys reach every run, and runs read different keys: here
        # nltgcr reads m and variant, nesterov neither.
        cfg = ("[DEFAULT]\nproblem = bratu\ngrid_n = 6\nm = 2\nvariant = adaptive\n"
               "tol = 1e-6\nmax_iters = 300\n"
               "[nl]\nsolver = nltgcr\n[nv]\nsolver = nesterov\n")
        out = tmp_path / "o"
        assert main(["run", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["nltgcr", "nesterov"]


    def test_bad_value_in_a_later_run_stops_before_any_solve(self, tmp_path, capsys):
        good = BASE_CONFIG.replace("[bratu-small]", "[good]").replace("grid_n = 15", "grid_n = 8")
        bad = BASE_CONFIG.replace("[bratu-small]", "[bad]").replace(
            "variant = adaptive", "variant = bogus"
        )
        out = tmp_path / "o"
        rc = main(["run", str(_write(tmp_path, good + "\n" + bad)), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: run 'bad': ") and "variant" in captured.err
        # No solve ran: nothing printed, no output directory, so no CSV.
        assert captured.out == ""
        assert not out.exists()
    def test_bad_seed_or_repetitions_stops_before_any_solve(self, tmp_path, capsys):
        # A negative seed reaches default_rng only in a later run's first
        # solve, and zero repetitions would write an empty summary.
        good = BASE_CONFIG.replace("[bratu-small]", "[good]").replace("grid_n = 15", "grid_n = 8")
        bad = BASE_CONFIG.replace("[bratu-small]", "[bad]")
        cases = [
            (bad.replace("seed = 0", "seed = -1"), [], "seed must be >= 0"),
            (bad, ["--seed", "-1"], "seed must be >= 0"),
            (bad + "repetitions = 0\n", [], "repetitions must be >= 1"),
        ]
        for i, (section, extra, message) in enumerate(cases):
            out = tmp_path / f"o{i}"
            cfg = _write(tmp_path, good + "\n" + section)
            rc = main(["run", str(cfg), "--out", str(out), *extra])
            captured = capsys.readouterr()
            assert rc == 2
            run = "good" if extra else "bad"
            assert captured.err.startswith(f"error: run '{run}': ") and message in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_problem_size_below_one_stops_before_any_solve(self, tmp_path, capsys):
        # An empty problem used to run as a failed solve with a cryptic
        # message, or (cells = 0) to end the batch with a traceback.
        good = BASE_CONFIG.replace("[bratu-small]", "[good]").replace("grid_n = 15", "grid_n = 8")
        cases = [
            (BASE_CONFIG.replace("grid_n = 15", "grid_n = 0"), "grid_n"),
            (BASE_CONFIG.replace("grid_n = 15", "grid_n = -3"), "grid_n"),
            ("[bratu-small]\nproblem = lennard-jones\ncells = 0\nsolver = nltgcr\n", "cells"),
            ("[bratu-small]\nproblem = logreg\nsamples = 0\nsolver = lbfgs\n", "samples"),
            ("[bratu-small]\nproblem = logreg\nfeatures = 0\nsolver = lbfgs\n", "features"),
        ]
        for i, (section, key) in enumerate(cases):
            out = tmp_path / f"o{i}"
            rc = main(["run", str(_write(tmp_path, good + "\n" + section)), "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 2, section
            assert captured.err.startswith("error: run 'bratu-small': ")
            assert f"bad value for '{key}'" in captured.err
            assert captured.out == ""
            assert not out.exists()


class TestCompare:
    def _trace_csv(self, tmp_path, name, resnorms, start_fev=1):
        from nltgcr.core import ConvergenceTrace, TraceRecord

        t = ConvergenceTrace()
        fev = start_fev
        for i, rn in enumerate(resnorms):
            t.append(TraceRecord(i, fev, rn, 1.0, "NL", 0.0))
            fev += 2
        path = tmp_path / name
        t.to_csv(path)
        return path

    def test_single_trace_table(self, tmp_path, capsys):
        p = self._trace_csv(tmp_path, "a.csv", [1.0, 1e-5, 1e-7])
        rc = main(["compare", str(p)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("trace,fevals_to_0.0001")
        assert len(out) == 2

    def test_rows_sorted_by_mid_threshold(self, tmp_path, capsys):
        slow = self._trace_csv(tmp_path, "slow.csv", [1.0, 1e-2, 1e-5, 1e-7])
        fast = self._trace_csv(tmp_path, "fast.csv", [1.0, 1e-7])
        rc = main(["compare", str(slow), str(fast)])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith(str(fast))
        assert rows[1].startswith(str(slow))

    def test_unreached_threshold_marked(self, tmp_path, capsys):
        p = self._trace_csv(tmp_path, "stall.csv", [1.0, 0.5, 0.4])
        rc = main(["compare", str(p)])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert "—" in row

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,nope\n1,2\n")
        rc = main(["compare", str(bad)])
        assert rc == 2

    def test_row_of_wrong_length_exits_2(self, tmp_path, capsys):
        # The right header over a row of too few or too many fields: the short
        # row escaped as a TypeError traceback, the long one was read.
        bad = tmp_path / "bad.csv"
        good = self._trace_csv(tmp_path, "good.csv", [1.0, 1e-7]).read_text()
        for row in ("0,1", good.splitlines()[1] + ",7"):
            bad.write_text(good + row + "\n")
            capsys.readouterr()
            assert main(["compare", str(bad)]) == 2, row
            assert capsys.readouterr().err == f"error: {bad}: line 4: not 6 fields\n"
