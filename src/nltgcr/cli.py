"""Benchmark harness: run configured (solver, problem) pairs and compare
trace CSVs by function evaluations to residual thresholds."""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import (
    aa_solve,
    broyden2_solve,
    lbfgs_solve,
    ncg_fr_solve,
    nesterov_solve,
    newton_krylov_solve,
)
from .core import SOLVE_FAILURES, DivergenceError, LineSearchOptions, SolverOptions
from .identities import identity_observer
from .problems import BratuProblem, LennardJonesProblem, logreg_make_synthetic
from .solver import nltgcr_solve

COMPARE_THRESHOLDS = (1e-4, 1e-6, 1e-8, 1e-10)
SOLVERS = ("nltgcr", "aa", "newton-krylov", "broyden2", "nesterov", "ncg", "lbfgs")
PROBLEMS = ("bratu", "lennard-jones", "logreg")


class ConfigError(Exception):
    pass


def _get(section, key, default=None, cast=str):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}'")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for '{key}': {raw!r}") from None


def _flag(raw):
    """An INI boolean (1/yes/true/on or 0/no/false/off); any other word raises."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _restart(raw):
    """`none` or `off` (never restart), else an int."""
    return None if raw.strip().lower() in ("none", "off") else int(raw)


def _options(**kw) -> SolverOptions:
    """SolverOptions from config values; a value it rejects is a ConfigError."""
    try:
        return SolverOptions(**kw)
    except ValueError as err:
        raise ConfigError(f"bad value: {err}") from None


def _build_problem(section, seed):
    name = _get(section, "problem")
    if name == "bratu":
        bp = BratuProblem(
            grid_n=_get(section, "grid_n", 100, int),
            lam=_get(section, "lambda", 0.5, float),
            scaled=_get(section, "scaled", False, _flag),
        )
        form = _get(section, "form", "roots")
        if form not in ("roots", "minimization"):
            raise ConfigError(f"unknown bratu form '{form}'")
        prob = bp.problem() if form == "roots" else bp.minimization_problem()
        start = _get(section, "x0", "zeros")
        if start == "zeros":
            x0 = np.zeros(bp.dim)
        elif start == "ones":
            x0 = np.ones(bp.dim)
        else:
            raise ConfigError(f"unknown bratu x0 '{start}'")
        return prob, x0
    if name == "lennard-jones":
        lj = LennardJonesProblem(
            cells_per_side=_get(section, "cells", 3, int),
            perturbation_scale=_get(section, "perturbation", 0.05, float),
            rng_seed=seed,
        )
        return lj.problem(), lj.initial_positions()
    if name == "logreg":
        lr = logreg_make_synthetic(
            n_samples=_get(section, "samples", 2000, int),
            n_features=_get(section, "features", 500, int),
            seed=seed,
            lambda_reg=_get(section, "reg", 1e-2, float),
        )
        rng = np.random.default_rng(seed)
        x0 = 1e-6 * rng.standard_normal(lr.dim)
        return lr.problem(), x0
    raise ConfigError(f"unknown problem '{name}'")


def _solver_options(section, tol):
    ls = LineSearchOptions() if _get(section, "linesearch", False, _flag) else None
    return _options(
        window_m=_get(section, "m", 1, int),
        tol_rel=tol,
        max_iters=_get(section, "max_iters", 300, int),
        restart_every=_get(section, "restart_every", 50, _restart),
        variant=_get(section, "variant", "nonlinear"),
        linesearch=ls,
    )


def _run_solver(section, prob, x0, tol, props_path=None):
    name = _get(section, "solver")
    if name == "nltgcr":
        opts = _solver_options(section, tol)
        records = []
        observer = identity_observer(records) if props_path else None
        x, trace = nltgcr_solve(prob, x0, opts, observer=observer)
        if props_path:
            with open(props_path, "w") as fh:
                json.dump(records, fh, indent=1)
        return x, trace
    opts = _options(
        tol_rel=tol,
        max_iters=_get(section, "max_iters", 300, int),
        linesearch=LineSearchOptions(),
    )
    if name == "aa":
        return aa_solve(
            prob, x0, m=_get(section, "m", 10, int), beta=_get(section, "beta", 0.1, float), opts=opts
        )
    if name == "newton-krylov":
        return newton_krylov_solve(
            prob,
            x0,
            inner_m=_get(section, "inner_m", 50, int),
            eta0=_get(section, "eta0", 0.9, float),
            opts=opts,
        )
    if name == "broyden2":
        return broyden2_solve(prob, x0, opts=opts, beta=_get(section, "beta", 1.0, float))
    if name == "nesterov":
        return nesterov_solve(prob, x0, opts=opts)
    if name == "ncg":
        return ncg_fr_solve(prob, x0, opts=opts)
    if name == "lbfgs":
        return lbfgs_solve(prob, x0, m=_get(section, "m", 10, int), opts=opts)
    raise ConfigError(f"unknown solver '{name}'")


def cmd_run(args) -> int:
    cfg = configparser.ConfigParser()
    read = cfg.read(args.config)
    if not read:
        print(f"error: cannot read config {args.config}", file=sys.stderr)
        return 2
    sections = cfg.sections()
    if not sections:
        print("error: config defines no runs", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for name in sections:
        section = cfg[name]
        try:
            if "solver" not in section or not section["solver"].strip():
                raise ConfigError("empty solver")
            solver = section["solver"]
            problem_name = _get(section, "problem")
            tol = args.tol if args.tol is not None else _get(section, "tol", 1e-10, float)
            base_seed = args.seed if args.seed is not None else _get(section, "seed", 0, int)
            reps = _get(section, "repetitions", 1, int)
            for rep in range(reps):
                seed = base_seed + rep
                prob, x0 = _build_problem(section, seed)
                props_path = (
                    out_dir / f"{name}_rep{rep}_props.json"
                    if _get(section, "props", False, _flag)
                    else None
                )
                t_start = time.perf_counter()
                try:
                    _, trace = _run_solver(section, prob, x0, tol, props_path)
                    note = ""
                except SOLVE_FAILURES as err:  # recorded; the batch goes on
                    trace = getattr(err, "trace", None)
                    if isinstance(err, DivergenceError):
                        note = "diverged"
                    else:
                        note = f"failed: {type(err).__name__}: {err}"
                wall = time.perf_counter() - t_start
                fev = None
                final = float("nan")
                # A solve that fails at x0 carries an empty trace: no CSV.
                if trace is not None and len(trace) > 0:
                    trace.to_csv(out_dir / f"{name}_rep{rep}.csv")
                    fev = trace.fevals_to_relative(tol)
                    final = trace.final().resnorm
                summary_rows.append(
                    {
                        "solver": solver,
                        "problem": problem_name,
                        "fevals_to_tol": "-" if fev is None else str(fev),
                        "final_resnorm": f"{final:.16e}",
                        "wallclock_s": f"{wall:.6f}",
                        "run": name,
                        "rep": rep,
                        "note": note,
                    }
                )
        except ConfigError as err:
            print(f"error: run '{name}': {err}", file=sys.stderr)
            return 2
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w") as fh:
        fh.write("solver,problem,fevals_to_tol,final_resnorm,wallclock_s\n")
        for row in summary_rows:
            fh.write(
                f"{row['solver']},{row['problem']},{row['fevals_to_tol']},"
                f"{row['final_resnorm']},{row['wallclock_s']}\n"
            )
    for row in summary_rows:
        tag = f" [{row['note']}]" if row["note"] else ""
        print(
            f"{row['run']} rep{row['rep']}: solver={row['solver']} problem={row['problem']} "
            f"fevals_to_tol={row['fevals_to_tol']} final={row['final_resnorm']}{tag}"
        )
    print(f"wrote {summary_path}")
    return 0


def _fevals_to_thresholds(path):
    from .core import ConvergenceTrace

    trace = ConvergenceTrace.from_csv(path)
    if len(trace) == 0:
        raise ValueError("empty trace")
    out = {}
    for thr in COMPARE_THRESHOLDS:
        out[thr] = trace.fevals_to_relative(thr)
    return out


def cmd_compare(args) -> int:
    rows = []
    for path in args.traces:
        try:
            thresholds = _fevals_to_thresholds(path)
        except (OSError, ValueError, KeyError) as err:
            print(f"error: {path}: {err}", file=sys.stderr)
            return 2
        rows.append((path, thresholds))
    key_thr = 1e-6
    rows.sort(key=lambda r: (r[1][key_thr] is None, r[1][key_thr] or 0))
    header = "trace" + "".join(f",fevals_to_{t:g}" for t in COMPARE_THRESHOLDS)
    print(header)
    for path, thresholds in rows:
        cells = ",".join(
            "\u2014" if thresholds[t] is None else str(thresholds[t]) for t in COMPARE_THRESHOLDS
        )
        print(f"{path},{cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="Run solver benchmarks and compare traces."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the (solver, problem) pairs in a config file")
    p_run.add_argument("config", help="INI config with one section per run")
    p_run.add_argument("--out", default="bench_out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seeds")
    p_run.add_argument("--tol", type=float, default=None, help="override config tolerances")
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="merge trace CSVs into a threshold table")
    p_cmp.add_argument("traces", nargs="+", help="trace CSV paths")
    p_cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
