"""Benchmark harness: run configured (solver, problem) pairs and compare
trace CSVs by function evaluations to residual thresholds."""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import replace
from functools import partial
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
from .core import (
    SOLVE_FAILURES,
    ConvergenceTrace,
    DivergenceError,
    LineSearchOptions,
    SolverOptions,
)
from .identities import identity_observer
from .problems import BratuProblem, LennardJonesProblem, logreg_make_synthetic
from .solver import nltgcr_solve

COMPARE_THRESHOLDS = (1e-4, 1e-6, 1e-8, 1e-10)


class ConfigError(Exception):
    pass


def _get(section, key, cast=str):
    if key not in section:
        raise ConfigError(f"missing key '{key}'")
    raw = section[key]
    try:
        return cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for '{key}': {raw!r}") from None


def _flag(raw, on=True, off=False):
    """An INI boolean (1/yes/true/on or 0/no/false/off) as `on` or `off`; any
    other word raises."""
    return on if configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()] else off


def _size(raw):
    """A problem size: an int >= 1, so a run never builds an empty problem."""
    n = int(raw)
    if n < 1:
        raise ValueError(raw)
    return n


def _restart(raw):
    """`none` or `off` (never restart), else an int."""
    return None if raw.strip().lower() in ("none", "off") else int(raw)


def _one_of(what, **choices):
    """A cast from a word to choices[word]; any other word is an unknown `what`."""
    def cast(raw):
        if raw not in choices:
            raise ConfigError(f"unknown {what} '{raw}'")
        return choices[raw]

    return cast


def _bratu(seed, form="problem", start=np.zeros, **kw):
    bp = BratuProblem(**kw)
    return getattr(bp, form)(), start(bp.dim)


def _lennard_jones(seed, **kw):
    lj = LennardJonesProblem(rng_seed=seed, **kw)
    return lj.problem(), lj.initial_positions()


def _logreg(seed, **kw):
    lr = logreg_make_synthetic(seed=seed, **kw)
    return lr.problem(), 1e-6 * np.random.default_rng(seed).standard_normal(lr.dim)


def _nltgcr(prob, x0, opts, props_path, props=False):
    records = []
    x, trace = nltgcr_solve(prob, x0, opts, observer=identity_observer(records) if props else None)
    if props:
        props_path.write_text(json.dumps(records, indent=1))
    return x, trace


def _baseline(function, **defaults):
    """A baseline solve with a line search; `function` is looked up by name per call."""
    return lambda prob, x0, opts, props_path, **kw: globals()[function](
        prob, x0, opts=replace(opts, linesearch=LineSearchOptions()), **{**defaults, **kw})


# name -> (function, {argument: (key, cast)}): a run passes each argument whose
# key its section sets, so an unset key keeps the function's own default.
PROBLEMS = {
    "bratu": (_bratu, {
        "grid_n": ("grid_n", _size), "lam": ("lambda", float), "scaled": ("scaled", _flag),
        "form": ("form", _one_of("bratu form", roots="problem",
                                 minimization="minimization_problem")),
        "start": ("x0", _one_of("bratu x0", zeros=np.zeros, ones=np.ones))}),
    "lennard-jones": (_lennard_jones, {
        "cells_per_side": ("cells", _size), "perturbation_scale": ("perturbation", float)}),
    "logreg": (_logreg, {"n_samples": ("samples", _size), "n_features": ("features", _size),
                         "lambda_reg": ("reg", float)}),
}
SOLVERS = {
    "nltgcr": (_nltgcr, {
        "window_m": ("m", int), "restart_every": ("restart_every", _restart),
        "variant": ("variant", str), "props": ("props", _flag),
        "linesearch": ("linesearch", partial(_flag, on=LineSearchOptions(), off=None))}),
    "aa": (_baseline("aa_solve", m=10, beta=0.1), {"m": ("m", int), "beta": ("beta", float)}),
    "newton-krylov": (_baseline("newton_krylov_solve"),
                      {"inner_m": ("inner_m", int), "eta0": ("eta0", float)}),
    "broyden2": (_baseline("broyden2_solve"), {"beta": ("beta", float)}),
    "nesterov": (_baseline("nesterov_solve"), {}),
    "ncg": (_baseline("ncg_fr_solve"), {}),
    "lbfgs": (_baseline("lbfgs_solve"), {"m": ("m", int)}),
}
# Every solver reads these too; the solver arguments SolverOptions has go to opts.
SOLVER_OPTIONS = {"tol_rel": ("tol", float), "max_iters": ("max_iters", int)}
RUN = {"seed": ("seed", int), "repetitions": ("repetitions", int)}


def _read_run(section):
    """(solver, problem, tol, seed, repetitions, make(seed) -> (problem, x0),
    solve(prob, x0, props_path) -> (x, trace)), every key read and checked."""
    if not section.get("solver", "").strip():
        raise ConfigError("empty solver")
    make, problem_spec = _get(section, "problem", _one_of("problem", **PROBLEMS))
    solve, solver_spec = _get(section, "solver", _one_of("solver", **SOLVERS))
    specs = (RUN, problem_spec, {**SOLVER_OPTIONS, **solver_spec})
    # [DEFAULT] keys are exempt: runs that read different keys share them.
    known = {"problem", "solver", *section.parser.defaults(),
             *(key for spec in specs for key, _ in spec.values())}
    unknown = [key for key in section if key not in known]
    if unknown:
        raise ConfigError("unknown key(s) " + ", ".join(f"'{key}'" for key in unknown))
    run, problem_kw, kw = ({arg: _get(section, key, cast) for arg, (key, cast) in spec.items()
                            if key in section} for spec in specs)
    seed, reps = run.get("seed", 0), run.get("repetitions", 1)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if reps < 1:
        raise ConfigError(f"repetitions must be >= 1, got {reps}")
    fields = SolverOptions.__dataclass_fields__
    try:
        opts = SolverOptions(**{arg: kw.pop(arg) for arg in list(kw) if arg in fields})
    except ValueError as err:
        raise ConfigError(f"bad value: {err}") from None
    return (section["solver"], section["problem"], opts.tol_rel, seed, reps,
            partial(make, **problem_kw), partial(solve, opts=opts, **kw))


def cmd_run(args) -> int:
    cfg = configparser.ConfigParser()
    if not cfg.read(args.config):
        print(f"error: cannot read config {args.config}", file=sys.stderr)
        return 2
    if not cfg.sections():
        print("error: config defines no runs", file=sys.stderr)
        return 2
    # --seed and --tol stand for the key in every section. Every section is
    # read before the first solve, so a bad value in any of them stops the
    # batch before it spends a solve or writes a file.
    overrides = {k: v for k, v in {"seed": args.seed, "tol": args.tol}.items() if v is not None}
    cfg.read_dict({name: overrides for name in cfg.sections()})
    runs = []
    for name in cfg.sections():
        try:
            runs.append((name, _read_run(cfg[name])))
        except ConfigError as err:
            print(f"error: run '{name}': {err}", file=sys.stderr)
            return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["solver,problem,fevals_to_tol,final_resnorm,wallclock_s\n"]
    for name, (solver, problem, tol, seed, reps, make, solve) in runs:
        for rep in range(reps):
            prob, x0 = make(seed + rep)
            t_start = time.perf_counter()
            try:
                _, trace = solve(prob, x0, props_path=out_dir / f"{name}_rep{rep}_props.json")
                note = ""
            except SOLVE_FAILURES as err:  # recorded; the batch goes on
                trace = getattr(err, "trace", None)
                diverged = isinstance(err, DivergenceError)
                note = "diverged" if diverged else f"failed: {type(err).__name__}: {err}"
            wall = time.perf_counter() - t_start
            fev, final = None, float("nan")
            # A solve that fails at x0 carries an empty trace: no CSV.
            if trace is not None and len(trace) > 0:
                trace.to_csv(out_dir / f"{name}_rep{rep}.csv")
                fev = trace.fevals_to_relative(tol)
                final = trace.final().resnorm
            fev = "-" if fev is None else fev
            summary.append(f"{solver},{problem},{fev},{final:.16e},{wall:.6f}\n")
            tag = f" [{note}]" if note else ""
            print(f"{name} rep{rep}: solver={solver} problem={problem} "
                  f"fevals_to_tol={fev} final={final:.16e}{tag}")
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("".join(summary))
    print(f"wrote {summary_path}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for path in args.traces:
        try:
            trace = ConvergenceTrace.from_csv(path)
            if len(trace) == 0:
                raise ValueError("empty trace")
        except (OSError, ValueError, KeyError) as err:
            print(f"error: {path}: {err}", file=sys.stderr)
            return 2
        rows.append((path, {t: trace.fevals_to_relative(t) for t in COMPARE_THRESHOLDS}))
    rows.sort(key=lambda r: (r[1][1e-6] is None, r[1][1e-6] or 0))  # by fevals to 1e-6
    print("trace" + "".join(f",fevals_to_{t:g}" for t in COMPARE_THRESHOLDS))
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
