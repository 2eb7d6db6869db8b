"""Benchmark harness: run configured (solver, problem) pairs and compare
trace CSVs by function evaluations to residual thresholds."""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

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


def _given(section, **spec):
    """{name: value} for each name=(key, cast) whose key the section sets;
    an unset key is left to the library's own default."""
    return {name: _get(section, key, cast=cast) for name, (key, cast) in spec.items()
            if key in section}


def _flag(raw):
    """An INI boolean (1/yes/true/on or 0/no/false/off); any other word raises."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _size(raw):
    """A problem size: an int >= 1, so a run never builds an empty problem."""
    n = int(raw)
    if n < 1:
        raise ValueError(raw)
    return n


def _restart(raw):
    """`none` or `off` (never restart), else an int."""
    return None if raw.strip().lower() in ("none", "off") else int(raw)


def _options(**kw) -> SolverOptions:
    """SolverOptions from config values; a value it rejects is a ConfigError."""
    try:
        return SolverOptions(**kw)
    except ValueError as err:
        raise ConfigError(f"bad value: {err}") from None


def _problem_maker(section):
    """Read the problem options; returns seed -> (problem, x0)."""
    name = _get(section, "problem")
    if name == "bratu":
        kw = _given(section, grid_n=("grid_n", _size), lam=("lambda", float),
                    scaled=("scaled", _flag))
        form = _get(section, "form", "roots")
        if form not in ("roots", "minimization"):
            raise ConfigError(f"unknown bratu form '{form}'")
        start = _get(section, "x0", "zeros")
        if start not in ("zeros", "ones"):
            raise ConfigError(f"unknown bratu x0 '{start}'")

        def make(seed):
            bp = BratuProblem(**kw)
            prob = bp.problem() if form == "roots" else bp.minimization_problem()
            return prob, (np.zeros if start == "zeros" else np.ones)(bp.dim)

        return make
    if name == "lennard-jones":
        kw = _given(section, cells_per_side=("cells", _size),
                    perturbation_scale=("perturbation", float))

        def make(seed):
            lj = LennardJonesProblem(rng_seed=seed, **kw)
            return lj.problem(), lj.initial_positions()

        return make
    if name == "logreg":
        kw = _given(section, n_samples=("samples", _size), n_features=("features", _size),
                    lambda_reg=("reg", float))

        def make(seed):
            lr = logreg_make_synthetic(seed=seed, **kw)
            rng = np.random.default_rng(seed)
            return lr.problem(), 1e-6 * rng.standard_normal(lr.dim)

        return make
    raise ConfigError(f"unknown problem '{name}'")


def _solver(section, tol):
    """Read the solver options; returns (prob, x0, props_path) -> (x, trace)."""
    name = _get(section, "solver")
    if name == "nltgcr":
        ls = LineSearchOptions() if _get(section, "linesearch", False, _flag) else None
        opts = _options(tol_rel=tol, linesearch=ls, **_given(
            section, window_m=("m", int), max_iters=("max_iters", int),
            restart_every=("restart_every", _restart), variant=("variant", str)))

        def solve(prob, x0, props_path):
            records = []
            observer = identity_observer(records) if props_path else None
            x, trace = nltgcr_solve(prob, x0, opts, observer=observer)
            if props_path:
                with open(props_path, "w") as fh:
                    json.dump(records, fh, indent=1)
            return x, trace

        return solve
    opts = _options(tol_rel=tol, linesearch=LineSearchOptions(),
                    **_given(section, max_iters=("max_iters", int)))
    if name == "aa":
        solve, kw = aa_solve, {
            "m": _get(section, "m", 10, int),
            "beta": _get(section, "beta", 0.1, float),
        }
    elif name == "newton-krylov":
        solve, kw = newton_krylov_solve, _given(section, inner_m=("inner_m", int),
                                                eta0=("eta0", float))
    elif name == "broyden2":
        solve, kw = broyden2_solve, _given(section, beta=("beta", float))
    elif name == "nesterov":
        solve, kw = nesterov_solve, {}
    elif name == "ncg":
        solve, kw = ncg_fr_solve, {}
    elif name == "lbfgs":
        solve, kw = lbfgs_solve, _given(section, m=("m", int))
    else:
        raise ConfigError(f"unknown solver '{name}'")
    return lambda prob, x0, _: solve(prob, x0, opts=opts, **kw)


class _Run(NamedTuple):
    """One config section with every option read and checked."""

    solver: str
    problem: str
    tol: float
    seed: int
    reps: int
    props: bool
    make_problem: Callable
    solve: Callable


def _read_run(section, args) -> _Run:
    if "solver" not in section or not section["solver"].strip():
        raise ConfigError("empty solver")
    tol = args.tol if args.tol is not None else _get(section, "tol", 1e-10, float)
    seed = args.seed if args.seed is not None else _get(section, "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    reps = _get(section, "repetitions", 1, int)
    if reps < 1:
        raise ConfigError(f"repetitions must be >= 1, got {reps}")
    return _Run(
        solver=section["solver"],
        problem=_get(section, "problem"),
        tol=tol,
        seed=seed,
        reps=reps,
        props=_get(section, "props", False, _flag),
        make_problem=_problem_maker(section),
        solve=_solver(section, tol),
    )


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
    # Every section is read before the first solve, so a bad value in any of
    # them stops the batch before it spends a solve or writes a file.
    runs = []
    for name in sections:
        try:
            runs.append((name, _read_run(cfg[name], args)))
        except ConfigError as err:
            print(f"error: run '{name}': {err}", file=sys.stderr)
            return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for name, run in runs:
        for rep in range(run.reps):
            prob, x0 = run.make_problem(run.seed + rep)
            props_path = out_dir / f"{name}_rep{rep}_props.json" if run.props else None
            t_start = time.perf_counter()
            try:
                _, trace = run.solve(prob, x0, props_path)
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
                fev = trace.fevals_to_relative(run.tol)
                final = trace.final().resnorm
            fev = "-" if fev is None else fev
            summary.append(f"{run.solver},{run.problem},{fev},{final:.16e},{wall:.6f}\n")
            tag = f" [{note}]" if note else ""
            print(f"{name} rep{rep}: solver={run.solver} problem={run.problem} "
                  f"fevals_to_tol={fev} final={final:.16e}{tag}")
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w") as fh:
        fh.write("solver,problem,fevals_to_tol,final_resnorm,wallclock_s\n")
        fh.writelines(summary)
    print(f"wrote {summary_path}")
    return 0


def _fevals_to_thresholds(path):
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
