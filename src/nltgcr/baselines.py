"""Comparison solvers sharing the feval-accounting and trace conventions:
Anderson acceleration, inexact Newton-Krylov, Broyden's second method,
Nesterov's accelerated gradient, Fletcher-Reeves NCG, and L-BFGS."""

from __future__ import annotations

import math
from collections import deque
from itertools import count
from typing import Callable, Optional

import numpy as np

from .core import (
    BreakdownError,
    LineSearchOptions,
    NonlinearProblem,
    NotDescentError,
    SolverOptions,
    WindowPair,
    drive,
)
from .linear import TOL_FLOOR_F32, LinearOperator, LinearOptions, add_direction, tgcr_solve
from .linesearch import backtrack, backtrack_phi, update_alpha0

# Each solver below is its argument checks plus core.drive, which owns the
# start, the stopping rule, the trace and the failure state; its iteration
# body is a generator that yields (x, resnorm, step_size, "NL") per iteration.


# ---------------------------------------------------------------------------
# Anderson acceleration for the fixed-point map g(x) = x + beta f(x).
# ---------------------------------------------------------------------------


def aa_solve(
    prob: NonlinearProblem,
    x0,
    m: int,
    beta: float,
    opts: Optional[SolverOptions] = None,
    observer: Optional[Callable[[WindowPair], None]] = None,
):
    """Anderson acceleration: mix the last m difference pairs.

    The step x_{j+1} = x_j + beta f_j - (X + beta F) theta, with theta =
    argmin ||f_j - F theta|| over the dx and df columns X and F, is taken in
    QR form (Walker & Ni, SINUM 49, 2011). Each step refills one window
    through add_direction, newest pair first: its v rows V are the df
    columns orthonormalized and its p rows P the same combinations of the
    dx columns, so the step is x_j + beta f_j - (P + beta V) V^T f_j. The
    refill stops at the first pair that collapses (add_direction's relative
    test), so it and every older pair sit out the step. With m = 0, or no
    pair kept, this is the plain step x_j + beta f_j. The observer is called
    after each mixed step with its window, which is reused and must not be
    kept. Divergence past 1e8 of the initial residual raises.

    beta must keep the underlying map x + beta f(x) stable: stiff gradient
    systems need it small (1e-3 for the Lennard-Jones cluster, 0.1 for the
    row-scaled Bratu residual).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return drive(prob, x0, opts or SolverOptions(), _aa_steps, m, beta, observer, guard=True)


def _aa_steps(ev, x, fx, target, opts, m, beta, observer):
    # The last m raw (dx, df) pairs, oldest first, and the window each step
    # rebuilds from them.
    pairs = deque(maxlen=m)
    window = WindowPair(max(m, 1))
    while True:
        window.clear()
        for dx, df in reversed(pairs):
            # r0_norm 0: only the rule on ||df'|| / ||df|| decides.
            if add_direction(window, dx, df, r0_norm=0.0) is None:
                break
        x_new = x + beta * fx
        if len(window):
            P, V = window.rows()
            y = V @ fx
            x_new -= y @ P + beta * (y @ V)
        f_new = ev.f(x_new)
        # With m = 0 the deque keeps nothing.
        pairs.append((x_new - x, f_new - fx))
        x, fx = x_new, f_new
        if observer is not None and len(window):
            observer(window)
        yield x, float(np.linalg.norm(fx)), 1.0, "NL"


# ---------------------------------------------------------------------------
# Broyden's second method: update the approximate inverse Jacobian directly.
# ---------------------------------------------------------------------------


def broyden2_solve(
    prob: NonlinearProblem,
    x0,
    opts: Optional[SolverOptions] = None,
    beta: float = 1.0,
    observer: Optional[Callable[[dict], None]] = None,
):
    """Broyden's second method with a dense inverse-Jacobian estimate.

    G starts at -beta I and each update enforces the secant condition
    G_new df = dx while leaving G unchanged on the orthogonal complement
    of df. Dense storage keeps this to moderate dimensions (n <= 2000).
    """
    return drive(prob, x0, opts or SolverOptions(), _broyden2_steps, beta, observer, guard=True)


def _broyden2_steps(ev, x, fx, target, opts, beta, observer):
    G = -beta * np.eye(x.shape[0])
    for it in count(1):
        x_new = x - G @ fx
        f_new = ev.f(x_new)
        dx = x_new - x
        df = f_new - fx
        dfn = float(np.linalg.norm(df))
        if dfn > 0.0:
            G = G + np.outer(dx - G @ df, df) / (dfn * dfn)
        x, fx = x_new, f_new
        if observer is not None:
            observer({"iter": it, "G": G, "dx": dx, "df": df})
        yield x, float(np.linalg.norm(fx)), 1.0, "NL"


# ---------------------------------------------------------------------------
# Inexact Newton-Krylov with Eisenstat-Walker forcing.
# ---------------------------------------------------------------------------

EW_GAMMA = 0.9
EW_ETA_MAX = 0.9
EW_SAFEGUARD_FLOOR = 0.1


def newton_krylov_solve(
    prob: NonlinearProblem,
    x0,
    inner_m: int = 50,
    eta0: float = 0.9,
    opts: Optional[SolverOptions] = None,
    observer: Optional[Callable[[dict], None]] = None,
):
    """Inexact Newton: each outer step solves J(x) d = -f(x) with the
    truncated residual-minimizing solver, stopping the inner iteration at
    the forcing tolerance eta_j, then backtracks along d.

    eta starts at eta0, which must lie in (0, 1), and then follows the
    quadratic Eisenstat-Walker choice eta_j = 0.9 (||f_j|| / ||f_{j-1}||)^2
    with the usual safeguard and a 0.9 cap. Inner matrix-vector products
    are Frechet probes charged one feval each. Every inner solve runs in one
    window allocated per call, whose v rows are float32 while eta >=
    linear.TOL_FLOOR_F32; from the first eta below it on, a float64 window
    takes its place for the rest of the solve.
    """
    if inner_m < 1:
        raise ValueError("inner_m must be >= 1")
    if not 0.0 < eta0 < 1.0:
        raise ValueError("eta0 must be in (0, 1)")
    return drive(prob, x0, opts or SolverOptions(), _newton_krylov_steps, inner_m, eta0,
                 observer)


def _newton_krylov_steps(ev, x, fx, target, opts, inner_m, eta, observer):
    ls = opts.linesearch or LineSearchOptions()
    fnorm_prev = float(np.linalg.norm(fx))
    # One window for every inner solve: a fresh one per outer step would be
    # freed and faulted back in each time. Its rows are sized at the first
    # push, so the switch to float64 never holds two windows.
    window = WindowPair(inner_m, np.float32)
    # r = -f(x), formed once per step: the inner right-hand side, the base
    # of every probe at x, and the slope's and the search's residual.
    r = -fx
    del fx
    for it in count(1):
        if eta < TOL_FLOOR_F32 and window.dtype == np.float32:
            window = WindowPair(inner_m)
        x_frozen, r_frozen = x, r
        # Every inner probe at this x scales by the same ||x||_inf.
        x_inf = float(np.abs(x).max())
        op = LinearOperator(
            dim=ev.prob.dim,
            apply=lambda v: ev.jv(x_frozen, v, r_frozen, x_inf=x_inf),
            is_symmetric=False,
        )
        inner_opts = LinearOptions(tol_rel=eta, max_iters=inner_m)
        delta, ihist = tgcr_solve(op, r, np.broadcast_to(0.0, x.shape), m=inner_m,
                                  opts=inner_opts, workspace=window)
        # An inner breakdown after a step is a shorter inner solve; one
        # before any step leaves nothing to search along.
        if ihist.breakdown and float(np.linalg.norm(delta)) == 0.0:
            raise BreakdownError(f"direction collapsed at step {ihist.iterations}")
        # backtrack raises NotDescentError on a slope <= 0. A shorter delta
        # would not help: the probe scales its step by 1 / ||delta||, so it
        # probes the same point and returns the same slope, scaled.
        slope = ev.slope(x, r, delta)
        res = backtrack(ev.f, x, delta, r, slope, ls)
        ls = update_alpha0(ls, res.steps)
        # f(x) lives on only as r, and delta and ihist not at all, through
        # the next inner solve. The search measured ||f(x_new)||^2 already.
        alpha, x, f_new, fnorm = res.alpha, res.x_new, res.f_new, math.sqrt(res.merit)
        del res, delta
        r = -f_new
        del f_new
        if observer is not None:
            observer(
                {
                    "iter": it,
                    "eta": eta,
                    "inner_resnorms": ihist.resnorms(),
                    "inner_steps": ihist.iterations,
                    "forcing_rhs": eta * fnorm_prev,
                    "cap_hit": ihist.iterations >= inner_m and not ihist.converged,
                    "alpha": alpha,
                }
            )
        del ihist
        yield x, fnorm, alpha, "NL"
        eta_new = EW_GAMMA * (fnorm / fnorm_prev) ** 2
        safeguard = EW_GAMMA * eta * eta
        if safeguard > EW_SAFEGUARD_FLOOR:
            eta_new = max(eta_new, safeguard)
        eta = min(eta_new, EW_ETA_MAX)
        fnorm_prev = fnorm


# ---------------------------------------------------------------------------
# Gradient methods on phi with f = grad phi: Nesterov, NCG (Fletcher-Reeves),
# and L-BFGS, all with the shared backtracking search on ||f||^2.
# ---------------------------------------------------------------------------


def _estimate_lipschitz(ev, x, r, n_iters: int = 8, seed: int = 0) -> float:
    """Power-iteration estimate of ||J(x)|| via Frechet probes; r = -f(x)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape[0])
    v /= np.linalg.norm(v)
    L = 1.0
    for _ in range(n_iters):
        w = ev.jv(x, v, r)
        L = float(np.linalg.norm(w))
        if L == 0.0:
            return 1.0
        v = w / L
    return 1.2 * L


def nesterov_solve(prob: NonlinearProblem, x0, opts: Optional[SolverOptions] = None):
    """Nesterov's accelerated gradient with a fixed 1/L stepsize.

    L comes from a short power iteration on the Jacobian at the starting
    point and is refreshed whenever the momentum restart triggers. The
    trace records the gradient norm at the momentum point, which is where
    the per-iteration evaluation lands; a converged solve returns the step
    taken from it.
    """
    return drive(prob, x0, opts or SolverOptions(), _nesterov_steps, guard=True)


def _nesterov_steps(ev, x, fx, target, opts):
    L = _estimate_lipschitz(ev, x, -fx)
    x_prev = x.copy()
    k = 1
    for it in count(1):
        y = x + ((k - 1.0) / (k + 2.0)) * (x - x_prev)
        g = ev.f(y)
        x_new = y - g / L
        if float(g @ (x_new - x)) > 0.0:
            # Momentum points uphill: restart it and refresh the stepsize.
            x_prev = x.copy()
            k = 1
            L = _estimate_lipschitz(ev, x, -ev.f(x), n_iters=4, seed=it)
        else:
            x_prev = x
            x = x_new
            k += 1
        resnorm = float(np.linalg.norm(g))
        yield (x_new if resnorm <= target else x), resnorm, 1.0 / L, "NL"


def _gradient_step(ev, x, g, d, ls, phi_x):
    """One line-searched step for the gradient methods.

    Uses the classical Armijo condition on phi when the problem carries an
    objective (each phi trial charged one feval), otherwise the shared
    backtracking on ||f||^2 with a Frechet slope probe. Returns
    (x_new, g_new, phi_new, alpha, steps, direction_was_reset).
    """
    reset = False
    if ev.prob.eval_phi is not None:
        slope_phi = float(g @ d)
        if slope_phi >= 0.0:
            d = -g
            slope_phi = -float(g @ g)
            reset = True
            if slope_phi >= 0.0:
                raise NotDescentError("zero gradient handed to the line search")
        res = backtrack_phi(ev.phi, x, d, phi_x, slope_phi, ls)
        return res.x_new, ev.f(res.x_new), res.merit, res.alpha, res.steps, reset
    slope = ev.slope(x, -g, d)
    if slope <= 0.0:
        d = -g
        slope = ev.slope(x, -g, d)
        reset = True
        if slope <= 0.0:
            raise NotDescentError("steepest descent is not a descent direction")
    res = backtrack(ev.f, x, d, -g, slope, ls)
    return res.x_new, res.f_new, None, res.alpha, res.steps, reset


def ncg_fr_solve(prob: NonlinearProblem, x0, opts: Optional[SolverOptions] = None):
    """Nonlinear conjugate gradient with Fletcher-Reeves coefficients.

    Directions restart from steepest descent every restart_every iterations
    (or dim, whichever the options give) and whenever the current direction
    fails the descent test.
    """
    return drive(prob, x0, opts or SolverOptions(), _ncg_fr_steps)


def _ncg_fr_steps(ev, x, fx, target, opts):
    ls = opts.linesearch or LineSearchOptions()
    restart_period = opts.restart_every or ev.prob.dim
    phi_x = ev.phi(x) if ev.prob.eval_phi is not None else None
    g = fx
    d = -g
    gg = float(g @ g)
    for it in count(1):
        x, g_new, phi_x, alpha, steps, reset = _gradient_step(ev, x, g, d, ls, phi_x)
        ls = update_alpha0(ls, steps)
        gg_new = float(g_new @ g_new)
        yield x, float(np.sqrt(gg_new)), alpha, "NL"
        if reset or it % restart_period == 0:
            d = -g_new
        else:
            beta_fr = gg_new / gg
            d = -g_new + beta_fr * d
        g, gg = g_new, gg_new


def lbfgs_solve(
    prob: NonlinearProblem, x0, m: int = 10, opts: Optional[SolverOptions] = None
):
    """Limited-memory BFGS with the two-loop recursion and the shared
    backtracking search. Curvature pairs with <s, y> <= 0 are skipped."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return drive(prob, x0, opts or SolverOptions(), _lbfgs_steps, m)


def _lbfgs_steps(ev, x, fx, target, opts, m):
    ls = opts.linesearch or LineSearchOptions()
    # The last m curvature pairs (s, y, 1 / <s, y>), oldest first.
    pairs = deque(maxlen=m)
    phi_x = ev.phi(x) if ev.prob.eval_phi is not None else None
    g = fx
    while True:
        q = g.copy()
        alphas = []
        for s, yv, rho in reversed(pairs):
            a = rho * float(s @ q)
            q -= a * yv
            alphas.append(a)
        if pairs:
            s, yv, _ = pairs[-1]
            gamma = float(s @ yv) / float(yv @ yv)
            q *= gamma
        for (s, yv, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(yv @ q)
            q += (a - b) * s
        d = -q
        x_new, g_new, phi_x, alpha, steps, reset = _gradient_step(ev, x, g, d, ls, phi_x)
        if reset:
            pairs.clear()
        ls = update_alpha0(ls, steps)
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            pairs.append((s, yv, 1.0 / sy))
        x = x_new
        g = g_new
        yield x, float(np.linalg.norm(g)), alpha, "NL"
