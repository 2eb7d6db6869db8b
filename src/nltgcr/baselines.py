"""Comparison solvers sharing the feval-accounting and trace conventions:
Anderson acceleration, inexact Newton-Krylov, Broyden's second method,
Nesterov's accelerated gradient, Fletcher-Reeves NCG, and L-BFGS."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, List, Optional

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
from .linear import LinearOperator, LinearOptions, tgcr_solve
from .linesearch import backtrack, backtrack_phi, update_alpha0

CONDITION_BOUND = 1e12

# Each solver below is its argument checks plus core.drive, which owns the
# start, the stopping rule, the trace and the failure state; its iteration
# body is a generator that yields (x, resnorm, step_size, "NL") per iteration.


# ---------------------------------------------------------------------------
# Anderson acceleration for the fixed-point map g(x) = x + beta f(x).
# ---------------------------------------------------------------------------


@dataclass
class AaState:
    """Last-m difference pairs for Anderson mixing."""

    beta_mix: float
    m: int
    dx_cols: List[np.ndarray] = field(default_factory=list)
    df_cols: List[np.ndarray] = field(default_factory=list)

    def push(self, dx, df):
        self.dx_cols.append(dx)
        self.df_cols.append(df)
        if len(self.dx_cols) > self.m:
            self.dx_cols.pop(0)
            self.df_cols.pop(0)

    def drop_oldest(self):
        self.dx_cols.pop(0)
        self.df_cols.pop(0)

    def X(self):
        return np.stack(self.dx_cols, axis=1)

    def F(self):
        return np.stack(self.df_cols, axis=1)


def aa_solve(
    prob: NonlinearProblem,
    x0,
    m: int,
    beta: float,
    opts: Optional[SolverOptions] = None,
    observer: Optional[Callable[[AaState], None]] = None,
):
    """Anderson acceleration: mix the last m difference pairs.

    Solves theta = argmin ||f_j - F theta|| by dense least squares, then
    x_{j+1} = x_j + beta f_j - (X + beta F) theta. With m = 0 this is the
    plain fixed-point iteration. Ill-conditioned windows drop their oldest
    columns; divergence past 1e8 of the initial residual raises.

    beta must keep the underlying map x + beta f(x) stable: stiff gradient
    systems need it small (1e-3 for the Lennard-Jones cluster, 0.1 for the
    row-scaled Bratu residual).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return drive(prob, x0, opts or SolverOptions(), _aa_steps, m, beta, observer, guard=True)


def _aa_steps(ev, x, fx, target, opts, m, beta, observer):
    state = AaState(beta_mix=beta, m=m)
    while True:
        if len(state.dx_cols) == 0:
            x_new = x + beta * fx
        else:
            while len(state.dx_cols) > 1 and np.linalg.cond(state.F()) > CONDITION_BOUND:
                state.drop_oldest()
            F = state.F()
            X = state.X()
            theta, *_ = np.linalg.lstsq(F, fx, rcond=None)
            x_new = x + beta * fx - (X + beta * F) @ theta
        f_new = ev.f(x_new)
        if m > 0:
            state.push(x_new - x, f_new - fx)
        x, fx = x_new, f_new
        if observer is not None and state.dx_cols:
            observer(state)
        yield x, float(np.linalg.norm(fx)), 1.0, "NL"


def aa_multisecant_check(state: AaState) -> float:
    """Max-norm violation of G F = X for the Anderson inverse-Jacobian
    G = -beta I + (X + beta F) (F^T F)^{-1} F^T, computed in factored form."""
    F = state.F()
    X = state.X()
    G_gram = F.T @ F
    try:
        S = np.linalg.solve(G_gram, F.T @ F)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular Gram matrix in multi-secant check") from err
    GF = -state.beta_mix * F + (X + state.beta_mix * F) @ S
    return float(np.abs(GF - X).max())


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
    adapt_eta: bool = True,
):
    """Inexact Newton: each outer step solves J(x) d = -f(x) with the
    truncated residual-minimizing solver, stopping the inner iteration at
    the forcing tolerance eta_j, then backtracks along d.

    With adapt_eta, eta follows the quadratic Eisenstat-Walker choice
    eta_j = 0.9 (||f_j|| / ||f_{j-1}||)^2 with the usual safeguard and a
    0.9 cap; otherwise it stays fixed at eta0, which must lie in (0, 1)
    (eta0 ~ 0 forces full-depth inner solves). Inner matrix-vector products
    are Frechet probes charged one feval each. Every inner solve runs in one
    window allocated per call and keeps only scalars in its history.
    """
    if inner_m < 1:
        raise ValueError("inner_m must be >= 1")
    if not 0.0 < eta0 < 1.0:
        raise ValueError("eta0 must be in (0, 1)")
    return drive(prob, x0, opts or SolverOptions(), _newton_krylov_steps, inner_m, eta0,
                 observer, adapt_eta)


def _newton_krylov_steps(ev, x, fx, target, opts, inner_m, eta, observer, adapt_eta):
    ls = opts.linesearch or LineSearchOptions()
    fnorm_prev = float(np.linalg.norm(fx))
    # One window for every inner solve: a fresh one per outer step would be
    # freed and faulted back in each time.
    window = WindowPair(inner_m)
    for it in count(1):
        x_frozen = x
        f_frozen = fx
        # Every inner probe at this x scales by the same ||x||_inf.
        x_inf = float(np.abs(x).max())
        op = LinearOperator(
            dim=ev.prob.dim,
            apply=lambda v: ev.jv(x_frozen, v, f_frozen, x_inf=x_inf),
            is_symmetric=False,
        )
        inner_opts = LinearOptions(tol_rel=eta, max_iters=inner_m)
        try:
            delta, ihist = tgcr_solve(op, -fx, np.zeros_like(x), m=inner_m, opts=inner_opts,
                                      workspace=window)
        except BreakdownError as err:
            delta = err.x
            ihist = err.history
            if delta is None or float(np.linalg.norm(delta)) == 0.0:
                raise
        # backtrack raises NotDescentError on a slope <= 0. A shorter delta
        # would not help: frechet_jv scales its step by 1 / ||delta||, so it
        # probes the same point and returns the same slope, scaled.
        slope = ev.slope(x, -fx, delta)
        res = backtrack(ev.f, x, delta, -fx, slope, ls)
        ls = update_alpha0(ls, res.steps)
        x = res.x_new
        fx = res.f_new
        fnorm = float(np.linalg.norm(fx))
        if observer is not None:
            observer(
                {
                    "iter": it,
                    "eta": eta,
                    "inner_resnorms": ihist.resnorms(),
                    "inner_steps": ihist.iterations,
                    "forcing_rhs": eta * fnorm_prev,
                    "cap_hit": ihist.iterations >= inner_m and not ihist.converged,
                    "alpha": res.alpha,
                }
            )
        yield x, fnorm, res.alpha, "NL"
        if adapt_eta:
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


def _estimate_lipschitz(ev, x, fx, n_iters: int = 8, seed: int = 0) -> float:
    """Power-iteration estimate of ||J(x)|| via Frechet probes."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape[0])
    v /= np.linalg.norm(v)
    L = 1.0
    for _ in range(n_iters):
        w = ev.jv(x, v, fx)
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
    L = _estimate_lipschitz(ev, x, fx)
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
            fx = ev.f(x)
            L = _estimate_lipschitz(ev, x, fx, n_iters=4, seed=it)
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
    s_list: List[np.ndarray] = []
    y_list: List[np.ndarray] = []
    rho_list: List[float] = []
    phi_x = ev.phi(x) if ev.prob.eval_phi is not None else None
    g = fx
    while True:
        q = g.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * float(s @ q)
            q -= a * yv
            alphas.append(a)
        if s_list:
            gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
            q *= gamma
        for (s, yv, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * float(yv @ q)
            q += (a - b) * s
        d = -q
        x_new, g_new, phi_x, alpha, steps, reset = _gradient_step(ev, x, g, d, ls, phi_x)
        if reset:
            s_list, y_list, rho_list = [], [], []
        ls = update_alpha0(ls, steps)
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            s_list.append(s)
            y_list.append(yv)
            rho_list.append(1.0 / sy)
            if len(s_list) > m:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x = x_new
        g = g_new
        yield x, float(np.linalg.norm(g)), alpha, "NL"
