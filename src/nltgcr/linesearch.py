"""Backtracking line search on ||f||^2 with an adaptive initial stepsize."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import LineSearchOptions, NonFiniteError, NotDescentError


@dataclass
class LineSearchResult:
    alpha: float
    x_new: np.ndarray
    f_new: np.ndarray
    fevals: int
    steps: int
    satisfied: bool


def sufficient_decrease(fnorm2_trial, rnorm2, alpha, slope, c1) -> bool:
    """||f(x + a d)||^2 <= ||r||^2 - 2 c1 a <J^T r, d>."""
    return fnorm2_trial <= rnorm2 - 2.0 * c1 * alpha * slope


def backtrack(
    eval_f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: np.ndarray,
    r: np.ndarray,
    slope: float,
    opts: LineSearchOptions,
) -> LineSearchResult:
    """Shrink alpha by tau from alpha0 until the decrease condition holds.

    slope is the caller's estimate of <J(x)^T r, d> and must be positive
    (descent for 0.5 ||f||^2). Costs one function evaluation per trial; the
    evaluation at the returned point is handed back for reuse. When
    max_backtracks is exhausted the best trial seen is returned with
    satisfied=False so the caller can restart. A trial at alpha = 1 adds d
    itself (the same bytes as 1.0 * d).
    """
    if slope <= 0.0:
        raise NotDescentError(f"line search needs a positive slope, got {slope!r}")
    rnorm2 = float(r @ r)
    alpha = opts.alpha0
    best = None
    steps = 0
    last_err = None
    while steps < opts.max_backtracks:
        steps += 1
        x_t = x + d if alpha == 1.0 else x + alpha * d
        try:
            f_t = eval_f(x_t)
        except (ValueError, ArithmeticError, NonFiniteError) as err:
            # Trial left the evaluable region; shrink like a failed trial.
            last_err = err
            alpha *= opts.tau
            continue
        n2 = float(f_t @ f_t)
        if best is None or n2 < best[0]:
            best = (n2, alpha, x_t, f_t)
        if sufficient_decrease(n2, rnorm2, alpha, slope, opts.c1):
            return LineSearchResult(alpha, x_t, f_t, steps, steps, True)
        alpha *= opts.tau
    if best is None:
        raise last_err
    _, a, x_t, f_t = best
    return LineSearchResult(a, x_t, f_t, steps, steps, False)


def backtrack_linearized(
    r: np.ndarray,
    Vy: np.ndarray,
    slope: float,
    opts: LineSearchOptions,
    *, rnorm2: Optional[float] = None,
):
    """Line search against the linear residual model ||r - a V y||^2.

    Costs no function evaluations. `rnorm2` is r @ r when the caller has
    it. Returns (alpha, steps, satisfied, r - alpha V y,
    ||r - alpha V y||^2) for the returned alpha, so the caller need not
    form or measure that residual again.
    """
    if slope <= 0.0:
        raise NotDescentError(f"line search needs a positive slope, got {slope!r}")
    rnorm2 = float(r @ r) if rnorm2 is None else rnorm2
    alpha = opts.alpha0
    best = None
    steps = 0
    while steps < opts.max_backtracks:
        steps += 1
        res = r - Vy if alpha == 1.0 else r - alpha * Vy
        n2 = float(res @ res)
        if best is None or n2 < best[0]:
            best = (n2, alpha, res)
        if sufficient_decrease(n2, rnorm2, alpha, slope, opts.c1):
            return alpha, steps, True, res, n2
        alpha *= opts.tau
    n2, alpha, res = best
    return alpha, steps, False, res, n2


def backtrack_phi(
    eval_phi: Callable[[np.ndarray], float],
    x: np.ndarray,
    d: np.ndarray,
    phi_x: float,
    slope_phi: float,
    opts: LineSearchOptions,
):
    """Classical Armijo on a scalar objective: phi(x + a d) <= phi(x) +
    c1 a <grad phi, d> with slope_phi = <grad phi, d> < 0.

    Used by the gradient-based baselines whose problems carry eval_phi.
    Returns (alpha, x_new, phi_new, steps, satisfied).
    """
    if slope_phi >= 0.0:
        raise NotDescentError(
            f"objective line search needs a negative slope, got {slope_phi!r}"
        )
    alpha = opts.alpha0
    best = None
    steps = 0
    last_err = None
    while steps < opts.max_backtracks:
        steps += 1
        x_t = x + alpha * d
        try:
            phi_t = float(eval_phi(x_t))
        except (ValueError, ArithmeticError, NonFiniteError) as err:
            last_err = err
            alpha *= opts.tau
            continue
        if best is None or phi_t < best[0]:
            best = (phi_t, alpha, x_t)
        if phi_t <= phi_x + opts.c1 * alpha * slope_phi:
            return alpha, x_t, phi_t, steps, True
        alpha *= opts.tau
    if best is None:
        raise last_err
    phi_t, a, x_t = best
    return a, x_t, phi_t, steps, False


def update_alpha0(opts: LineSearchOptions, steps_taken: int) -> LineSearchOptions:
    """Grow alpha0 by 1/tau (capped at 1) after a one-step search, shrink
    it by tau otherwise."""
    if steps_taken < 1:
        raise ValueError("steps_taken must be >= 1")
    if steps_taken == 1:
        a = min(1.0, opts.alpha0 / opts.tau)
    else:
        a = opts.tau * opts.alpha0
    # Rebuilding the frozen options costs more than a vector pass at n = 10^4.
    return opts if a == opts.alpha0 else replace(opts, alpha0=a)
