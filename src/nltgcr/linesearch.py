"""Backtracking line searches: one loop, three merit functions, an adaptive initial stepsize."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import LineSearchOptions, NonFiniteError, NotDescentError


@dataclass
class LineSearchResult:
    """The returned trial. `f_new` is f(x_new) for `backtrack`, the model
    residual r - alpha V y for `backtrack_linearized` (x_new None) and None
    for `backtrack_phi`; `merit` is ||f_new||^2 for the first two, phi for
    the last. `steps` counts every trial, those that raised included."""

    alpha: float
    x_new: Optional[np.ndarray]
    f_new: Optional[np.ndarray]
    steps: int
    satisfied: bool
    merit: float


def sufficient_decrease(merit, merit0, alpha, slope, c1) -> bool:
    """Armijo: merit <= merit0 - 2 c1 a slope.

    On ||f||^2, merit0 = ||r||^2 and slope = <J^T r, d>, half the rate at
    which ||f(x + a d)||^2 falls at a = 0.
    """
    return merit <= merit0 - 2.0 * c1 * alpha * slope


# A trial that raises one of these left the evaluable region.
_EVAL_ERRORS = (ValueError, ArithmeticError, NonFiniteError)


def _backtrack(trial, merit0, slope, c1, opts: LineSearchOptions, errors) -> LineSearchResult:
    """Try alpha = alpha0, tau alpha0, ... until sufficient_decrease holds.

    trial(alpha) returns (merit, x, f) at x + alpha d. A trial raising one
    of `errors` is rejected like one that fails the test. After
    max_backtracks trials the best one evaluated is returned with
    satisfied=False; when none could be evaluated the last error is raised.
    """
    if slope <= 0.0:
        raise NotDescentError(f"line search needs a descent direction, got slope {slope!r}")
    alpha = opts.alpha0
    best = last_err = None
    for steps in range(1, opts.max_backtracks + 1):
        try:
            merit, x_t, f_t = trial(alpha)
        except errors as err:
            last_err = err
        else:
            if sufficient_decrease(merit, merit0, alpha, slope, c1):
                return LineSearchResult(alpha, x_t, f_t, steps, True, merit)
            if best is None or merit < best.merit:
                best = LineSearchResult(alpha, x_t, f_t, steps, False, merit)
        alpha *= opts.tau
    if best is None:
        raise last_err
    best.steps = steps
    return best


def backtrack(
    eval_f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: np.ndarray,
    r: np.ndarray,
    slope: float,
    opts: LineSearchOptions,
) -> LineSearchResult:
    """Backtracking on ||f(x + a d)||^2 against ||r||^2, r = -f(x).

    slope is the caller's estimate of <J(x)^T r, d> and must be positive
    (descent for 0.5 ||f||^2). Costs one function evaluation per trial; the
    evaluation at the returned point is handed back for reuse. A trial at
    alpha = 1 adds d itself (the same bytes as 1.0 * d).
    """

    def trial(alpha):
        x_t = x + d if alpha == 1.0 else x + alpha * d
        f_t = eval_f(x_t)
        return float(f_t @ f_t), x_t, f_t

    return _backtrack(trial, float(r @ r), slope, opts.c1, opts, _EVAL_ERRORS)


def backtrack_linearized(
    r: np.ndarray,
    Vy: np.ndarray,
    slope: float,
    opts: LineSearchOptions,
    *, rnorm2: float,
) -> LineSearchResult:
    """Backtracking on the linear residual model ||r - a V y||^2.

    Costs no function evaluations; rnorm2 is r @ r. The result carries
    r - alpha V y and its squared norm, so the caller need not form or
    measure that residual again.
    """

    def trial(alpha):
        res = r - Vy if alpha == 1.0 else r - alpha * Vy
        return float(res @ res), None, res

    return _backtrack(trial, rnorm2, slope, opts.c1, opts, ())


def backtrack_phi(
    eval_phi: Callable[[np.ndarray], float],
    x: np.ndarray,
    d: np.ndarray,
    phi_x: float,
    slope_phi: float,
    opts: LineSearchOptions,
) -> LineSearchResult:
    """Classical Armijo on a scalar objective: phi(x + a d) <= phi(x) +
    c1 a <grad phi, d> with slope_phi = <grad phi, d> < 0.

    Used by the gradient-based baselines whose problems carry eval_phi.
    That test is sufficient_decrease with slope -slope_phi and c1 / 2.
    """

    def trial(alpha):
        x_t = x + alpha * d
        return float(eval_phi(x_t)), x_t, None

    return _backtrack(trial, phi_x, -slope_phi, 0.5 * opts.c1, opts, _EVAL_ERRORS)


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
