"""Windowed nonlinear conjugate-residual solver with three residual-update
variants (nonlinear, linearized, adaptive)."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import BreakdownError, NonlinearProblem, SolverOptions, WindowPair, drive
# orthogonalize_pair stays importable here: perfbench/tracing.py wraps it by this name.
from .linear import add_direction, orthogonalize_pair  # noqa: F401
from .linesearch import backtrack, backtrack_linearized, update_alpha0

# Window restarts allowed after collapsed directions before giving up.
MAX_BREAKDOWN_RESTARTS = 3


def angular_distance(r_nl: np.ndarray, r_lin: np.ndarray, na: Optional[float] = None,
                     nb: Optional[float] = None) -> float:
    """1 - cos of the angle between the nonlinear and linear residuals;
    na and nb are their norms when the caller has measured them."""
    na = float(np.linalg.norm(r_nl)) if na is None else na
    nb = float(np.linalg.norm(r_lin)) if nb is None else nb
    if na == 0.0 or nb == 0.0:
        raise ValueError("angular distance undefined for a zero residual")
    return 1.0 - float(r_nl @ r_lin) / (na * nb)


def adaptive_switch(theta: float, opts: SolverOptions) -> str:
    """The residual-update mode after an adaptive check: "LIN" exactly when
    theta, the angular_distance of the nonlinear and linear residuals, is
    below opts.adaptive_threshold, else "NL".

    NL mode checks after every step; LIN mode checks every
    adaptive_check_period steps, against a fresh nonlinear residual. A
    change of mode moves the Jacobian anchor and clears the window.
    """
    return "LIN" if theta < opts.adaptive_threshold else "NL"


def nltgcr_solve(
    prob: NonlinearProblem,
    x0: np.ndarray,
    opts: Optional[SolverOptions] = None,
    exact_jv: bool = False,
    observer: Optional[Callable[[dict], None]] = None,
):
    """Solve f(x) = 0 by the windowed conjugate-residual iteration.

    Each iteration solves the small least-squares problem y = V^T r over
    the stored window, steps along d = P y (scaled by the line search when
    enabled), refreshes the residual according to the variant, and adds one
    new direction pair probed at the variant's Jacobian anchor (the current
    iterate, or the sweep origin for linearized updates). A LIN step
    whose r is the unrefreshed linear residual of a unit LIN step, in a
    window of two or more pairs whose newest was built along that r, takes
    TGCR's one coefficient instead: every older v is orthogonal to r to
    rounding there, so y is v_new . r at the newest pair and zero elsewhere.
    truncated_update forces that y on every step.

    Returns (x, trace). Stops when ||f(x)|| / ||f(x0)|| <= opts.tol_rel or
    after max_iters iterations (core.drive). A zero step (||P y|| = 0)
    restarts the window without using up an iteration, so iterations are
    numbered as in the trace, for the observer's iter and the restart_every
    period alike; MAX_BREAKDOWN_RESTARTS bounds such restarts.

    `observer`, if given, is called once per iteration after the step and
    before the window takes its new pair, with a dict of live state it must
    not modify: iter, mode (of the step), x and r (after it), r_old, y, the
    window that gave y, step, theta (adaptive angle or None), r_tilde =
    r_old - V y, z = r_tilde - r (None in LIN mode), truncated, one_coef
    (y was formed from the newest pair alone), and fresh_pair (the window's
    newest pair was built along the previously observed r, with no restart
    since). identities.identity_observer checks the residual identities
    from it.

    With `exact_jv` every direction is probed by the problem's exact_jv,
    at no feval, instead of a forward difference (core.EvalCounter).
    """
    opts = opts or SolverOptions()
    mode = "LIN" if opts.variant == "linearized" else "NL"
    return drive(prob, x0, opts, _steps, mode, observer, exact_jv=exact_jv, start_mode=mode)


def _steps(ev, x, fx, target, opts, mode, observer):
    window = WindowPair(opts.window_m)
    ls = opts.linesearch
    # r = -f(x) is also the base of every probe at x (EvalCounter.jv),
    # so f(x) itself is not kept.
    r = -fx
    del fx
    r2 = float(r @ r)  # always r @ r: every update of r sets both
    # ||f(x0)||: a direction probed along a residual at rounding level
    # against it collapses (linear.add_direction).
    r0_norm = math.sqrt(r2)
    # The LIN-mode Jacobian anchor: x, r and ||x||_inf there, None in NL
    # mode, which probes at x. Every LIN-mode probe until the anchor moves
    # scales by its max-norm.
    anchor_x, anchor_r, anchor_inf = (
        (x, r, float(np.abs(x).max())) if mode == "LIN" else (None, None, None))
    lin_steps = 0
    restarts_left = MAX_BREAKDOWN_RESTARTS

    def build_direction() -> bool:
        """Add the pair probed along r at the mode's Jacobian anchor; False
        on collapse."""
        r_norm = math.sqrt(r2)
        if mode == "LIN":
            v = ev.jv(anchor_x, r, anchor_r, p_norm=r_norm, x_inf=anchor_inf)
        else:
            v = ev.jv(x, r, r, p_norm=r_norm)
        return add_direction(window, r, v, r0_norm=r0_norm, p_norm=r_norm) is not None

    def seed_window(restart=False):
        """Clear the window and seed it along r: one probe. A restart spends
        one of MAX_BREAKDOWN_RESTARTS and raises once none is left."""
        nonlocal restarts_left
        if restart:
            if restarts_left <= 0:
                raise BreakdownError("window restarts exhausted")
            restarts_left -= 1
        window.clear()
        if not build_direction():
            raise BreakdownError("seed direction collapsed")

    seed_window()
    fresh = False  # the window's newest pair extends the previous step
    unit_lin = False  # r is the r_lin of a unit LIN step, not refreshed since
    adaptive = opts.variant == "adaptive"
    # Only the LIN update, the adaptive NL angle and the observer read V y.
    wants_vy = opts.variant != "nonlinear" or observer is not None
    it = 0
    while True:
        # The window's (k, n) row blocks in storage order, one product each
        # per step; y is in that order too.
        P, V = window.rows()
        one_coef = opts.truncated_update or (fresh and unit_lin and len(V) > 1)
        if one_coef:
            # One coefficient, TGCR's alpha = v_new . r. After a unit linear
            # update every older v is orthogonal to r to rounding, so V^T r
            # is zero outside the newest pair; a truncated update drops the
            # rest by choice. A one-pair window keeps the full products: they
            # are one pass each already, in fewer numpy calls than this branch.
            newest = window.newest_slot
            y_new = float(V[newest] @ r)
            y = np.zeros(len(V))
            y[newest] = y_new
            d = y_new * P[newest]
            Vy = y_new * V[newest] if wants_vy else None
        else:
            y = V @ r
            d = np.dot(y, P)
            Vy = np.dot(y, V) if wants_vy else None
        r_old = r
        if float(d @ d) == 0.0:
            # Degenerate least-squares step with a nonzero residual: treat
            # as an unlucky-breakdown signal and restart the window.
            seed_window(restart=True)
            fresh = False
            continue
        it += 1

        step = 1.0
        pending_restart = False
        r_lin = None  # the linear residual an adaptive check compares r with
        # Each n-vector is dropped once nothing reads it again: d after the
        # x update, f(x) once negated, the search result once unpacked, and
        # r_old and V y (kept for the observer) once the new residual and
        # the linear one are formed.
        if mode == "NL":
            if ls is not None:
                res = backtrack(ev.f, x, d, r, float(y @ y), ls, rnorm2=r2)
                ls = update_alpha0(ls, res.steps)
                step, x, r, pending_restart = res.alpha, res.x_new, -res.f_new, not res.satisfied
                del res
            else:
                x = x + d
                r = -ev.f(x)
            del d
            r2 = float(r @ r)
            resnorm = math.sqrt(r2)
            if adaptive:
                r_lin = r_old - Vy if step == 1.0 else r_old - step * Vy
                lin_norm = float(np.linalg.norm(r_lin))
        else:
            if ls is not None:
                res = backtrack_linearized(r, Vy, float(y @ y), ls, rnorm2=r2)
                ls = update_alpha0(ls, res.steps)
                step, r, r2 = res.alpha, res.f_new, res.merit
                del res
            else:
                r = r_old - Vy
                r2 = float(r @ r)
            if observer is None:
                r_old = Vy = None
            # A step of exactly 1 adds d itself: the same bytes, one pass less.
            x = x + d if step == 1.0 else x + step * d
            del d
            resnorm = math.sqrt(r2)
            lin_steps += 1
            unit_lin = step == 1.0
            if (adaptive and lin_steps % opts.adaptive_check_period == 0) or resnorm <= target:
                # One charged evaluation refreshes the true residual; the
                # adaptive variant also checks the angle against it.
                r_lin, lin_norm = r, resnorm
                r = -ev.f(x)
                r2 = float(r @ r)
                resnorm = math.sqrt(r2)
                unit_lin = False

        if observer is None:
            r_old = Vy = None
        theta = None
        new_mode = mode
        if adaptive and r_lin is not None and resnorm > 0.0 and lin_norm > 0.0:
            theta = angular_distance(r, r_lin, resnorm, lin_norm)
            new_mode = adaptive_switch(theta, opts)
        del r_lin

        if observer is not None:
            r_tilde = r_old - Vy
            z = r_tilde - r if mode == "NL" else None
            observer(dict(iter=it, mode=mode, x=x, r=r, r_old=r_old, r_tilde=r_tilde,
                          z=z, y=window.logical(y), window=window, step=step, theta=theta,
                          truncated=opts.truncated_update, one_coef=one_coef, fresh_pair=fresh))
        yield x, resnorm, step, mode

        fresh = False
        periodic_restart = opts.restart_every is not None and it % opts.restart_every == 0
        reanchor = new_mode != mode or (periodic_restart and mode == "LIN")
        if new_mode != mode:
            mode, lin_steps = new_mode, 0
        elif reanchor:
            # A periodic LIN restart re-anchors at a refreshed residual.
            r = -ev.f(x)
            r2 = float(r @ r)
        if reanchor:
            anchor_x, anchor_r, anchor_inf = (
                (x, r, float(np.abs(x).max())) if mode == "LIN" else (None, None, None))
        if reanchor or periodic_restart or pending_restart:
            seed_window()
        else:
            fresh = build_direction()
            if not fresh:
                seed_window(restart=True)
