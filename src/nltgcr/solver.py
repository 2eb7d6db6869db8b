"""Windowed nonlinear conjugate-residual solver with three residual-update
variants (nonlinear, linearized, adaptive)."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import BreakdownError, JvProbe, NonlinearProblem, SolverOptions, WindowPair, drive
# orthogonalize_pair stays importable here: perfbench/tracing.py wraps it by this name.
from .linear import add_direction, orthogonalize_pair  # noqa: F401
from .linesearch import backtrack, backtrack_linearized, update_alpha0

TO_LIN = "to_lin"
TO_NL = "to_nl"
STAY = "stay"
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


def adaptive_switch(theta: float, opts: SolverOptions, mode: str = "NL") -> str:
    """Decide a residual-update mode switch from the residual angle theta,
    the angular_distance of the nonlinear and linear residuals.

    In NL mode, switch to linear updates once the two residuals nearly
    coincide (theta below the threshold). In LIN mode (called every
    adaptive_check_period iterations against a fresh nonlinear residual),
    switch back once they drift apart. Switching back clears the window.
    """
    if mode == "NL":
        return TO_LIN if theta < opts.adaptive_threshold else STAY
    return TO_NL if theta >= opts.adaptive_threshold else STAY


class _Loop:
    """Mutable solve state shared by the step helpers."""

    def __init__(self, x, fx, opts, ev, mode):
        self.opts = opts
        self.ev = ev
        self.x = x
        self.fx = fx
        # ||f(x0)||: a direction probed along a residual at rounding level
        # against it collapses (linear.add_direction).
        self.r0_norm = self.set_residual(-fx)
        self.window = WindowPair(opts.window_m)
        self.mode = mode
        self.refresh_anchor()
        self.lin_steps = 0
        self.breakdown_budget = MAX_BREAKDOWN_RESTARTS
        self.ls = opts.linesearch

    def set_residual(self, r, r2=None) -> float:
        """Make r the current residual and r2 = r @ r (given or formed), so
        the two never disagree; returns ||r||, as np.linalg.norm rounds it."""
        self.r = r
        self.r2 = float(r @ r) if r2 is None else r2
        return math.sqrt(self.r2)

    def refresh_anchor(self):
        self.anchor_x = self.x
        self.anchor_f = self.fx
        # Every LIN-mode probe until the next refresh scales by this norm.
        self.anchor_inf = float(np.abs(self.x).max())

    def seed_window(self):
        """(Re)build the window from the current residual: one probe."""
        self.window.clear()
        if not self.build_direction():
            raise BreakdownError(
                "seed direction collapsed",
                residual=self.r.copy(),
                resnorm=math.sqrt(self.r2),
            )

    def restart(self):
        """Clear and reseed the window; raises once the retry budget is spent."""
        if self.breakdown_budget <= 0:
            raise BreakdownError(
                "window restarts exhausted",
                residual=self.r.copy(),
                resnorm=math.sqrt(self.r2),
            )
        self.breakdown_budget -= 1
        self.seed_window()

    def build_direction(self) -> bool:
        """Add the pair probed along the current residual at the mode's
        Jacobian anchor; False on collapse."""
        r_norm = math.sqrt(self.r2)
        if self.mode == "LIN":
            v = self.ev.jv(self.anchor_x, self.r, self.anchor_f, p_norm=r_norm,
                           x_inf=self.anchor_inf)
        else:
            v = self.ev.jv(self.x, self.r, self.fx, p_norm=r_norm)
        return add_direction(self.window, self.r, v, r0_norm=self.r0_norm,
                             p_norm=r_norm) is not None


def nltgcr_solve(
    prob: NonlinearProblem,
    x0: np.ndarray,
    opts: Optional[SolverOptions] = None,
    probe: Optional[JvProbe] = None,
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
    """
    opts = opts or SolverOptions()
    mode = "LIN" if opts.variant == "linearized" else "NL"
    return drive(prob, x0, opts, _steps, mode, observer, probe=probe, start_mode=mode)


def _steps(ev, x, fx, target, opts, mode, observer):
    st = _Loop(x, fx, opts, ev, mode)
    st.seed_window()
    fresh = False  # the window's newest pair extends the previous step
    unit_lin = False  # st.r is the r_lin of a unit LIN step, not refreshed since
    # Only the LIN update, the adaptive NL angle and the observer read V y.
    wants_vy = opts.variant != "nonlinear" or observer is not None
    it = 0
    while True:
        # The window's (k, n) row blocks in storage order, one product each
        # per step; y is in that order too.
        P, V = st.window.rows()
        one_coef = opts.truncated_update or (fresh and unit_lin and len(V) > 1)
        if one_coef:
            # One coefficient, TGCR's alpha = v_new . r. After a unit linear
            # update every older v is orthogonal to r to rounding, so V^T r
            # is zero outside the newest pair; a truncated update drops the
            # rest by choice. A one-pair window keeps the full products: they
            # are one pass each already, in fewer numpy calls than this branch.
            newest = st.window.newest_slot
            y_new = float(V[newest] @ st.r)
            y = np.zeros(len(V))
            y[newest] = y_new
            d = y_new * P[newest]
            Vy = y_new * V[newest] if wants_vy else None
        else:
            y = V @ st.r
            d = np.dot(y, P)
            Vy = np.dot(y, V) if wants_vy else None
        r_old = st.r
        if float(d @ d) == 0.0:
            # Degenerate least-squares step with a nonzero residual: treat
            # as an unlucky-breakdown signal and restart the window.
            st.restart()
            fresh = False
            continue
        it += 1

        step = 1.0
        pending_restart = False
        if st.mode == "NL":
            if st.ls is not None:
                res = backtrack(ev.f, st.x, d, st.r, float(y @ y), st.ls, rnorm2=st.r2)
                st.ls = update_alpha0(st.ls, res.steps)
                step = res.alpha
                st.x = res.x_new
                st.fx = res.f_new
                pending_restart = not res.satisfied
            else:
                st.x = st.x + d
                st.fx = ev.f(st.x)
            resnorm = st.set_residual(-st.fx)
        else:
            if st.ls is not None:
                res = backtrack_linearized(st.r, Vy, float(y @ y), st.ls, rnorm2=st.r2)
                st.ls = update_alpha0(st.ls, res.steps)
                step, r_lin, n2 = res.alpha, res.f_new, res.merit
            else:
                r_lin, n2 = r_old - Vy, None
            # A step of exactly 1 adds d itself: the same bytes, one pass less.
            st.x = st.x + d if step == 1.0 else st.x + step * d
            resnorm = st.set_residual(r_lin, n2)
            st.lin_steps += 1
        unit_lin = st.mode == "LIN" and step == 1.0

        switch = STAY
        theta = None
        if st.mode == "NL":
            if opts.variant == "adaptive" and resnorm > 0.0:
                r_lin = r_old - Vy if step == 1.0 else r_old - step * Vy
                lin_norm = float(np.linalg.norm(r_lin))
                if lin_norm > 0.0:
                    theta = angular_distance(st.r, r_lin, resnorm, lin_norm)
                    switch = adaptive_switch(theta, opts, mode="NL")
        else:
            periodic = (
                opts.variant == "adaptive"
                and st.lin_steps % opts.adaptive_check_period == 0
            )
            if periodic or resnorm <= target:
                # One charged evaluation refreshes the true residual; the
                # adaptive variant also uses it for the switch decision.
                st.fx = ev.f(st.x)
                r_lin, lin_norm = st.r, resnorm
                resnorm = st.set_residual(-st.fx)
                unit_lin = False
                if opts.variant == "adaptive" and resnorm > 0.0 and lin_norm > 0.0:
                    theta = angular_distance(st.r, r_lin, resnorm, lin_norm)
                    switch = adaptive_switch(theta, opts, mode="LIN")

        if observer is not None:
            r_tilde = r_old - Vy
            z = r_tilde - st.r if st.mode == "NL" else None
            observer(dict(iter=it, mode=st.mode, x=st.x, r=st.r, r_old=r_old, r_tilde=r_tilde,
                          z=z, y=st.window.logical(y), window=st.window, step=step, theta=theta,
                          truncated=opts.truncated_update, one_coef=one_coef, fresh_pair=fresh))
        yield st.x, resnorm, step, st.mode

        fresh = False
        periodic_restart = opts.restart_every is not None and it % opts.restart_every == 0
        if switch != STAY:
            st.mode = "LIN" if switch == TO_LIN else "NL"
            st.lin_steps = 0
            st.refresh_anchor()
        elif periodic_restart and st.mode == "LIN":
            st.fx = ev.f(st.x)
            st.set_residual(-st.fx)
            st.refresh_anchor()
        if switch != STAY or periodic_restart or pending_restart:
            st.seed_window()
        else:
            fresh = st.build_direction()
            if not fresh:
                st.restart()
