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


def angular_distance(r_nl: np.ndarray, r_lin: np.ndarray) -> float:
    """1 - cos of the angle between the nonlinear and linear residuals."""
    na = float(np.linalg.norm(r_nl))
    nb = float(np.linalg.norm(r_lin))
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
        self.r = -fx
        self.window = WindowPair(opts.window_m)
        self.mode = mode
        self.anchor_x = x
        self.anchor_f = fx
        self.lin_steps = 0
        self.breakdown_budget = MAX_BREAKDOWN_RESTARTS
        self.ls = opts.linesearch

    def jv_at_anchor(self, p, p_norm=None):
        if self.mode == "LIN":
            return self.ev.jv(self.anchor_x, p, self.anchor_f, p_norm=p_norm)
        return self.ev.jv(self.x, p, self.fx, p_norm=p_norm)

    def refresh_anchor(self):
        self.anchor_x = self.x
        self.anchor_f = self.fx

    def seed_window(self):
        """(Re)build the window from the current residual: one probe."""
        self.window.clear()
        if not self.build_direction():
            raise BreakdownError(
                "seed direction collapsed",
                residual=self.r.copy(),
                resnorm=float(np.linalg.norm(self.r)),
            )

    def restart(self):
        """Clear and reseed the window; raises once the retry budget is spent."""
        if self.breakdown_budget <= 0:
            raise BreakdownError(
                "window restarts exhausted",
                residual=self.r.copy(),
                resnorm=float(np.linalg.norm(self.r)),
            )
        self.breakdown_budget -= 1
        self.seed_window()

    def build_direction(self, r_norm: Optional[float] = None) -> bool:
        """Add the pair probed along the current residual, whose norm is
        r_norm if the caller has measured it; False on collapse."""
        v = self.jv_at_anchor(self.r, r_norm)
        return add_direction(self.window, self.r, v, p_norm=r_norm) is not None


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
    iterate, or the sweep origin for linearized updates).

    Returns (x, trace). Stops when ||f(x)|| / ||f(x0)|| <= opts.tol_rel or
    after max_iters iterations (core.drive). A zero step (||P y|| = 0)
    restarts the window without using up an iteration, so iterations are
    numbered as in the trace, for the observer's iter and the restart_every
    period alike; MAX_BREAKDOWN_RESTARTS bounds such restarts.

    `observer`, if given, is called once per iteration after the step and
    before the window takes its new pair, with a dict of live state it must
    not modify: iter, mode (of the step), x and r (after it), r_old, y, the
    window that gave y, step, theta (adaptive angle or None), r_tilde =
    r_old - V y, z = r_tilde - r (None in LIN mode), truncated, and
    fresh_pair (the window's newest pair was built along the previously
    observed r, with no restart since). identities.identity_observer checks
    the residual identities from it.
    """
    opts = opts or SolverOptions()
    mode = "LIN" if opts.variant == "linearized" else "NL"
    return drive(prob, x0, opts, _steps, mode, observer, probe=probe, start_mode=mode)


def _steps(ev, x, fx, target, opts, mode, observer):
    st = _Loop(x, fx, opts, ev, mode)
    st.seed_window()
    fresh = False  # the window's newest pair extends the previous step
    it = 0
    while True:
        # The window's (k, n) row blocks in storage order, one product each
        # per step; y is in that order too.
        P, V = st.window.rows()
        if opts.truncated_update:
            y = np.zeros(len(V))
            newest = st.window.newest_slot
            y[newest] = float(V[newest] @ st.r)
        else:
            y = V @ st.r

        d = np.dot(y, P)
        r_old = st.r
        if float(np.linalg.norm(d)) == 0.0:
            # Degenerate least-squares step with a nonzero residual: treat
            # as an unlucky-breakdown signal and restart the window.
            st.restart()
            fresh = False
            continue
        it += 1
        Vy = np.dot(y, V)

        step = 1.0
        pending_restart = False
        if st.mode == "NL":
            if st.ls is not None:
                res = backtrack(ev.f, st.x, d, st.r, float(y @ y), st.ls)
                st.ls = update_alpha0(st.ls, res.steps)
                step = res.alpha
                st.x = res.x_new
                st.fx = res.f_new
                st.r = -st.fx
                pending_restart = not res.satisfied
            else:
                st.x = st.x + d
                st.fx = ev.f(st.x)
                st.r = -st.fx
            resnorm = float(np.linalg.norm(st.r))
        else:
            # r_lin = r_old - step * Vy, measured once: np.linalg.norm is the
            # square root of this same dot product.
            if st.ls is not None:
                step, ls_steps, _, r_lin, n2 = backtrack_linearized(
                    st.r, Vy, float(y @ y), st.ls)
                st.ls = update_alpha0(st.ls, ls_steps)
            else:
                r_lin = r_old - Vy
                n2 = float(r_lin @ r_lin)
            resnorm = math.sqrt(n2)
            st.x = st.x + step * d
            st.r = r_lin
            st.lin_steps += 1

        switch = STAY
        theta = None
        if st.mode == "NL":
            if opts.variant == "adaptive" and resnorm > 0.0:
                r_lin = r_old - step * Vy
                if float(np.linalg.norm(r_lin)) > 0.0:
                    theta = angular_distance(st.r, r_lin)
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
                r_true = -st.fx
                rtn = float(np.linalg.norm(r_true))
                if opts.variant == "adaptive" and rtn > 0.0 and resnorm > 0.0:
                    theta = angular_distance(r_true, st.r)
                    switch = adaptive_switch(theta, opts, mode="LIN")
                st.r = r_true
                resnorm = rtn

        if observer is not None:
            r_tilde = r_old - Vy
            z = r_tilde - st.r if st.mode == "NL" else None
            observer(dict(iter=it, mode=st.mode, x=st.x, r=st.r, r_old=r_old, r_tilde=r_tilde,
                          z=z, y=st.window.logical(y), window=st.window, step=step, theta=theta,
                          truncated=opts.truncated_update, fresh_pair=fresh))
        yield st.x, resnorm, step, st.mode

        fresh = False
        periodic_restart = opts.restart_every is not None and it % opts.restart_every == 0
        if switch != STAY:
            st.mode = "LIN" if switch == TO_LIN else "NL"
            st.lin_steps = 0
            st.refresh_anchor()
        elif periodic_restart and st.mode == "LIN":
            st.fx = ev.f(st.x)
            st.r = -st.fx
            st.refresh_anchor()
        if switch != STAY or periodic_restart or pending_restart:
            st.seed_window()
        else:
            # st.r is the residual that resnorm measured.
            fresh = st.build_direction(resnorm)
            if not fresh:
                st.restart()
