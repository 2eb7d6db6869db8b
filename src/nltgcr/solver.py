"""Windowed nonlinear conjugate-residual solver with three residual-update
variants (nonlinear, linearized, adaptive) and built-in property probes."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .core import (
    BreakdownError,
    ConvergenceTrace,
    EvalCounter,
    JvProbe,
    NonFiniteError,
    NonlinearProblem,
    SolverOptions,
    TraceRecord,
    WindowPair,
    check_finite,
)
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


def adaptive_switch(
    r_nl: np.ndarray, r_lin: np.ndarray, opts: SolverOptions, mode: str = "NL"
) -> str:
    """Decide a residual-update mode switch from the residual angle.

    In NL mode, switch to linear updates once the two residuals nearly
    coincide (theta below the threshold). In LIN mode (called every
    adaptive_check_period iterations against a fresh nonlinear residual),
    switch back once they drift apart. Switching back clears the window.
    """
    theta = angular_distance(r_nl, r_lin)
    if mode == "NL":
        return TO_LIN if theta < opts.adaptive_threshold else STAY
    return TO_NL if theta >= opts.adaptive_threshold else STAY


@dataclass
class SecantReport:
    secant_max: float
    nochange_max: float


def secant_property_check(window: WindowPair, seed: int = 0, n_probes: int = 3) -> SecantReport:
    """Check G = P V^T against its secant and no-change identities.

    secant_max is max_i ||P V^T v_i - p_i||_inf; nochange_max is the largest
    ||P V^T q||_inf over random probes q orthogonalized against the window.
    """
    if len(window) == 0:
        raise ValueError("secant check needs a nonempty window")
    P = window.p_matrix()
    V = window.v_matrix()
    secant = 0.0
    for i in range(V.shape[1]):
        resid = P @ (V.T @ V[:, i]) - P[:, i]
        secant = max(secant, float(np.abs(resid).max()))
    rng = np.random.default_rng(seed)
    nochange = 0.0
    for _ in range(n_probes):
        q = rng.standard_normal(V.shape[0])
        q = q - V @ (V.T @ q)
        q = q - V @ (V.T @ q)
        nq = float(np.linalg.norm(q))
        if nq == 0.0:
            continue
        q /= nq
        nochange = max(nochange, float(np.abs(P @ (V.T @ q)).max()))
    return SecantReport(secant_max=secant, nochange_max=nochange)


def frobenius_gap(window: WindowPair, seed: int = 0, n_samples: int = 10) -> float:
    """Smallest ||G'||_F - ||G||_F over perturbations G' = G + Z (I - V V^T).

    G = P V^T is the minimum-Frobenius-norm matrix satisfying G V = P, so
    the gap should never be meaningfully negative.
    """
    P = window.p_matrix()
    V = window.v_matrix()
    G = P @ V.T
    base = float(np.linalg.norm(G))
    rng = np.random.default_rng(seed)
    gap = np.inf
    n = V.shape[0]
    for _ in range(n_samples):
        Z = rng.standard_normal((n, n))
        Gp = G + Z - (Z @ V) @ V.T
        gap = min(gap, float(np.linalg.norm(Gp)) - base)
    return gap


class _Loop:
    """Mutable solve state shared by the step helpers."""

    def __init__(self, x, fx, opts, ev):
        self.opts = opts
        self.ev = ev
        self.x = x
        self.fx = fx
        self.r = -fx
        self.window = WindowPair(opts.window_m)
        self.mode = "LIN" if opts.variant == "linearized" else "NL"
        self.anchor_x = x
        self.anchor_f = fx
        self.lin_steps = 0
        self.breakdown_budget = MAX_BREAKDOWN_RESTARTS
        self.ls = opts.linesearch

    def jv_at_anchor(self, p):
        if self.mode == "LIN":
            return self.ev.jv(self.anchor_x, p, self.anchor_f)
        return self.ev.jv(self.x, p, self.fx)

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

    def restart(self) -> bool:
        """Clear and reseed the window; False when the retry budget is spent."""
        if self.breakdown_budget <= 0:
            return False
        self.breakdown_budget -= 1
        self.seed_window()
        return True

    def build_direction(self) -> bool:
        """Add the pair probed along the current residual; False on collapse."""
        return add_direction(self.window, self.r, self.jv_at_anchor(self.r)) is not None


def nltgcr_solve(
    prob: NonlinearProblem,
    x0: np.ndarray,
    opts: Optional[SolverOptions] = None,
    probe: Optional[JvProbe] = None,
    diagnostics: Optional[List[dict]] = None,
    observer: Optional[Callable[[dict], None]] = None,
):
    """Solve f(x) = 0 by the windowed conjugate-residual iteration.

    Each iteration solves the small least-squares problem y = V^T r over
    the stored window, steps along d = P y (scaled by the line search when
    enabled), refreshes the residual according to the variant, and adds one
    new direction pair probed at the variant's Jacobian anchor (the current
    iterate, or the sweep origin for linearized updates).

    Returns (x, trace). Stops when ||f(x)|| / ||f(x0)|| <= opts.tol_rel or
    after max_iters iterations. `diagnostics`, when given a list, receives
    one JSON-friendly dict per iteration with the residual-identity
    violations; `observer` receives live state for heavier checks.
    """
    opts = opts or SolverOptions()
    ev = EvalCounter(prob, probe)
    t0 = time.perf_counter()
    trace = ConvergenceTrace()

    x = check_finite(np.asarray(x0, dtype=float), "x0").copy()
    if x.shape != (prob.dim,):
        raise ValueError(f"x0 must have length {prob.dim}")
    try:
        fx = ev.f(x)
        st = _Loop(x, fx, opts, ev)
        r0n = float(np.linalg.norm(st.r))
        trace.append(TraceRecord(0, ev.count, r0n, 0.0, st.mode, time.perf_counter() - t0))
        if r0n == 0.0:
            return st.x, trace.freeze()
        st.seed_window()
        return _run(st, opts, ev, trace, opts.tol_rel * r0n, t0, diagnostics, observer)
    except (NonFiniteError, BreakdownError) as err:
        if err.trace is None:
            err.trace = trace.freeze()
        raise


def _run(st, opts, ev, trace, target, t0, diagnostics, observer):
    def fail_breakdown():
        raise BreakdownError(
            "window restarts exhausted",
            residual=st.r.copy(),
            resnorm=float(np.linalg.norm(st.r)),
        )

    prev_rtilde = None
    prev_z = None
    it = 0
    while it < opts.max_iters:
        it += 1
        x_good = st.x
        V = st.window.v_matrix()
        P = st.window.p_matrix()
        k = V.shape[1]
        if opts.truncated_update:
            y = np.zeros(k)
            y[-1] = float(V[:, -1] @ st.r)
        else:
            y = V.T @ st.r

        diag = None
        if diagnostics is not None:
            diag = {"iter": it, "mode": st.mode, "window": k}
            if prev_z is not None and not opts.truncated_update:
                rhs = -(V.T @ prev_z)
                rhs[-1] += float(V[:, -1] @ prev_rtilde)
                diag["item4_y_reconstruction"] = float(np.abs(y - rhs).max())
            if not opts.truncated_update:
                # debug route: the orthonormal-window shortcut must agree
                # with a dense least-squares solve of min ||r - V y||
                y_ls, *_ = np.linalg.lstsq(V, st.r, rcond=None)
                diag["least_squares_gap"] = float(np.abs(y - y_ls).max())

        d = P @ y
        r_old = st.r
        if float(np.linalg.norm(d)) == 0.0:
            # Degenerate least-squares step with a nonzero residual: treat
            # as an unlucky-breakdown signal and restart the window.
            if not st.restart():
                fail_breakdown()
            continue

        step = 1.0
        pending_restart = False
        try:
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
                r_lin = r_old - step * (V @ y)
            else:
                if st.ls is not None:
                    step, ls_steps, _ = backtrack_linearized(
                        st.r, V @ y, float(y @ y), st.ls
                    )
                    st.ls = update_alpha0(st.ls, ls_steps)
                st.x = st.x + step * d
                r_lin = r_old - step * (V @ y)
                st.r = r_lin
                st.lin_steps += 1

            switch = STAY
            resnorm = float(np.linalg.norm(st.r))
            theta = None
            if st.mode == "NL":
                if opts.variant == "adaptive" and resnorm > 0.0:
                    if float(np.linalg.norm(r_lin)) > 0.0:
                        theta = angular_distance(st.r, r_lin)
                        switch = adaptive_switch(st.r, r_lin, opts, mode="NL")
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
                        switch = adaptive_switch(r_true, st.r, opts, mode="LIN")
                    st.r = r_true
                    resnorm = rtn
        except NonFiniteError as err:
            err.x = x_good
            raise

        trace.append(
            TraceRecord(it, ev.count, resnorm, step, st.mode, time.perf_counter() - t0)
        )

        r_tilde = r_old - (V @ y)
        z = r_tilde - st.r if st.mode == "NL" else None
        if diag is not None:
            diag["resnorm"] = resnorm
            diag["step_size"] = step
            diag["item1_vt_rtilde"] = float(np.abs(V.T @ r_tilde).max())
            diag["z_norm"] = float(np.linalg.norm(z)) if z is not None else None
            diag["prev_resnorm"] = float(np.linalg.norm(r_old))
            diag["theta"] = theta
            diag["window_defect"] = st.window.orthonormality_defect()
            rep = secant_property_check(st.window, seed=it)
            diag["secant_max"] = rep.secant_max
            diag["nochange_max"] = rep.nochange_max

        done = resnorm <= target
        restart_now = False
        built = False
        if not done:
            prev_rtilde, prev_z = r_tilde, z
            if switch == TO_LIN:
                st.mode = "LIN"
                st.lin_steps = 0
                st.refresh_anchor()
                restart_now = True
            elif switch == TO_NL:
                st.mode = "NL"
                st.refresh_anchor()
                restart_now = True
            elif opts.restart_every is not None and it % opts.restart_every == 0:
                if st.mode == "LIN":
                    st.fx = ev.f(st.x)
                    st.r = -st.fx
                    st.refresh_anchor()
                restart_now = True
            elif pending_restart:
                restart_now = True
            if restart_now:
                prev_rtilde = prev_z = None
                st.seed_window()
            else:
                built = st.build_direction()
                if not built and not st.restart():
                    fail_breakdown()

        if diag is not None:
            if built:
                v_new = st.window.v_matrix()[:, -1]
                diag["item3_vr"] = abs(float(v_new @ r_tilde) - float(v_new @ r_old))
            diagnostics.append(diag)
        if observer is not None:
            observer(
                {
                    "iter": it,
                    "x": st.x,
                    "r": st.r,
                    "r_tilde": r_tilde,
                    "z": z,
                    "y": y,
                    "window": st.window,
                    "mode": st.mode,
                    "step": step,
                    "fresh_pair": built,
                }
            )
        if done:
            break

    return st.x, trace.freeze()
