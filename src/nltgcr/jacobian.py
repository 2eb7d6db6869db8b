"""Matrix-free Jacobian-vector products and the cheap descent check."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .core import JvProbe, NonFiniteError, NonlinearProblem

# Relative step of the forward-difference probe (scaled by 1 + ||x||_inf).
FRECHET_EPS_SCALE = 1e-7


def frechet_jv(
    prob: NonlinearProblem,
    x: np.ndarray,
    p: np.ndarray,
    f_x: np.ndarray,
    probe: JvProbe,
    *,
    p_norm: Optional[float] = None,
) -> Tuple[np.ndarray, int]:
    """Approximate J(x) @ p, reusing the already computed f_x.

    Frechet mode takes one forward difference with
    eps = FRECHET_EPS_SCALE * (1 + ||x||_inf) / ||p||_2 and costs 1 feval; exact
    mode delegates to the problem's exact_jv and costs 0. `p_norm` is
    ||p||_2 when the caller has measured it already.

    Returns (J(x) @ p, fevals_spent).
    """
    if probe.mode == "exact":
        if prob.exact_jv is None:
            raise ValueError("problem has no exact_jv but probe mode is 'exact'")
        jv = prob.exact_jv(x, p)
        if not np.all(np.isfinite(jv)):
            raise NonFiniteError("J(x) p is not finite", x=x)
        return jv, 0
    if p_norm is None:
        p_norm = float(np.linalg.norm(p))
    if p_norm == 0.0:
        raise ValueError("cannot probe along a zero direction")
    eps = FRECHET_EPS_SCALE * (1.0 + float(np.abs(x).max())) / p_norm
    f_shift = prob.eval_f(x + eps * p)
    if not np.all(np.isfinite(f_shift)):
        raise NonFiniteError("f(x + eps*p) is not finite", x=x + eps * p)
    return (f_shift - f_x) / eps, 1


def descent_check(
    prob: NonlinearProblem,
    x: np.ndarray,
    r: np.ndarray,
    d: np.ndarray,
    probe: JvProbe,
) -> Tuple[float, int]:
    """Estimate <J(x)^T r, d> = <r, J(x) d> with one Frechet probe.

    With r = -f(x), a positive value means d is a descent direction for
    phi = 0.5 ||f||^2.
    """
    f_x = -r
    jd, fev = frechet_jv(prob, x, d, f_x, probe)
    return float(r @ jd), fev
