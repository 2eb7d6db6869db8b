"""Matrix-free Jacobian-vector products and the cheap descent check."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .core import JvProbe, NonFiniteError, NonlinearProblem, all_finite

# Relative step of the forward-difference probe (scaled by 1 + ||x||_inf).
FRECHET_EPS_SCALE = 1e-7


def frechet_jv(
    prob: NonlinearProblem,
    x: np.ndarray,
    p: np.ndarray,
    r: np.ndarray,
    probe: JvProbe,
    *,
    p_norm: Optional[float] = None,
    x_inf: Optional[float] = None,
) -> Tuple[np.ndarray, int]:
    """Approximate J(x) @ p, reusing the residual r = -f(x) the caller holds.

    Frechet mode takes one forward difference (f(x + eps p) + r) / eps with
    eps = FRECHET_EPS_SCALE * (1 + ||x||_inf) / ||p||_2 and costs 1 feval.
    Negation is exact and a - b is a + (-b), so that is
    (f(x + eps p) - f(x)) / eps to the bit. Exact mode delegates to the
    problem's exact_jv and costs 0. `p_norm` is ||p||_2 and `x_inf` is
    ||x||_inf when the caller has measured them already.

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
    if x_inf is None:
        x_inf = float(np.abs(x).max())
    eps = FRECHET_EPS_SCALE * (1.0 + x_inf) / p_norm
    shifted = eps * p
    shifted += x
    f_shift = prob.eval_f(shifted)
    if not all_finite(f_shift):
        raise NonFiniteError("f(x + eps*p) is not finite", x=shifted)
    jv = f_shift + r
    jv /= eps
    return jv, 1


def descent_check(
    prob: NonlinearProblem,
    x: np.ndarray,
    r: np.ndarray,
    d: np.ndarray,
    probe: JvProbe,
) -> Tuple[float, int]:
    """Estimate <J(x)^T r, d> = <r, J(x) d> with one Frechet probe.

    r = -f(x) is also the probe's base, so no f(x) is formed. A positive
    value means d is a descent direction for phi = 0.5 ||f||^2.
    """
    jd, fev = frechet_jv(prob, x, d, r, probe)
    return float(r @ jd), fev
