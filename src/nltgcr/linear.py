"""Residual-minimizing linear solvers: full GCR, truncated GCR, and CR.

The truncated and full solvers share one direction step, add_direction,
with the nonlinear solver: modified Gram-Schmidt against a WindowPair that
keeps the stored A p_i columns orthonormal. The classical conjugate residual
recurrence is implemented separately so the two can cross-check each other
on symmetric operators.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import BreakdownError, WindowPair, check_finite


@dataclass
class LinearOperator:
    """Matrix-free linear map with a declared symmetry flag."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    is_symmetric: bool = False
    mat: Optional[np.ndarray] = None

    @classmethod
    def from_matrix(cls, A: np.ndarray, is_symmetric: Optional[bool] = None):
        A = np.asarray(A, dtype=float)
        if is_symmetric is None:
            is_symmetric = bool(np.allclose(A, A.T, atol=1e-13 * max(1.0, np.abs(A).max())))
        return cls(dim=A.shape[0], apply=lambda v: A @ v, is_symmetric=is_symmetric, mat=A)

    def linearity_defect(self, n_probes: int = 5, seed: int = 0) -> float:
        """Max violation of A(ax + by) = a Ax + b Ay on random probes."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_probes):
            x = rng.standard_normal(self.dim)
            y = rng.standard_normal(self.dim)
            a, b = rng.standard_normal(2)
            lhs = self.apply(a * x + b * y)
            rhs = a * self.apply(x) + b * self.apply(y)
            scale = max(1.0, float(np.linalg.norm(lhs)))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
        return worst


@dataclass(frozen=True)
class LinearOptions:
    tol_rel: float = 1e-10
    max_iters: int = 500


# A new direction collapses when its orthogonalized ||v|| is at most
# BREAKDOWN_TOL * max(1, ||p||) for the raw p; Gram-Schmidt takes a second
# pass when the first leaves a projection above REORTH_REL * ||v||.
BREAKDOWN_TOL = 1e-14
REORTH_REL = 1e-8


class KrylovHistory:
    """Everything the solvers record, kept in the normalized basis.

    The algorithms store p_i and v_i = A p_i scaled so that the v columns
    are unit vectors; `scales[i]` is the norm removed at step i. The
    directions are read from the solve's window, so a truncated history
    holds only the last m of them (column j is direction
    window.oldest_index + j). The classical unnormalized quantities are
    recovered through the *_unnormalized accessors: p_i_un = scales[i] *
    p_i, alpha_un = alpha / scales[j], beta_un(i, j) = beta(i, j) / scales[i].
    """

    def __init__(self, kind: str = "gcr", window: Optional[WindowPair] = None):
        self.kind = kind
        self.window = window
        self.R: List[np.ndarray] = []
        self.xs: List[np.ndarray] = []
        self.scales: List[float] = []
        self.alphas: List[float] = []
        self.betas: Dict[Tuple[int, int], float] = {}
        self.truncated = False
        self.converged = False

    @property
    def iterations(self) -> int:
        return len(self.R) - 1

    def resnorms(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(r)) for r in self.R])

    @property
    def complete_beta_table(self) -> bool:
        return self.kind == "gcr" and not self.truncated

    def R_matrix(self, k: Optional[int] = None) -> np.ndarray:
        cols = self.R if k is None else self.R[: k + 1]
        return np.stack(cols, axis=1)

    def P_matrix(self, k: Optional[int] = None) -> np.ndarray:
        return self.window.p_matrix()[:, : None if k is None else k + 1]

    def V_matrix(self, k: Optional[int] = None) -> np.ndarray:
        return self.window.v_matrix()[:, : None if k is None else k + 1]

    def _unnormalized(self, M: np.ndarray) -> np.ndarray:
        lo = self.window.oldest_index
        return M * np.array(self.scales[lo : lo + M.shape[1]])

    def P_unnormalized(self, k: Optional[int] = None) -> np.ndarray:
        return self._unnormalized(self.P_matrix(k))

    def AP_unnormalized(self, k: Optional[int] = None) -> np.ndarray:
        return self._unnormalized(self.V_matrix(k))

    def alpha_unnormalized(self, j: int) -> float:
        return self.alphas[j] / self.scales[j]

    def beta_unnormalized(self, i: int, j: int) -> float:
        return self.betas[(i, j)] / self.scales[i]

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        buf.write("iter,resnorm\n")
        for k, r in enumerate(self.R):
            buf.write(f"{k},{float(np.linalg.norm(r)):.16e}\n")
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def orthogonalize_pair(p, v, P, V, lo, hi):
    """Modified Gram-Schmidt of (p, v) against window columns lo..hi-1.

    P and V hold the window pairs as columns, oldest first. The same
    combination applied to v is applied to p so v = A p is preserved. Runs
    a second pass when the first leaves a relative projection above
    REORTH_REL. Returns (p, v, betas dict by column index).
    """
    betas = {}
    for i in range(lo, hi):
        b = float(v @ V[:, i])
        p = p - b * P[:, i]
        v = v - b * V[:, i]
        betas[i] = b
    nv = float(np.linalg.norm(v))
    if hi > lo and nv > 0.0:
        proj = np.array([float(v @ V[:, i]) for i in range(lo, hi)])
        if float(np.abs(proj).max()) > REORTH_REL * nv:
            for i in range(lo, hi):
                b = float(v @ V[:, i])
                p = p - b * P[:, i]
                v = v - b * V[:, i]
                betas[i] += b
    return p, v, betas


def add_direction(window: WindowPair, p, v):
    """The direction step of TGCR, nlTGCR and the Newton-Krylov inner solve.

    Orthogonalizes the raw pair (p, v = A p) against the window and pushes
    it divided by ||v|| unless v collapses (BREAKDOWN_TOL). Returns None on
    collapse, with the window unchanged; otherwise (||v||, the Gram-Schmidt
    coefficients keyed by window column).
    """
    p_norm = float(np.linalg.norm(p))
    P, V = window.p_matrix(), window.v_matrix()
    p, v, betas = orthogonalize_pair(p, v, P, V, 0, len(window))
    s = float(np.linalg.norm(v))
    if s <= BREAKDOWN_TOL * max(1.0, p_norm):
        return None
    window.push(p, v, scale=s)
    return s, betas


def _tgcr_engine(A: LinearOperator, b, x0, m: Optional[int], opts: LinearOptions, kind: str):
    b = check_finite(np.asarray(b, dtype=float), "b")
    x = check_finite(np.asarray(x0, dtype=float), "x0").copy()
    if b.shape[0] != A.dim or x.shape[0] != A.dim:
        raise ValueError("dimension mismatch between operator, b, and x0")
    # At most max_iters directions are built; gcr_solve explains the dim bound.
    window = WindowPair(min(m or A.dim, max(opts.max_iters, 1)))
    hist = KrylovHistory(kind=kind, window=window)
    # A @ 0 = 0 by linearity; skipping the apply also spares matrix-free
    # operators a probe along the zero vector.
    r = b.copy() if not np.any(x) else b - A.apply(x)
    hist.R.append(r.copy())
    hist.xs.append(x.copy())
    ref = float(np.linalg.norm(b))
    if ref == 0.0:
        ref = max(float(np.linalg.norm(r)), 1.0)

    def _converged(res):
        return float(np.linalg.norm(res)) <= opts.tol_rel * ref

    if _converged(r):
        hist.converged = True
        return x, hist

    def _new_direction(t: int):
        """Build direction t from the current residual; raises on breakdown."""
        first = window.oldest_index
        hist.truncated |= first > 0
        built = add_direction(window, r, A.apply(r))
        if built is None:
            raise BreakdownError(
                f"direction collapsed at step {t}",
                residual=r.copy(),
                resnorm=float(np.linalg.norm(r)),
                x=x.copy(),
                history=hist,
            )
        hist.scales.append(built[0])
        hist.betas.update({(first + i, t): val for i, val in built[1].items()})

    _new_direction(0)
    for j in range(opts.max_iters):
        p_j = window.p_matrix()[:, -1]
        v_j = window.v_matrix()[:, -1]
        alpha = float(r @ v_j)
        x = x + alpha * p_j
        r = r - alpha * v_j
        hist.alphas.append(alpha)
        hist.R.append(r.copy())
        hist.xs.append(x.copy())
        if _converged(r):
            hist.converged = True
            break
        if j + 1 >= opts.max_iters:
            break
        _new_direction(j + 1)
    return x, hist


def gcr_solve(A: LinearOperator, b, x0, opts: Optional[LinearOptions] = None):
    """Full GCR: minimizes ||b - A x|| over x0 + span of all directions.

    Returns (x, history) with the complete orthogonalization table so the
    upper-triangular and bidiagonal reconstructions can be formed. The
    window is allocated up front for min(max_iters, dim) directions: past
    dim orthonormal v columns a new v collapses to rounding noise, so a
    solve does not reach dim + 1 directions in practice; one that does
    evicts the oldest like TGCR with m = dim and is marked truncated.
    """
    return _tgcr_engine(A, b, x0, None, opts or LinearOptions(), kind="gcr")


def tgcr_solve(A: LinearOperator, b, x0, m: int, opts: Optional[LinearOptions] = None):
    """Truncated GCR: orthogonalizes only against the last m directions.

    The window is allocated up front for min(m, max_iters) directions.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _tgcr_engine(A, b, x0, m, opts or LinearOptions(), kind="tgcr")


def cr_solve(A: LinearOperator, b, x0, opts: Optional[LinearOptions] = None):
    """Classical conjugate residual recurrence for symmetric operators.

    Maintains p, Ap through the standard coupled recurrence with one
    operator application per iteration. Rejects operators not declared
    symmetric.
    """
    if not A.is_symmetric:
        raise ValueError("cr_solve requires an operator declared symmetric")
    opts = opts or LinearOptions()
    b = check_finite(np.asarray(b, dtype=float), "b")
    x = check_finite(np.asarray(x0, dtype=float), "x0").copy()
    hist = KrylovHistory(kind="cr")
    r = b - A.apply(x)
    hist.R.append(r.copy())
    hist.xs.append(x.copy())
    ref = float(np.linalg.norm(b))
    if ref == 0.0:
        ref = max(float(np.linalg.norm(r)), 1.0)
    if float(np.linalg.norm(r)) <= opts.tol_rel * ref:
        hist.converged = True
        return x, hist
    p = r.copy()
    Ar = A.apply(r)
    Ap = Ar.copy()
    rAr = float(r @ Ar)
    for j in range(opts.max_iters):
        denom = float(Ap @ Ap)
        if np.sqrt(denom) <= BREAKDOWN_TOL:
            raise BreakdownError(
                f"CR direction collapsed at step {j}",
                residual=r.copy(),
                resnorm=float(np.linalg.norm(r)),
            )
        alpha = rAr / denom
        x = x + alpha * p
        r = r - alpha * Ap
        hist.alphas.append(alpha)
        hist.R.append(r.copy())
        hist.xs.append(x.copy())
        if float(np.linalg.norm(r)) <= opts.tol_rel * ref:
            hist.converged = True
            break
        Ar = A.apply(r)
        rAr_new = float(r @ Ar)
        beta = rAr_new / rAr
        hist.betas[(j, j)] = beta
        p = r + beta * p
        Ap = Ar + beta * Ap
        rAr = rAr_new
    return x, hist
