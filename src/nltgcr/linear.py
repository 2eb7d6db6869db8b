"""Residual-minimizing linear solvers: full GCR, truncated GCR, and CR.

The truncated and full solvers share one direction step, add_direction,
with the nonlinear solver and Anderson acceleration: classical Gram-Schmidt
against a WindowPair whose stored A p_i rows it keeps orthonormal, the one
precondition of every Gram-Schmidt here. A first pass that kept ||v'|| >=
skip_eta(k, n) ||v|| cannot have left a projection above REORTH_REL on such
rows, so the step makes three passes over the window (project, subtract,
update p); below skip_eta it takes a second pass without testing for one.
The classical conjugate residual recurrence is implemented separately so
the two can cross-check each other on symmetric operators.

A workspace solve that cannot evict keeps residuals instead of
directions (tgcr_solve): A R_k = A P_k B^(k) gives R_k = P_k B^(k), so
x_k = x_0 + R_k (B^(k))^{-1} alpha is formed once, at exit, and its
direction step skips the p update, two passes in all (the residual basis
of Walker & Zhou, "A simpler GMRES", NLAA 1, 1994; its stability:
Jiranek, Rozloznik & Gutknecht, SIMAX 30, 2008). It does not store the
residuals either: r_{t+1} = r_t - alpha_t v_t gives each one back from
r_0 and the v rows, replayed with the loop's own floats, so the window
holds one row per direction, as GMRES does. At exit the replay writes each
r_{t+1} over the float64 v_t it was the last to read, so the workspace's
v rows hold residuals after the solve. Near stagnation successive
residuals are almost parallel and B^(k) ill-conditioned, so a step that
keeps more than STALL_RATIO of ||r|| rebuilds the directions the direction
basis would hold, to the bit, and the rest of the solve updates p and x at
every step.

A solve in a caller's workspace (tgcr_solve) stores its v rows in float32
exactly when its tol_rel is at least TOL_FLOOR_F32, and in float64 below
it, setting the precision as it clears the workspace; every other window
is float64. Float32 rows are orthonormal to float32 precision, and their
collapse and second-pass rules use constants derived for them
(BREAKDOWN_TOL_F32, REORTH_REL_F32). Only the two window products of a
Gram-Schmidt pass run in float32: v is cast down for them, the window
never up. Every n-vector outside the window stays float64, and so do the
residual update r - alpha_t v_t (a step casts its new row up once, for
alpha_t and the update), its replay and the exit sum, which forms each
residual in turn, in one buffer, because float32 rows cannot hold them.
Float64 windows run the same floating-point operations as before float32
rows existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .core import WindowPair, check_finite


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
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be a square matrix, got shape {A.shape}")
        if is_symmetric is None:
            atol = 1e-13 * np.abs(A).max()
            is_symmetric = bool(np.allclose(A, A.T, rtol=0.0, atol=atol))
        return cls(dim=A.shape[0], apply=lambda v: A @ v, is_symmetric=is_symmetric, mat=A)


@dataclass(frozen=True)
class LinearOptions:
    tol_rel: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if self.tol_rel <= 0.0:
            raise ValueError("tol_rel must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


# A new direction collapses when its orthogonalized ||v'|| is at most
# BREAKDOWN_TOL * g ||p||, g the largest raw ||v|| / ||p|| the window has
# seen since its last clear (v fell into the window's span, or A p is
# itself rounding noise against the operator's scale), or the raw ||p|| at
# most BREAKDOWN_TOL * ||r_0|| (the residual reached rounding level). Both
# are relative, so whether a direction collapses does not depend on the
# scale of f. A Gram-Schmidt pass that kept skip_eta of ||v|| leaves no
# projection above REORTH_REL * ||v'||.
BREAKDOWN_TOL = 1e-14
REORTH_REL = 1e-8
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Float32 v rows get the same two rules at their own unit roundoff
# u32 = 2^-24. The subtraction b V of a pass rounds each entry of v' by
# about sqrt(k) u ||v|| (the probabilistic bound of Higham & Mary, SISC 41,
# 2019); BREAKDOWN_TOL is 90 u, above that up to k = 8100, and
# BREAKDOWN_TOL_F32 is 90 u32, 5.4e-6. REORTH_REL is about sqrt(u) (1e-8
# against 1.05e-8), half the working digits; REORTH_REL_F32 is sqrt(u32),
# 2.4e-4.
UNIT_ROUNDOFF_F32 = float(np.finfo(np.float32).eps) / 2
BREAKDOWN_TOL_F32 = BREAKDOWN_TOL / UNIT_ROUNDOFF * UNIT_ROUNDOFF_F32
REORTH_REL_F32 = math.sqrt(UNIT_ROUNDOFF_F32)
# A first pass that keeps less than this share of ||v|| is always followed
# by a second one (skip_eta).
KEPT_FLOOR = 0.2
# A residual-basis solve (tgcr_solve) goes back to directions once a step
# leaves ||r_{t+1}|| above this share of ||r_t||. The Newton-Krylov inner
# solves on scaled Bratu keep at most 0.994 of ||r|| per step, so they stay
# in the residual basis.
STALL_RATIO = 0.999
# The least tol_rel for which a workspace solve stores float32 v rows. Its
# recorded residual r_0 - sum_t alpha_t v_t is formed in float64, but each
# stored v_t meets A p_t only to e_t ~ (sqrt(k) G + 1) u32, the rounding of
# b V and of the row itself, G = max ||b_t|| / s_t. The e_t are independent
# roundings and sum alpha_t^2 <= ||r_0||^2, so the true residual is within
# about ||r_0|| max e_t of the recorded one: 6e-5 ||r_0|| at k = 10^4 and
# G = 10 (steps keeping a tenth of ||A r_t||; the newton-krylov inner
# solves keep more than half). 1e-3 keeps that below a tenth of tol_rel.
TOL_FLOOR_F32 = 1e-3


def skip_eta(k: int, n: int, dtype=np.float64) -> float:
    """The ||v'|| / ||v|| below which Gram-Schmidt takes a second pass
    against k rows of n entries in `dtype`.

    After one classical Gram-Schmidt pass v' = v - V^T (V v) against k rows
    V, in floating point with unit roundoff u,
        |V v'| <= |(I - V V^T) V v| + c(k, n) u ||v||.
    The second term is the rounding of the pass (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005); with c = k n it stays below
    REORTH_REL ||v'|| once ||v'|| >= k n u / REORTH_REL ||v||, 5.5e-3 at
    k = 50, n = 10^4. For float32 rows that worst case says nothing (k n
    u32 / REORTH_REL_F32 is 122 there), so it takes the probabilistic
    c = sqrt(k n) of Higham & Mary (SISC 41, 2019): sqrt(k n u32), 0.17 at
    k = 50, n = 10^4 and 0.69 at n = 1.6e5. The first term is the window's
    own loss of orthonormality, multiplied by up to ||V v|| / ||v'||. So the
    rule assumes rows orthonormal to the window's precision, and keeps them
    so: below eta the second pass runs without a test (a test would let
    rows in with projections up to REORTH_REL, which later single passes
    multiply), and eta >= KEPT_FLOOR caps that factor at about 5. On
    windows add_direction built from random nonsymmetric and near-singular
    operators (k <= 50), a floor of 0.1 (Rutishauser's factor 10) let a few
    runs end with projections up to 3e-7; 0.2 kept all of them below 1e-11.
    In the float32 inner windows of the newton-krylov benchmark workload
    (seed 0) every first pass kept 0.54 to 0.79 of ||v||, so none took a
    second, and no new row had a projection above 3.1e-6 on an older one.
    """
    if dtype == np.float32:
        return max(math.sqrt(k * n) * UNIT_ROUNDOFF_F32 / REORTH_REL_F32, KEPT_FLOOR)
    return max(k * n * UNIT_ROUNDOFF / REORTH_REL, KEPT_FLOOR)


class KrylovHistory:
    """The record of a linear solve, in scalars.

    `norms` holds the residual norm of each iterate (the values the
    convergence test computed); then the step lengths, the scales, the
    orthogonalization coefficients and the flags: `converged` (norms[-1]
    <= tol_rel ||b||, or tol_rel ||r_0|| when b = 0), `breakdown` (the
    next direction collapsed; the solve stopped and returned its iterate)
    and `truncated` (the window has evicted a direction of this solve).
    A solve that sets neither of the first two ran max_iters steps.
    `betas[t]` holds direction t's Gram-Schmidt coefficients against
    directions t - len(betas[t]) .. t - 1 (CR: the recurrence's scalar
    that built direction t + 1).
    GCR and TGCR also hand back the solve's window, except tgcr_solve in a
    caller's workspace. The algorithms store p_i and v_i = A p_i divided by
    `scales[i]`, so that the v rows are unit vectors.
    """

    def __init__(self, window: Optional[WindowPair] = None):
        self.window = window
        self.norms: List[float] = []
        self.scales: List[float] = []
        self.alphas: List[float] = []
        self.betas: List[np.ndarray] = []
        self.truncated = False
        self.converged = False
        self.breakdown = False

    @property
    def iterations(self) -> int:
        return len(self.norms) - 1

    def resnorms(self) -> np.ndarray:
        return np.array(self.norms)


def orthogonalize_pair(p, v, P, V, lo, hi):
    """Classical Gram-Schmidt of (p, v) against window columns lo..hi-1.

    P and V hold the window pairs as columns, in any order; the V columns
    must be orthonormal to the window's precision, as in every window
    add_direction builds. As transposed WindowPair row blocks, V[:, lo:hi].T
    is contiguous, so each pass is two BLAS-2 products, in V's precision:
    v is cast down to it for them, and the window never up. v', b and ||v||
    are float64 whatever V holds. The same
    combination applied to v is applied to p so v = A p is preserved; with
    P None, p is handed back as given and no pass over P runs. A second
    pass runs exactly when the first kept less than skip_eta(k, n, V.dtype) of
    ||v||. Never writes to p or v. Returns (p, v, b, ||v||): b holds the
    coefficients in column order, and ||v|| is measured once more only
    after a second pass.
    """
    # math.sqrt(v @ v) is np.linalg.norm(v) to the bit, without its overhead.
    if hi == lo:
        return p, v, np.empty(0), math.sqrt(v @ v)
    Vr = V[:, lo:hi].T
    # Float32 rows: the passes run on a copy of v scaled by a power of two
    # to about unit norm, so that its float32 casts neither over- nor
    # underflow and every result scales with v exactly. numpy would cast all
    # of V up in a product with a float64 v.
    low = Vr.dtype != v.dtype
    if low:
        # Undone by multiplying by 2^e: the same floats as dividing by
        # unit = 2^-e, at less than half the cost of a division pass.
        e = math.frexp(math.sqrt(v @ v))[1]
        v = v * math.ldexp(1.0, -e)
        b = Vr @ v.astype(Vr.dtype)
    else:
        b = Vr @ v
    # Each subtraction overwrites the product it subtracts (or the scaled
    # copy): one temporary.
    t = np.dot(b, Vr)
    v = np.subtract(v, t, out=v if low else t)
    if low:
        b = b.astype(np.float64)
    nv = math.sqrt(v @ v)
    # On orthonormal rows ||v||^2 = ||v'||^2 + ||b||^2 to rounding, so the
    # ratio costs O(k) instead of a pass over the window.
    if nv * nv < skip_eta(hi - lo, v.shape[0], Vr.dtype) ** 2 * (nv * nv + float(b @ b)):
        proj = Vr @ (v.astype(Vr.dtype) if low else v)
        v -= np.dot(proj, Vr)
        b += proj
        nv = math.sqrt(v @ v)
    if low:
        undo = math.ldexp(1.0, e)
        v *= undo
        b *= undo
        nv *= undo
    if P is not None:
        t = np.dot(b, P[:, lo:hi].T)
        p = np.subtract(p, t, out=t)
    return p, v, b, nv


def add_direction(window: WindowPair, p, v, *, r0_norm: float, p_norm: Optional[float] = None,
                  residual_basis: bool = False):
    """The direction step of TGCR, nlTGCR, the Newton-Krylov inner solve and AA.

    Orthogonalizes the raw pair (p, v = A p) against the window and pushes
    it divided by ||v'|| unless it collapses (BREAKDOWN_TOL); `r0_norm` is
    the norm of the solve's first residual, against which p is at rounding
    level (with 0, only a zero p collapses by that test). The window's v
    rows must be orthonormal, as they are when every pair since its last
    clear came through this step; the norm-drop rule of skip_eta decides
    the second Gram-Schmidt pass. `p_norm` is ||p|| when the caller has
    measured it already. With `residual_basis`, only the v row is pushed
    and Gram-Schmidt skips the p update; the caller forms its iterate from
    its residuals and the coefficients (tgcr_solve).
    Returns None on collapse, with the window unchanged; otherwise (||v||,
    the array of Gram-Schmidt coefficients in window order, oldest first).
    """
    if p_norm is None:
        p_norm = float(np.linalg.norm(p))
    P, V = window.rows()
    tol = BREAKDOWN_TOL_F32 if V.dtype == np.float32 else BREAKDOWN_TOL
    if p_norm <= tol * r0_norm:
        return None
    p, v, b, s = orthogonalize_pair(p, v, None if residual_basis else P.T, V.T, 0, len(window))
    # On orthonormal rows the raw ||v||^2 is ||v'||^2 + b . b.
    gain = window.gain = max(window.gain, math.sqrt(s * s + float(b @ b)) / p_norm)
    if s <= tol * gain * p_norm:
        return None
    # Gram-Schmidt ran on the rows in storage order; the push moves the head.
    b = window.logical(b)
    window.push(None if residual_basis else p, v, scale=s, v_norm=s)
    return s, b


def _start(A: LinearOperator, b, x0, hist: KrylovHistory, tol_rel: float):
    """The start of a linear solve: checks b and x0, forms r_0 = b - A x0,
    records its norm in hist and whether that is converged already. Returns
    (x0, r_0, the convergence target): tol_rel ||b||, or tol_rel ||r_0||
    when b = 0. x0 is read, never copied or written (no solver updates its
    iterate in place); a solve that takes no step returns it as given."""
    b = check_finite(np.asarray(b, dtype=float), "b")
    x = check_finite(np.asarray(x0, dtype=float), "x0")
    if b.shape != (A.dim,) or x.shape != (A.dim,):
        raise ValueError("dimension mismatch between operator, b, and x0")
    # A @ 0 = 0 by linearity; skipping the apply also spares matrix-free
    # operators a probe along the zero vector.
    r = b if not np.any(x) else b - A.apply(x)
    rnorm = float(np.linalg.norm(r))
    hist.norms.append(rnorm)
    target = tol_rel * (float(np.linalg.norm(b)) or rnorm)
    hist.converged = rnorm <= target
    return x, r, target


def _tgcr_engine(A: LinearOperator, b, x0, m: Optional[int], opts: LinearOptions,
                 workspace: Optional[WindowPair] = None):
    # At most max_iters directions are built; gcr_solve explains the dim bound.
    capacity = min(m or A.dim, opts.max_iters)
    if workspace is None:
        window = WindowPair(capacity)
        hist = KrylovHistory(window=window)
    else:
        if workspace.capacity != capacity:
            raise ValueError(
                f"workspace capacity {workspace.capacity} != min(m, max_iters) = {capacity}"
            )
        window = workspace
        window.clear(np.float32 if opts.tol_rel >= TOL_FLOOR_F32 else np.float64)
        hist = KrylovHistory()
    # A workspace that cannot evict keeps the residual basis: pair t holds
    # only its v row, and r_t / s_t = P_t + sum_i U[i, t] P_i with
    # U[i, t] = b_it / s_t, so x0 + alpha @ P = x0 + sum_t (z_t / s_t) r_t
    # with U z = alpha. U is formed at exit, from the betas and scales.
    residual = workspace is not None and capacity == opts.max_iters
    x, r, target = _start(A, b, x0, hist, opts.tol_rel)
    # r_0 and the v rows give back every residual of a residual-basis solve.
    r0 = r
    rnorm = hist.norms[0]

    if hist.converged:
        return x, hist

    def _replay(dest):
        """Write r_{t+1} = r_t - alpha_t v_t into dest[t] for every step but
        the last, with the loop's own operations and floats, so that each
        row is the bytes the loop held. In the residual basis the window
        holds one v row per alpha, in window order (nothing was evicted);
        dest may be those rows, each r_{t+1} overwriting the v_t it was the
        last to read."""
        V = window.rows()[1]
        prev = r0
        for t, alpha in enumerate(hist.alphas[:-1]):
            np.subtract(prev, np.multiply(V[t], alpha, out=dest[t], dtype=float), out=dest[t])
            prev = dest[t]

    def _iterate():
        """x0 plus the steps taken so far. On a triangular U, LU with
        partial pivoting never swaps a row, so the solve is a back
        substitution. The residual basis forms r_1 .. r_{k-1} in its own
        v rows, which leaves the workspace holding them; float32 rows cannot
        hold them, so there each is formed and added in turn."""
        k = len(hist.alphas)
        if not residual or not k:
            return x
        U = np.eye(k)
        for t in range(1, k):
            U[:t, t] = hist.betas[t] / hist.scales[t]
        w = np.linalg.solve(U, hist.alphas) / hist.scales
        V = window.rows()[1]
        out = x + w[0] * r0
        if V.dtype == np.float64:
            _replay(V)
            out += w[1:] @ V[: k - 1]
            return out
        # Float32 rows cannot hold the residuals: each r_t is replayed into
        # one buffer and added as soon as it is formed, through one scratch
        # vector. The row is cast up before it is scaled: the loop's floats,
        # without np.multiply's cast buffer.
        r_t, scratch = np.empty_like(out), np.empty_like(out)
        prev = r0
        for t in range(1, k):
            np.copyto(scratch, V[t - 1])
            scratch *= hist.alphas[t - 1]
            prev = np.subtract(prev, scratch, out=r_t)
            out += np.multiply(r_t, w[t], out=scratch)
        return out

    def _leave_residual_basis():
        """Give the pairs the directions the direction basis builds,
        P_t = (r_t - sum_i b_it P_i) / s_t, and return x0 plus the steps
        taken so far, summed as it sums them. Each P row first holds r_t,
        then its direction; every operand is the same float, so the rest of
        the solve is the direction basis's to the bit."""
        P = window.add_p_rows()
        P[0] = r0
        _replay(P[1:])
        for t, row in enumerate(P):
            np.divide(row - np.dot(hist.betas[t], P[:t]), hist.scales[t], out=row)
        x_k = x
        for alpha, p in zip(hist.alphas, P):
            x_k = x_k + alpha * p
        return x_k

    def _new_direction() -> bool:
        """Build the next direction from the current residual; False on breakdown."""
        built = add_direction(window, r, A.apply(r), r0_norm=hist.norms[0], p_norm=rnorm,
                              residual_basis=residual)
        if built is None:
            hist.breakdown = True
            return False
        s, coeffs = built
        hist.scales.append(s)
        hist.betas.append(coeffs)
        hist.truncated = len(window) < len(hist.scales)
        return True

    for j in range(opts.max_iters):
        if not _new_direction():
            break
        P, V = window.rows()
        slot = window.newest_slot
        # The update runs in float64 whatever the rows hold (alpha * v_j
        # would round to them), so a float32 row is cast up once, for alpha
        # and for the update, and scaled in place.
        cast = V.dtype != np.float64
        v_j = V[slot].astype(np.float64) if cast else V[slot]
        alpha = float(r @ v_j)
        if not residual:
            x = x + alpha * P[slot]
        step = np.multiply(v_j, alpha, out=v_j if cast else None)
        r = np.subtract(r, step, out=step)
        rnorm = math.sqrt(r @ r)
        hist.alphas.append(alpha)
        hist.norms.append(rnorm)
        if rnorm <= target:
            hist.converged = True
            break
        if residual and j + 1 < opts.max_iters and rnorm > STALL_RATIO * hist.norms[-2]:
            # Near stagnation r_{t+1} and r_t are almost parallel and U
            # ill-conditioned, so back substitution would lose the accuracy
            # the direction basis keeps: the rest of the solve builds
            # directions (the adaptive rule of Jiranek & Rozloznik, Numer.
            # Algorithms 53, 2010).
            x = _leave_residual_basis()
            residual = False
    return _iterate(), hist


def gcr_solve(A: LinearOperator, b, x0, opts: Optional[LinearOptions] = None):
    """Full GCR: minimizes ||b - A x|| over x0 + span of all directions.

    Returns (x, history); the history's window holds every direction and
    its betas the complete orthogonalization table. A collapsed direction
    stops the solve at the iterate reached, with history.breakdown set. The
    window is allocated up front for min(max_iters, dim) directions: past
    dim orthonormal v columns a new v collapses to rounding noise, so a
    solve does not reach dim + 1 directions in practice; one that does
    evicts the oldest like TGCR with m = dim and is marked truncated.
    """
    return _tgcr_engine(A, b, x0, None, opts or LinearOptions())


def tgcr_solve(A: LinearOperator, b, x0, m: int, opts: Optional[LinearOptions] = None,
               workspace: Optional[WindowPair] = None):
    """Truncated GCR: orthogonalizes only against the last m directions.

    The window is allocated up front for min(m, max_iters) directions and
    handed back in the history. A caller that solves many systems of one
    size can pass a WindowPair of exactly that capacity as `workspace` (any
    other capacity raises ValueError): the solve clears it and runs in it,
    numbering its directions from 0, and its history holds no reference to
    the workspace. The scalars are the same floats either way, and so is
    the iterate when the workspace can evict (m < max_iters). When it
    cannot, it keeps the residual basis, one v row per direction, until a
    step stalls (module docstring); the iterate equals the one without a
    workspace up to rounding, and to the bit once a step has stalled. The
    workspace's rows are scratch after the solve: a residual-basis exit
    overwrites its float64 v rows with the residuals the iterate is summed
    from. A workspace solve stores float32 v rows (module docstring) when
    tol_rel >= TOL_FLOOR_F32 and float64 rows below it, where float32 rows
    would leave the true residual unbounded: on the scaled-Bratu Jacobian
    at 60 x 60, m = max_iters = 200 and tol_rel 1e-5, they recorded 2.6e-5
    ||b|| and left a true residual of 1.07 ||b|| (8.04 on one BLAS thread).
    A breakdown stops the solve as in gcr_solve. x0 is read, never written.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _tgcr_engine(A, b, x0, m, opts or LinearOptions(), workspace=workspace)


def cr_solve(A: LinearOperator, b, x0, opts: Optional[LinearOptions] = None):
    """Classical conjugate residual recurrence for symmetric operators.

    Maintains p, Ap through the standard coupled recurrence with one
    operator application per iteration. Rejects operators not declared
    symmetric. A collapse (the loop's three-way test) stops it as in gcr_solve.
    """
    if not A.is_symmetric:
        raise ValueError("cr_solve requires an operator declared symmetric")
    opts = opts or LinearOptions()
    hist = KrylovHistory()
    x, r, target = _start(A, b, x0, hist, opts.tol_rel)
    rnorm = hist.norms[0]
    if hist.converged:
        return x, hist
    # Step j builds its direction at the top, as in _tgcr_engine, so a solve
    # that runs out of max_iters forms no A r it will not use.
    for j in range(opts.max_iters):
        Ar = A.apply(r)
        rAr_new = float(r @ Ar)
        if j:
            beta = rAr_new / rAr
            hist.betas.append(beta)
            p = r + beta * p
            Ap = Ar + beta * Ap
        else:
            p, Ap = r, Ar
        rAr = rAr_new
        denom = float(Ap @ Ap)
        # add_direction's two relative rules: A p against the A r it was
        # built from, and r against the first residual. On an indefinite A,
        # r . A r = 0 makes the step zero and the next beta 0 / 0.
        if (math.sqrt(denom) <= BREAKDOWN_TOL * math.sqrt(float(Ar @ Ar))
                or rnorm <= BREAKDOWN_TOL * hist.norms[0] or rAr == 0.0):
            hist.breakdown = True
            break
        alpha = rAr / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rnorm = float(np.linalg.norm(r))
        hist.alphas.append(alpha)
        hist.norms.append(rnorm)
        if rnorm <= target:
            hist.converged = True
            break
    return x, hist
