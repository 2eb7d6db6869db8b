"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately implemented from scratch (dense algebra,
Arnoldi bases, finite differences, bisection, loops over atom pairs) so
it shares no code path with the solvers and kernels it checks. The
exception is the section on a linear solve's matrix identities, which
reads the solve's own history and window and replays its arithmetic.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np


def arnoldi_basis(Amat, r0, k):
    """Orthonormal basis of span{r0, A r0, ..., A^{k-1} r0} by MGS with
    one reorthogonalization pass."""
    q = r0 / np.linalg.norm(r0)
    cols = [q]
    for _ in range(k - 1):
        w = Amat @ cols[-1]
        for _pass in range(2):
            for qc in cols:
                w = w - (w @ qc) * qc
        nw = np.linalg.norm(w)
        if nw < 1e-13:
            break
        cols.append(w / nw)
    return np.stack(cols, axis=1)


def krylov_min_resnorm(Amat, b, x0, k):
    """Brute-force minimum of ||b - A x|| over x0 + the k-dim Krylov space."""
    r0 = b - Amat @ x0
    if k == 0:
        return float(np.linalg.norm(r0))
    Q = arnoldi_basis(Amat, r0, k)
    AQ = Amat @ Q
    c, *_ = np.linalg.lstsq(AQ, r0, rcond=None)
    return float(np.linalg.norm(r0 - AQ @ c))


def central_diff_gradient(func, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (func(x + e) - func(x - e)) / (2.0 * eps)
    return g


def bisect_scalar(func, lo, hi, tol=1e-14, max_iters=200):
    """Root of a scalar function by bisection; requires a sign change."""
    flo = func(lo)
    fhi = func(hi)
    assert flo * fhi < 0, "no sign change on the bracket"
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if abs(fm) == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class NewtonCrReference(NamedTuple):
    """Result of newton_cr_reference: the final iterate, the inner step count
    of each Newton step, and each inner solve's residual-norm history
    (entry 0 is ||f(x_k)||)."""

    x: np.ndarray
    inner_iters: List[int]
    inner_resnorms: List[List[float]]

    @property
    def total_iters(self) -> int:
        return sum(self.inner_iters)


def newton_cr_reference(eval_f, exact_jv, x0, tol_rel):
    """Newton's method whose systems are solved by window-1 conjugate residuals.

    Each system J(x_k) d = -f(x_k) is solved from d = 0 with exact J
    products, keeping one direction pair (p, v = J p) and orthogonalizing
    the next pair against it, until ||f(x_k) + J(x_k) d|| <= target. The
    target is tol_rel * ||f(x0)|| for every system, and the iteration stops
    once ||f(x_k)|| <= target. One J product is spent per inner step.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = eval_f(x)
    target = tol_rel * float(np.linalg.norm(fx))
    inner_iters, inner_resnorms = [], []
    for _ in range(50):
        if float(np.linalg.norm(fx)) <= target:
            return NewtonCrReference(x, inner_iters, inner_resnorms)
        d = np.zeros_like(x)
        r = -fx
        history = [float(np.linalg.norm(r))]
        p = v = None
        while history[-1] > target:
            assert len(history) <= 5000, "inner solve did not reach the target"
            p_new, v_new = r, exact_jv(x, r)
            if v is not None:
                beta = float(v_new @ v)
                p_new, v_new = p_new - beta * p, v_new - beta * v
            s = float(np.linalg.norm(v_new))
            assert s > 0.0, "inner direction collapsed"
            p, v = p_new / s, v_new / s
            alpha = float(r @ v)
            d = d + alpha * p
            r = r - alpha * v
            history.append(float(np.linalg.norm(r)))
        inner_iters.append(len(history) - 1)
        inner_resnorms.append(history)
        x = x + d
        fx = eval_f(x)
    raise AssertionError("Newton iteration did not reach the target")


def mgs_orthogonalize_pair(p, v, P, V, lo, hi, reorth_rel=1e-8):
    """Modified Gram-Schmidt of (p, v) against the columns lo..hi-1 of V,
    one column at a time, applying each coefficient to p against P as well.

    A second sweep runs when the first leaves a projection above
    reorth_rel * ||v||. Returns (p, v, coefficient array in column order,
    ||v||).
    """
    betas = np.zeros(hi - lo)
    for i in range(lo, hi):
        b = float(v @ V[:, i])
        p = p - b * P[:, i]
        v = v - b * V[:, i]
        betas[i - lo] = b
    nv = float(np.linalg.norm(v))
    if hi > lo and nv > 0.0:
        proj = np.array([float(v @ V[:, i]) for i in range(lo, hi)])
        if float(np.abs(proj).max()) > reorth_rel * nv:
            for i in range(lo, hi):
                b = float(v @ V[:, i])
                p = p - b * P[:, i]
                v = v - b * V[:, i]
                betas[i - lo] += b
            nv = float(np.linalg.norm(v))
    return p, v, betas, nv


def broyden1_update(J, dx, df):
    """Broyden's first (good) rank-one Jacobian update, enforcing J_new dx = df."""
    denom = float(dx @ dx)
    if denom == 0.0:
        raise ValueError("zero step in Jacobian update")
    return J + np.outer(df - J @ dx, dx) / denom


def linearity_defect(op, n_probes=5, seed=0):
    """Max violation of A(ax + by) = a Ax + b Ay on random probes of an
    operator with `dim` and `apply`, relative to max(1, ||A(ax + by)||)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = max(1.0, float(np.linalg.norm(lhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return worst


def frobenius_gap(window, seed=0, n_samples=10):
    """Smallest ||G'||_F - ||G||_F over perturbations G' = G + Z (I - V V^T).

    G = P V^T, from the window's p_matrix() and v_matrix(), is the
    minimum-Frobenius-norm matrix satisfying G V = P, so the gap should never
    be meaningfully negative. Forms dense n x n matrices.
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


# ---------------------------------------------------------------------------
# The matrix identities of a linear solve (GCR and TGCR), from its history.
# A history keeps scalars only; the residuals are replayed from the window's
# v rows and the iterates rerun, both to the bit. The solvers store p_i and
# A p_i divided by scales[i]; only these checks undo that. They form dense
# matrices and are meant for operators with n <= 200.
# ---------------------------------------------------------------------------


def _dense(A):
    if A.mat is not None:
        return A.mat
    eye = np.eye(A.dim)
    return np.stack([A.apply(eye[:, i]) for i in range(A.dim)], axis=1)


def full_window(hist):
    """The window of a history that kept every direction it built: its
    column j is direction j, and it has one column per scale."""
    if hist.window is None:
        raise ValueError("this history keeps no direction window")
    if hist.truncated:
        raise ValueError("the reconstructions need a full (untruncated) history")
    return hist.window


def replay_residuals(hist, A, b, x0):
    """The residuals r_0 .. r_k of a GCR or TGCR solve of A x = b from x0,
    from its history and full window. r_0 is formed as the solve forms it
    (b itself when x0 = 0, else b - A x0) and r_{t+1} = r_t - alpha_t v_t
    as its loop does, so every r_t is the bytes the solve measured."""
    V = full_window(hist).v_matrix().T
    b = np.asarray(b, dtype=float)
    r = b.copy() if not np.any(x0) else b - A.apply(np.asarray(x0, dtype=float))
    R = [r]
    for alpha, v in zip(hist.alphas, V):
        r = r - alpha * v
        R.append(r)
    return R


def rerun_iterates(solve, x0, k):
    """The iterates x_0 .. x_k of a linear solve: x0, then for each j the
    x that solve(j) returns, solve(j) being the same solve with
    max_iters = j. A solve cut at step j returns the iterate it would have
    carried on from, so x_j is its own, to the bit."""
    return [np.array(x0, dtype=float)] + [solve(j)[0] for j in range(1, k + 1)]


def build_B_matrix(hist):
    """Unit-diagonal upper triangular B with R_k = P_k B (unnormalized P).

    Requires the complete orthogonalization table, so truncated histories
    are rejected.
    """
    full_window(hist)
    scales = np.array(hist.scales)
    B = np.eye(len(scales))
    for t, b in enumerate(hist.betas):
        B[:t, t] = b / scales[:t]
    return B


def build_H_matrix(hist):
    """Lower bidiagonal (k+2) x (k+1) H with A P_k = R_{k+1} H (unnormalized).

    Column j holds 1/alpha_j on the diagonal and -1/alpha_j below it.
    """
    full_window(hist)
    k = len(hist.alphas) - 1
    H = np.zeros((k + 2, k + 1))
    for j in range(k + 1):
        a = hist.alphas[j] / hist.scales[j]
        if a == 0.0:
            raise ValueError(f"alpha_{j} is zero; H is undefined")
        H[j, j] = 1.0 / a
        H[j + 1, j] = -1.0 / a
    return H


def reconstruction_defects(hist, A, b, x0):
    """Max-norm errors of the two matrix reconstructions R=PB and AP=RH of
    a solve of A x = b from x0."""
    B = build_B_matrix(hist)
    H = build_H_matrix(hist)
    window = full_window(hist)
    k = len(hist.scales) - 1
    # R_{k+1}: a solve that stopped after step k has r_{k+1} too.
    R = np.stack(replay_residuals(hist, A, b, x0)[: k + 2], axis=1)
    scales = np.array(hist.scales)
    err_b = float(np.abs(R[:, : k + 1] - (window.p_matrix() * scales) @ B).max())
    err_h = float(np.abs(window.v_matrix() * scales - R @ H).max())
    return err_b, err_h


@dataclass(frozen=True)
class SemiConjugacyReport:
    lower_violation: float
    offdiag_violation: Optional[float] = None


def check_semiconjugacy(hist, A, b, x0):
    """Largest strictly-lower entry of R^T A R; off-diagonal too if symmetric.

    Full GCR residuals make R^T A R upper triangular, and diagonal when A
    is symmetric.
    """
    R = np.stack(replay_residuals(hist, A, b, x0), axis=1)
    AR = np.stack([A.apply(R[:, i]) for i in range(R.shape[1])], axis=1)
    M = R.T @ AR
    lower = float(np.abs(np.tril(M, k=-1)).max()) if M.shape[0] > 1 else 0.0
    off = None
    if A.is_symmetric:
        off = float(np.abs(M - np.diag(np.diag(M))).max()) if M.shape[0] > 1 else 0.0
    return SemiConjugacyReport(lower_violation=lower, offdiag_violation=off)


@dataclass(frozen=True)
class InducedInverseReport:
    """Deviations of the approximate inverse B_k = P_k V_k^T from its
    projector identities."""

    ab_equals_projector: float
    inverts_on_span_v: float
    projector_symmetry: float
    left_inverse_on_span_p: float
    idempotent_ba: float
    oblique_orthogonality: float

    def max_deviation(self) -> float:
        return max(
            self.ab_equals_projector,
            self.inverts_on_span_v,
            self.projector_symmetry,
            self.left_inverse_on_span_p,
            self.idempotent_ba,
            self.oblique_orthogonality,
        )


def induced_inverse_checks(hist, A, k=None, n_probes=5, seed=0):
    """Check the projector identities induced by B_k = P_k V_k^T.

    Uses the normalized direction columns (V has orthonormal columns) and a
    dense direct solve as the inversion oracle. Assumes the history came
    from a solve started at x0 = 0.
    """
    window = full_window(hist)
    if k is None:
        k = len(hist.scales) - 1
    P = window.p_matrix()[:, : k + 1]
    V = window.v_matrix()[:, : k + 1]
    Ad = _dense(A)
    n = Ad.shape[0]
    Bk = P @ V.T
    pi = V @ V.T
    rng = np.random.default_rng(seed)

    dev_ab = float(np.abs(Ad @ Bk - pi).max())
    dev_sym = float(np.abs(pi - pi.T).max())

    dev_inv = 0.0
    dev_left = 0.0
    dev_oblique = 0.0
    BA = Bk @ Ad
    dev_idem = float(np.abs(BA @ BA - BA).max())
    for _ in range(n_probes):
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        piz = pi @ z
        w = np.linalg.solve(Ad, piz)
        dev_inv = max(dev_inv, float(np.abs(Bk @ piz - w).max()))
        y = rng.standard_normal(k + 1)
        xp = P @ y
        scale = max(1.0, float(np.abs(xp).max()))
        dev_left = max(dev_left, float(np.abs(BA @ xp - xp).max()) / scale)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        w2 = Ad @ (u - BA @ u)
        dev_oblique = max(dev_oblique, float(np.abs(V.T @ w2).max()))
    return InducedInverseReport(
        ab_equals_projector=dev_ab,
        inverts_on_span_v=dev_inv,
        projector_symmetry=dev_sym,
        left_inverse_on_span_p=dev_left,
        idempotent_ba=dev_idem,
        oblique_orthogonality=dev_oblique,
    )


def bratu_residual_2d(u, lam, h):
    """Bratu residual on the (n, n) grid with the 2-D shifted-slice stencil,
    the additions in the order -4 u, up, down, left, right."""
    out = -4.0 * u
    out[1:, :] += u[:-1, :]
    out[:-1, :] += u[1:, :]
    out[:, 1:] += u[:, :-1]
    out[:, :-1] += u[:, 1:]
    out /= h * h
    out += lam * np.exp(u)
    return out


def bratu_jv_2d(u, p, lam, h):
    """J(u) p of bratu_residual_2d, the same stencil applied to p."""
    out = -4.0 * p
    out[1:, :] += p[:-1, :]
    out[:-1, :] += p[1:, :]
    out[:, 1:] += p[:, :-1]
    out[:, :-1] += p[:, 1:]
    out /= h * h
    out += lam * np.exp(u) * p
    return out


def _pair_diff(pos, i, j):
    """pos[i] - pos[j] as three floats, and its squared length."""
    d = [float(pos[i][k]) - float(pos[j][k]) for k in range(3)]
    return d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2]


def lj_energy_pairs(pos):
    """Lennard-Jones energy sum_{i<j} 4 (r^-12 - r^-6) by a double loop over
    the pairs i < j of the (n, 3) positions."""
    energy = 0.0
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            inv6 = 1.0 / _pair_diff(pos, i, j)[1] ** 3
            energy += 4.0 * (inv6 * inv6 - inv6)
    return energy


def lj_gradient_pairs(pos):
    """dE/dpos of lj_energy_pairs, pair by pair: the pair's force along
    pos[i] - pos[j] is added to atom i and subtracted from atom j."""
    grad = np.zeros((len(pos), 3))
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            d, r2 = _pair_diff(pos, i, j)
            inv2 = 1.0 / r2
            inv6 = inv2 * inv2 * inv2
            coef = (24.0 * inv6 - 48.0 * inv6 * inv6) * inv2
            for k in range(3):
                grad[i, k] += coef * d[k]
                grad[j, k] -= coef * d[k]
    return grad


def min_pair_distance_pairs(pos):
    """Smallest |pos[i] - pos[j]| over the pairs i < j, by a double loop."""
    n = len(pos)
    return math.sqrt(min(_pair_diff(pos, i, j)[1] for i in range(n) for j in range(i + 1, n)))


def pair_r2_outer(pos):
    """|pos[i] - pos[j]|^2 from three per-axis np.subtract.outer planes,
    squared and summed in axis order, with +inf on the diagonal."""
    r2 = np.subtract.outer(pos[:, 0], pos[:, 0])
    r2 *= r2
    plane = np.empty_like(r2)
    for k in (1, 2):
        np.subtract.outer(pos[:, k], pos[:, k], out=plane)
        plane *= plane
        r2 += plane
    np.fill_diagonal(r2, np.inf)
    return r2
