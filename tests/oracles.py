"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately implemented from scratch (dense algebra,
Arnoldi bases, finite differences, bisection, loops over atom pairs) so
it shares no code path with the solvers and kernels it checks.
"""

import math
from typing import List, NamedTuple

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
