"""Hot numeric kernels, vectorized with numpy: one function per quantity."""

from __future__ import annotations

import numpy as np

# Smallest Lennard-Jones pair distance the energy and gradient accept.
MIN_PAIR_DISTANCE = 1e-8


# ---------------------------------------------------------------------------
# Bratu: 5-point Laplacian plus exponential source on the unit square,
# zero Dirichlet boundary. u is the (n, n) interior grid, spacing h.
# ---------------------------------------------------------------------------

def _stencil(v: np.ndarray, h: float) -> np.ndarray:
    """The 5-point Laplacian of the (n, n) grid v, flat. At h = 1 it is
    the stencil sum itself: dividing by 1 is exact, so that pass is skipped.

    All four shifts run on the flat contiguous arrays, in the order -4 v,
    up, down, left, right. The flat left and right shifts also carry a value
    across each row end; those edge cells are saved before the add and put
    back after it, so every cell gets exactly the 2-D stencil's sums.
    """
    n = v.shape[0]
    flat = v.reshape(-1)
    out = -4.0 * flat
    out[n:] += flat[:-n]
    out[:-n] += flat[n:]
    grid = out.reshape(n, n)
    edge = grid[1:, 0].copy()
    out[1:] += flat[:-1]
    grid[1:, 0] = edge
    edge = grid[:-1, -1].copy()
    out[:-1] += flat[1:]
    grid[:-1, -1] = edge
    if h != 1.0:
        out /= h * h
    return out


def bratu_residual(u: np.ndarray, lam: float, h: float) -> np.ndarray:
    out = _stencil(u, h)
    e = np.exp(u.reshape(-1))
    e *= lam
    out += e
    return out.reshape(u.shape)


def bratu_jv(u: np.ndarray, p: np.ndarray, lam: float, h: float) -> np.ndarray:
    out = _stencil(p, h)
    out += lam * np.exp(u.reshape(-1)) * p.reshape(-1)
    return out.reshape(p.shape)


# ---------------------------------------------------------------------------
# Lennard-Jones cluster in reduced units: E = sum_{i<j} 4 (r^-12 - r^-6).
# pos is (n_atoms, 3); the gradient is dE/dpos.
# ---------------------------------------------------------------------------

def _pair_r2(pos: np.ndarray, guard: bool = True) -> np.ndarray:
    """r2[i, j] = |pos[i] - pos[j]|^2, summed over three per-axis difference
    planes in two (n, n) buffers. Not expanded as |x|^2 + |y|^2 - 2 x.y:
    that cancels, and its rounding would swamp the guard's r2 of 1e-16.

    Each plane is one rank-2 product, [1, -x] (n x 2) times [x; 1] (2 x n).
    Both products in an entry are exact (a coordinate times 1), so the entry
    is x_i - x_j rounded once, the subtraction's own result, without a ufunc
    outer's inner loop per row. The plane is the transpose of x_i - x_j, which
    squaring cannot tell apart, so r2 is symmetric to the bit.

    The diagonal is +inf, so self-pairs have zero force and never set the
    minimum. With `guard`, a pair closer than MIN_PAIR_DISTANCE raises.
    """
    n = pos.shape[0]
    left = np.ones((n, 2))
    right = np.ones((2, n))
    r2 = np.empty((n, n))
    plane = np.empty_like(r2)
    for k in range(3):
        np.negative(pos[:, k], out=left[:, 1])
        right[0] = pos[:, k]
        out = plane if k else r2
        np.matmul(left, right, out=out)
        out *= out
        if k:
            r2 += plane
    np.fill_diagonal(r2, np.inf)
    if guard and r2.min() < MIN_PAIR_DISTANCE**2:
        raise ValueError("coincident atoms: pair distance below 1e-8")
    return r2


def lj_energy(pos: np.ndarray) -> float:
    inv2 = _pair_r2(pos)
    np.reciprocal(inv2, out=inv2)
    inv6 = inv2 * inv2
    inv6 *= inv2
    pair = inv6 - 1.0
    pair *= inv6
    # Each pair appears twice in the symmetric matrix: 4 / 2 per entry.
    return 2.0 * float(pair.sum())


def lj_gradient(pos: np.ndarray) -> np.ndarray:
    """sum_j c_ij (x_i - x_j) = x_i sum_j c_ij - (C x)_i, one matrix product,
    with c_ij = 24 r^-8 - 48 r^-14 (zero on the diagonal, where r2 is inf).
    The sum is taken on pos translated by its first atom: far from the
    origin the two terms are large and nearly equal, and their difference
    cancels; translated, each term is at most the cluster's diameter. Any
    atom serves, and the first costs a quarter of the mean's time."""
    c = _pair_r2(pos)
    np.reciprocal(c, out=c)
    inv6 = c * c
    inv6 *= c
    c *= inv6
    inv6 *= -48.0
    inv6 += 24.0
    c *= inv6
    pos = pos - pos[0]
    return c.sum(1)[:, None] * pos - c @ pos


def lj_min_pair_distance(pos: np.ndarray) -> float:
    return float(np.sqrt(_pair_r2(pos, guard=False).min()))


def active_backend() -> str:
    return "numpy"
