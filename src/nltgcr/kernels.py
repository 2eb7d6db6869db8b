"""Hot numeric kernels, vectorized with numpy: one function per quantity."""

from __future__ import annotations

import numpy as np

# Smallest Lennard-Jones pair distance the energy and gradient accept.
MIN_PAIR_DISTANCE = 1e-8


# ---------------------------------------------------------------------------
# Bratu: 5-point Laplacian plus exponential source on the unit square,
# zero Dirichlet boundary. u is the (n, n) interior grid, spacing h.
# ---------------------------------------------------------------------------

def bratu_residual(u: np.ndarray, lam: float, h: float) -> np.ndarray:
    out = -4.0 * u
    out[1:, :] += u[:-1, :]
    out[:-1, :] += u[1:, :]
    out[:, 1:] += u[:, :-1]
    out[:, :-1] += u[:, 1:]
    out /= h * h
    out += lam * np.exp(u)
    return out


def bratu_jv(u: np.ndarray, p: np.ndarray, lam: float, h: float) -> np.ndarray:
    out = -4.0 * p
    out[1:, :] += p[:-1, :]
    out[:-1, :] += p[1:, :]
    out[:, 1:] += p[:, :-1]
    out[:, :-1] += p[:, 1:]
    out /= h * h
    out += lam * np.exp(u) * p
    return out


# ---------------------------------------------------------------------------
# Lennard-Jones cluster in reduced units: E = sum_{i<j} 4 (r^-12 - r^-6).
# pos is (n_atoms, 3); the gradient is dE/dpos.
# ---------------------------------------------------------------------------

def _pairs(pos: np.ndarray, guard: bool = True):
    """One pass over all pairs: diff[i, j] = pos[i] - pos[j] and r2 = |diff|^2.

    The diagonal of r2 is +inf, so self-pairs have zero force and never set
    the minimum. With `guard`, a pair closer than MIN_PAIR_DISTANCE raises.
    """
    diff = pos[:, None, :] - pos[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    if guard and r2.min() < MIN_PAIR_DISTANCE**2:
        raise ValueError("coincident atoms: pair distance below 1e-8")
    return diff, r2


def lj_energy(pos: np.ndarray) -> float:
    _, r2 = _pairs(pos)
    iu = np.triu_indices(pos.shape[0], 1)
    inv6 = 1.0 / r2[iu] ** 3
    return float(np.sum(4.0 * (inv6 * inv6 - inv6)))


def lj_gradient(pos: np.ndarray) -> np.ndarray:
    diff, r2 = _pairs(pos)
    inv2 = 1.0 / r2
    inv6 = inv2 * inv2 * inv2
    coef = (24.0 * inv6 - 48.0 * inv6 * inv6) * inv2
    return np.einsum("ij,ijk->ik", coef, diff)


def lj_min_pair_distance(pos: np.ndarray) -> float:
    _, r2 = _pairs(pos, guard=False)
    return float(np.sqrt(r2.min()))


def active_backend() -> str:
    return "numpy"
