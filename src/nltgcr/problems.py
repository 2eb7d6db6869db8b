"""Deterministic benchmark problems: Bratu PDE, Lennard-Jones cluster,
regularized logistic regression, and seeded linear fixtures.

All evaluations are pure functions of their inputs, so concurrent solver
instances may share a problem object safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .core import NonlinearProblem
from .linear import LinearOperator

_EXP_OVERFLOW = 700.0  # exp argument beyond which float64 overflows


def _check_size(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Bratu problem: lap(u) + lam * exp(u) = 0 on the unit square, zero Dirichlet
# boundary, 5-point centered differences on a grid_n x grid_n interior grid.
# ---------------------------------------------------------------------------


@dataclass
class BratuProblem:
    """Bratu residual on the interior grid.

    `scaled=True` multiplies the residual by h^2, the row scaling that makes
    the stencil O(1); the roots are identical and the conjugate-residual
    solvers are scale-invariant, but fixed-point baselines (Anderson mixing
    with beta = 0.1, gradient methods) need this normalization to behave.
    The scaled form is evaluated as it stands, S(u) + c e^u with S the
    stencil sum on a unit grid and c = h^2 lam, so no pass divides by h^2
    only for a multiply to undo it.
    """

    grid_n: int = 100
    lam: float = 0.5
    scaled: bool = False

    def __post_init__(self):
        _check_size("grid_n", self.grid_n)

    @property
    def h(self) -> float:
        return 1.0 / (self.grid_n + 1)

    @property
    def dim(self) -> int:
        return self.grid_n * self.grid_n

    @property
    def _row_scale(self) -> float:
        return self.h * self.h if self.scaled else 1.0

    @property
    def _coefficients(self) -> Tuple[float, float]:
        """The kernels' (lam, h); the scaled form's are (h^2 lam, 1)."""
        return (self._row_scale * self.lam, 1.0) if self.scaled else (self.lam, self.h)

    def _grid(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected length {self.dim}, got {u.shape}")
        return u.reshape(self.grid_n, self.grid_n)

    @staticmethod
    def _signed(out: np.ndarray, sign: float) -> np.ndarray:
        """The kernel's output, flat, negated in place for sign -1."""
        out = out.ravel()
        if sign != 1.0:
            out *= sign
        return out

    def _residual(self, u: np.ndarray, sign: float) -> np.ndarray:
        u2 = self._grid(u)
        if float(u2.max()) > _EXP_OVERFLOW:
            raise ValueError("exp overflow: u is out of physical range")
        lam, h = self._coefficients
        return self._signed(kernels.bratu_residual(u2, lam, h), sign)

    def _jv(self, u: np.ndarray, p: np.ndarray, sign: float) -> np.ndarray:
        u2 = self._grid(u)
        p2 = self._grid(np.asarray(p, dtype=float))
        if float(u2.max()) > _EXP_OVERFLOW:
            raise ValueError("exp overflow: u is out of physical range")
        lam, h = self._coefficients
        return self._signed(kernels.bratu_jv(u2, p2, lam, h), sign)

    def f(self, u: np.ndarray) -> np.ndarray:
        return self._residual(u, 1.0)

    def jv(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._jv(u, p, 1.0)

    def laplacian_quadratic(self, u: np.ndarray) -> float:
        """0.5 * u^T L u for the (possibly scaled) discrete Laplacian part."""
        lap_u = self.f(u) - self._row_scale * self.lam * np.exp(u)
        return 0.5 * float(u @ lap_u)

    def problem(self) -> NonlinearProblem:
        """Root-finding form f(u) = lap(u) + lam e^u; J is negative definite."""
        return NonlinearProblem(
            dim=self.dim, eval_f=self.f, exact_jv=self.jv, name="bratu"
        )

    def minimization_problem(self) -> NonlinearProblem:
        """Negated form whose f is the gradient of a convex objective.

        With psi(u) = -0.5 u^T L u - lam * sum(e^u), grad psi = -f and the
        Hessian -J is positive definite, so gradient-based baselines can
        minimize psi directly. The roots are unchanged.
        """

        def phi(u):
            # The quadratic goes first: its f call range-checks u before exp.
            quad = self.laplacian_quadratic(u)
            exp_sum = self._row_scale * self.lam * float(np.sum(np.exp(u)))
            return -(quad + exp_sum)

        return NonlinearProblem(
            dim=self.dim,
            eval_f=lambda u: self._residual(u, -1.0),
            exact_jv=lambda u, p: self._jv(u, p, -1.0),
            eval_phi=phi,
            name="bratu-min",
        )


# ---------------------------------------------------------------------------
# Lennard-Jones cluster, reduced units. Positions are a flat (3 * atoms,)
# vector; f = grad E.
# ---------------------------------------------------------------------------

# FCC lattice constant putting nearest neighbors at the pair-energy minimum
# 2^(1/6): neighbors sit at a / sqrt(2).
FCC_LATTICE_CONSTANT = 2.0 ** (1.0 / 6.0) * np.sqrt(2.0)


@dataclass
class LennardJonesProblem:
    cells_per_side: int = 3
    perturbation_scale: float = 0.05
    rng_seed: int = 0
    lattice_constant: float = FCC_LATTICE_CONSTANT

    def __post_init__(self):
        _check_size("cells_per_side", self.cells_per_side)

    @property
    def atoms(self) -> int:
        return 4 * self.cells_per_side**3

    @property
    def dim(self) -> int:
        return 3 * self.atoms

    def _positions(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected length {self.dim}, got {x.shape}")
        return x.reshape(self.atoms, 3)

    def energy(self, x: np.ndarray) -> float:
        return kernels.lj_energy(self._positions(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return kernels.lj_gradient(self._positions(x)).ravel()

    def initial_positions(self, seed: Optional[int] = None) -> np.ndarray:
        """Perturbed FCC block: cells_per_side^3 cells with a 4-atom basis."""
        c = self.cells_per_side
        basis = np.array(
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
        )
        cells = np.array([[i, j, k] for i in range(c) for j in range(c) for k in range(c)], dtype=float)
        pos = (cells[:, None, :] + basis[None, :, :]).reshape(-1, 3) * self.lattice_constant
        rng = np.random.default_rng(self.rng_seed if seed is None else seed)
        pos = pos + rng.uniform(-self.perturbation_scale, self.perturbation_scale, pos.shape)
        return pos.ravel()

    def problem(self) -> NonlinearProblem:
        return NonlinearProblem(
            dim=self.dim,
            eval_f=self.gradient,
            eval_phi=self.energy,
            name="lennard-jones",
        )


# ---------------------------------------------------------------------------
# Regularized logistic regression: phi(theta) =
#   (1/N) sum log(1 + exp(-y_i x_i . theta)) + (reg/2) ||theta||^2.
# ---------------------------------------------------------------------------


@dataclass
class LogRegProblem:
    X: np.ndarray
    y: np.ndarray
    lambda_reg: float = 1e-2

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if set(np.unique(self.y)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")

    @property
    def samples(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def phi(self, theta: np.ndarray) -> float:
        margins = -self.y * (self.X @ theta)
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        return loss + 0.5 * self.lambda_reg * float(theta @ theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        margins = -self.y * (self.X @ theta)
        sig = _sigmoid(margins)
        g = -(self.X.T @ (self.y * sig)) / self.samples
        return g + self.lambda_reg * theta

    def jv(self, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
        margins = -self.y * (self.X @ theta)
        sig = _sigmoid(margins)
        w = sig * (1.0 - sig)
        return (self.X.T @ (w * (self.X @ p))) / self.samples + self.lambda_reg * p

    def problem(self) -> NonlinearProblem:
        return NonlinearProblem(
            dim=self.dim,
            eval_f=self.grad,
            exact_jv=self.jv,
            eval_phi=self.phi,
            name="logreg",
        )


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logreg_make_synthetic(
    n_samples: int = 2000, n_features: int = 500, seed: int = 0, lambda_reg: float = 1e-2
) -> LogRegProblem:
    """Gaussian features with labels drawn from a planted logistic model."""
    _check_size("n_samples", n_samples)
    _check_size("n_features", n_features)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, n_features)) / np.sqrt(n_features)
    theta_star = rng.standard_normal(n_features)
    prob_pos = _sigmoid(X @ theta_star)
    y = np.where(rng.uniform(size=n_samples) < prob_pos, 1.0, -1.0)
    return LogRegProblem(X=X, y=y, lambda_reg=lambda_reg)


# ---------------------------------------------------------------------------
# Seeded dense linear fixtures with controlled spectra.
# ---------------------------------------------------------------------------


def make_linear_problem(kind: str, n: int, seed: int = 0) -> Tuple[LinearOperator, np.ndarray]:
    """Dense operator fixture: 'spd' (eigenvalues in [1, 10]), 'nonsymmetric'
    (positive-definite symmetric part), or 'indefinite' (mixed signs)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kind == "spd":
        eigs = rng.uniform(1.0, 10.0, n)
        A = Q @ np.diag(eigs) @ Q.T
        A = 0.5 * (A + A.T)
        op = LinearOperator.from_matrix(A, is_symmetric=True)
    elif kind == "nonsymmetric":
        eigs = rng.uniform(1.0, 10.0, n)
        sym = Q @ np.diag(eigs) @ Q.T
        skew = rng.standard_normal((n, n))
        skew = 0.5 * (skew - skew.T)
        A = 0.5 * (sym + sym.T) + skew
        op = LinearOperator.from_matrix(A, is_symmetric=False)
    elif kind == "indefinite":
        eigs = rng.uniform(1.0, 10.0, n)
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        if np.all(signs > 0):
            signs[0] = -1.0
        if np.all(signs < 0):
            signs[0] = 1.0
        A = Q @ np.diag(signs * eigs) @ Q.T
        A = 0.5 * (A + A.T)
        op = LinearOperator.from_matrix(A, is_symmetric=True)
    else:
        raise ValueError(f"unknown linear fixture kind: {kind!r}")
    b = rng.standard_normal(n)
    return op, b
