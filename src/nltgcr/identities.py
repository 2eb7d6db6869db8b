"""Dense verification utilities for the linear-solver history.

These rebuild the classical matrix relations of the residual-minimizing
recurrences from a recorded history and report deviations. They form dense
matrices and are intended for test-scale operators (n <= 200).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linear import KrylovHistory, LinearOperator


def _dense(A: LinearOperator) -> np.ndarray:
    if A.mat is not None:
        return A.mat
    eye = np.eye(A.dim)
    return np.stack([A.apply(eye[:, i]) for i in range(A.dim)], axis=1)


def build_B_matrix(hist: KrylovHistory) -> np.ndarray:
    """Unit-diagonal upper triangular B with R_k = P_k B (unnormalized P).

    Requires the complete orthogonalization table, so truncated histories
    are rejected.
    """
    if not hist.complete_beta_table:
        raise ValueError("B reconstruction needs a full (untruncated) history")
    k = len(hist.scales) - 1
    B = np.eye(k + 1)
    for (i, t), val in hist.betas.items():
        if t <= k:
            B[i, t] = val / hist.scales[i]
    return B


def build_H_matrix(hist: KrylovHistory) -> np.ndarray:
    """Lower bidiagonal (k+2) x (k+1) H with A P_k = R_{k+1} H (unnormalized).

    Column j holds 1/alpha_j on the diagonal and -1/alpha_j below it.
    """
    if not hist.complete_beta_table:
        raise ValueError("H reconstruction needs a full (untruncated) history")
    k = len(hist.alphas) - 1
    H = np.zeros((k + 2, k + 1))
    for j in range(k + 1):
        a = hist.alpha_unnormalized(j)
        if a == 0.0:
            raise ValueError(f"alpha_{j} is zero; H is undefined")
        H[j, j] = 1.0 / a
        H[j + 1, j] = -1.0 / a
    return H


def reconstruction_defects(hist: KrylovHistory, A: LinearOperator):
    """Max-norm errors of the two matrix reconstructions R=PB and AP=RH."""
    B = build_B_matrix(hist)
    H = build_H_matrix(hist)
    k = len(hist.scales) - 1
    R_k = hist.R_matrix(k)
    P_un = hist.P_unnormalized(k)
    err_b = float(np.abs(R_k - P_un @ B).max())
    R_k1 = hist.R_matrix(k + 1)
    AP_un = hist.AP_unnormalized(k)
    err_h = float(np.abs(AP_un - R_k1 @ H).max())
    return err_b, err_h


@dataclass(frozen=True)
class SemiConjugacyReport:
    lower_violation: float
    offdiag_violation: Optional[float] = None


def check_semiconjugacy(hist: KrylovHistory, A: LinearOperator) -> SemiConjugacyReport:
    """Largest strictly-lower entry of R^T A R; off-diagonal too if symmetric.

    Full GCR residuals make R^T A R upper triangular, and diagonal when A
    is symmetric.
    """
    R = hist.R_matrix()
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


def induced_inverse_checks(
    hist: KrylovHistory,
    A: LinearOperator,
    k: Optional[int] = None,
    n_probes: int = 5,
    seed: int = 0,
) -> InducedInverseReport:
    """Check the projector identities induced by B_k = P_k V_k^T.

    Uses the normalized direction columns (V has orthonormal columns) and a
    dense direct solve as the inversion oracle. Assumes the history came
    from a solve started at x0 = 0.
    """
    if k is None:
        k = len(hist.scales) - 1
    P = hist.P_matrix(k)
    V = hist.V_matrix(k)
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
