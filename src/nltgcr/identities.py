"""Verification utilities for the residual-minimizing recurrences.

The history checks form the unnormalized matrices R_k, P_k, A P_k and the
step lengths of a linear solve from its record (the solvers store p_i and
A p_i divided by scales[i]; only this module undoes that) and report the
deviations from the classical relations. They form dense matrices and are
intended for test-scale operators (n <= 200). The window checks
(secant_property_check, identity_observer) test the identities of the
nlTGCR window along a solve and cost O(n k^2) per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .core import WindowPair
from .linear import KrylovHistory, LinearOperator


def _dense(A: LinearOperator) -> np.ndarray:
    if A.mat is not None:
        return A.mat
    eye = np.eye(A.dim)
    return np.stack([A.apply(eye[:, i]) for i in range(A.dim)], axis=1)


def _full_window(hist: KrylovHistory) -> WindowPair:
    """The window of a history that kept every direction it built: its
    column j is direction j, and it has one column per scale."""
    if hist.window is None:
        raise ValueError("this history keeps no direction window")
    if hist.truncated:
        raise ValueError("the reconstructions need a full (untruncated) history")
    return hist.window


def build_B_matrix(hist: KrylovHistory) -> np.ndarray:
    """Unit-diagonal upper triangular B with R_k = P_k B (unnormalized P).

    Requires the complete orthogonalization table, so truncated histories
    are rejected.
    """
    _full_window(hist)
    scales = np.array(hist.scales)
    B = np.eye(len(scales))
    for t, b in enumerate(hist.betas):
        B[:t, t] = b / scales[:t]
    return B


def build_H_matrix(hist: KrylovHistory) -> np.ndarray:
    """Lower bidiagonal (k+2) x (k+1) H with A P_k = R_{k+1} H (unnormalized).

    Column j holds 1/alpha_j on the diagonal and -1/alpha_j below it.
    """
    _full_window(hist)
    k = len(hist.alphas) - 1
    H = np.zeros((k + 2, k + 1))
    for j in range(k + 1):
        a = hist.alphas[j] / hist.scales[j]
        if a == 0.0:
            raise ValueError(f"alpha_{j} is zero; H is undefined")
        H[j, j] = 1.0 / a
        H[j + 1, j] = -1.0 / a
    return H


def reconstruction_defects(hist: KrylovHistory, A: LinearOperator):
    """Max-norm errors of the two matrix reconstructions R=PB and AP=RH."""
    B = build_B_matrix(hist)
    H = build_H_matrix(hist)
    window = _full_window(hist)
    k = len(hist.scales) - 1
    # R_{k+1}: a solve that stopped after step k kept r_{k+1} too.
    R = np.stack(hist.R[: k + 2], axis=1)
    scales = np.array(hist.scales)
    err_b = float(np.abs(R[:, : k + 1] - (window.p_matrix() * scales) @ B).max())
    err_h = float(np.abs(window.v_matrix() * scales - R @ H).max())
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
    if not hist.keep_vectors:
        raise ValueError("this history keeps no residual vectors")
    R = np.stack(hist.R, axis=1)
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
    window = _full_window(hist)
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


@dataclass
class SecantReport:
    secant_max: float
    nochange_max: float


def secant_property_check(window: WindowPair, seed: int = 0, n_probes: int = 3) -> SecantReport:
    """Check G = P V^T against its secant and no-change identities.

    secant_max is max_i ||P V^T v_i - p_i||_inf; nochange_max is the largest
    ||P V^T q||_inf over random probes q orthogonalized against the window.
    """
    if len(window) == 0:
        raise ValueError("secant check needs a nonempty window")
    P = window.p_matrix()
    V = window.v_matrix()
    secant = 0.0
    for i in range(V.shape[1]):
        resid = P @ (V.T @ V[:, i]) - P[:, i]
        secant = max(secant, float(np.abs(resid).max()))
    rng = np.random.default_rng(seed)
    nochange = 0.0
    for _ in range(n_probes):
        q = rng.standard_normal(V.shape[0])
        q = q - V @ (V.T @ q)
        q = q - V @ (V.T @ q)
        nq = float(np.linalg.norm(q))
        if nq == 0.0:
            continue
        q /= nq
        nochange = max(nochange, float(np.abs(P @ (V.T @ q)).max()))
    return SecantReport(secant_max=secant, nochange_max=nochange)


def identity_observer(records: List[dict]) -> Callable[[dict], None]:
    """An nltgcr_solve observer that appends to `records` one JSON-friendly
    dict of residual-identity violations per iteration: item1_vt_rtilde
    (max|V^T r_tilde|), window_defect, secant_max and nochange_max and, unless
    the update is truncated, least_squares_gap (y against a dense lstsq) and
    item4_y_reconstruction (y rebuilt from the previous r_tilde and z).
    item3_vr, |v_new . r_tilde - v_new . r_old| for the pair built after
    iteration k, lands in record k when iteration k + 1 is observed, so the
    last record has none. The secant probes and lstsq slow a solve 5-6x.
    """
    prev = {}

    def observe(s: dict) -> None:
        window, y, r_old, r_tilde, z = s["window"], s["y"], s["r_old"], s["r_tilde"], s["z"]
        V = window.v_matrix()
        extends = s["fresh_pair"] and prev
        if extends:
            v_new = V[:, -1]
            carry = abs(float(v_new @ prev["r_tilde"]) - float(v_new @ prev["r_old"]))
            prev["rec"]["item3_vr"] = carry
        rec = {"iter": s["iter"], "mode": s["mode"], "window": V.shape[1]}
        if not s["truncated"]:
            if extends and prev["z"] is not None:
                rhs = -(V.T @ prev["z"])
                rhs[-1] += float(V[:, -1] @ prev["r_tilde"])
                rec["item4_y_reconstruction"] = float(np.abs(y - rhs).max())
            # The orthonormal-window shortcut must agree with a dense
            # least-squares solve of min ||r - V y||.
            y_ls, *_ = np.linalg.lstsq(V, r_old, rcond=None)
            rec["least_squares_gap"] = float(np.abs(y - y_ls).max())
        rep = secant_property_check(window, seed=s["iter"])
        rec.update(resnorm=float(np.linalg.norm(s["r"])), step_size=s["step"],
                   item1_vt_rtilde=float(np.abs(V.T @ r_tilde).max()),
                   z_norm=float(np.linalg.norm(z)) if z is not None else None,
                   prev_resnorm=float(np.linalg.norm(r_old)), theta=s["theta"],
                   window_defect=window.orthonormality_defect(),
                   secant_max=rep.secant_max, nochange_max=rep.nochange_max)
        records.append(rec)
        prev.update(rec=rec, r_tilde=r_tilde, r_old=r_old, z=z)

    return observe
