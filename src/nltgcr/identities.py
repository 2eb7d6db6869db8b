"""Window checks for the nlTGCR identities along a solve.

secant_property_check tests a window's secant and no-change identities,
and identity_observer records the residual identities of every nlTGCR
iteration (bench run with props = on, acceptance criterion 4). Both cost
O(n k^2) per call. The dense checks of the linear solvers' matrix
identities live with the tests (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .core import WindowPair


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
    the update is truncated, least_squares_gap (y against the normal
    equations' solution) and item4_y_reconstruction (y rebuilt from the
    previous r_tilde and z). item3_vr, |v_new . r_tilde - v_new . r_old| for
    the pair built after iteration k, lands in record k when iteration k + 1
    is observed, so the last record has none. The checks slow a solve
    several times over (README.md).
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
            # y = V^T r must agree with min ||r - V y|| solved by the normal
            # equations, well conditioned while V^T V stays near I.
            y_ls = np.linalg.solve(V.T @ V, V.T @ r_old)
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
