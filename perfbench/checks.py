"""Correctness checks of each solve, computed with numpy alone, apart from gsreg.

* Every output is finite and lies in the box ``||x||_inf <= R``.
* A GEP-MSCRA output whose group support equals the true one must match
  the least squares restricted to that support (the oracle property).
* A one-stage group-lasso output must have a small certified duality gap
  for ``min (1/2)||Ax-b||^2 + sum_i omega_i ||x_Ji||``.
"""

from __future__ import annotations

import numpy as np

ORACLE_RTOL = 1e-4
# the stage-1 ALM tolerance, in the solver's n-scaled relative units
GAP_RTOL = 1e-3
SUPPORT_TOL = 1e-6


def norms_by_group(x, groups) -> np.ndarray:
    return np.array([np.sqrt(np.dot(x[idx], x[idx])) for idx in groups])


def support(x, groups) -> frozenset:
    """Ids of the groups whose Euclidean norm exceeds ``SUPPORT_TOL``."""
    return frozenset(np.flatnonzero(norms_by_group(x, groups) > SUPPORT_TOL).tolist())


def finite_in_box(x, R: float) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(x)) and np.max(np.abs(x)) <= R)


def oracle_distance(x, A, b, groups, true_support) -> float:
    """``||x - x_ls|| / ||x_ls||`` for the least squares restricted to ``true_support``."""
    cols = np.concatenate([groups[i] for i in sorted(true_support)])
    x_s, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
    x_ls = np.zeros(A.shape[1])
    x_ls[cols] = x_s
    return float(np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls))


def relative_gap(x, A, b, groups, omega) -> float:
    """Certified relative duality gap of the weighted l2,1 problem at ``x``.

    The dual point is the residual ``A x - b`` scaled until
    ``||(A^T theta)_Ji|| <= omega_i`` for every group; the dual value
    ``-(1/2)||theta||^2 - b^T theta`` then bounds the optimum from below,
    box or no box, since the box only raises the optimum.  Both sides are
    divided by ``n`` as the solver's stage objective is, and the gap is
    taken relative to ``1 + |primal|``.
    """
    n = A.shape[0]
    r = A @ x - b
    corr = norms_by_group(A.T @ r, groups)
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore"):
        scale = min(1.0, float(np.min(np.where(corr > 0, omega / corr, np.inf))))
    theta = scale * r
    primal = (0.5 * (r @ r) + omega @ norms_by_group(x, groups)) / n
    dual = (-0.5 * (theta @ theta) - b @ theta) / n
    return float((primal - dual) / (1.0 + abs(primal)))


def check_gep(x, A, b, groups, R: float, true_support) -> dict:
    """Box and finiteness always; the oracle distance when the support is exact."""
    out = {"finite_in_box": finite_in_box(x, R), "exact_support": None, "oracle_dist": None}
    if not out["finite_in_box"]:
        out["ok"] = False
        return out
    exact = support(x, groups) == frozenset(int(i) for i in true_support)
    out["exact_support"] = exact
    if exact:
        out["oracle_dist"] = oracle_distance(x, A, b, groups, true_support)
        out["ok"] = out["oracle_dist"] <= ORACLE_RTOL
    else:
        out["ok"] = True
    return out


def check_group_lasso(x, A, b, groups, R: float, omega) -> dict:
    """Box and finiteness, then the certified relative duality gap."""
    out = {"finite_in_box": finite_in_box(x, R), "rel_gap": None}
    if not out["finite_in_box"]:
        out["ok"] = False
        return out
    out["rel_gap"] = relative_gap(x, A, b, groups, omega)
    out["ok"] = out["rel_gap"] <= GAP_RTOL
    return out
