"""First-order reference solver for the weighted l2,1 subproblem.

Accelerated proximal gradient with function restarts, used by the tests
as an independent check on the dual ALM solver.  The box constraint is not
handled by the prox (the group-norm prox and the box clamp do not
compose exactly), so callers must pick a radius large enough to be
inactive at the solution; the result is verified to be interior.
"""

from __future__ import annotations

import numpy as np

from gsreg.groups import group_norms
from gsreg.wl21 import SubproblemSpec


def block_soft_threshold(z, g, thresholds) -> np.ndarray:
    """Groupwise shrinkage: prox of ``sum_i thresholds_i ||x_Ji||``."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(thresholds, dtype=float)
    nrm = group_norms(z, g)
    keep = nrm > t
    scale = np.zeros(g.m)
    scale[keep] = 1.0 - np.maximum(t[keep], 0.0) / nrm[keep]
    return z * g.broadcast(scale)


def bisection_root(z_i, omega_i: float, R: float) -> float:
    """The root ``t >= 0`` of ``t ||clip(z_i / (1 + t), -R, R)|| = omega_i``, by bisection.

    The left side increases in ``t``; the root exists when ``||z_i|| > omega_i``.
    """
    def excess(t):
        return t * np.linalg.norm(np.clip(z_i / (1.0 + t), -R, R)) - omega_i

    lo, hi = 0.0, 1.0
    while excess(hi) < 0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid


def bisection_prox(z, g, omega, R: float) -> np.ndarray:
    """Prox of ``sum_i omega_i ||x_Ji|| + delta_{||x||_inf <= R}``, one group at a time.

    A group with ``||z_i|| <= omega_i`` maps to 0; any other maps to
    ``clip(z_i / (1 + t), -R, R)`` with ``t`` from :func:`bisection_root`.
    """
    z = np.asarray(z, dtype=float)
    x = np.zeros_like(z)
    for i, idx in enumerate(g.groups):
        if np.linalg.norm(z[idx]) > omega[i]:
            t = bisection_root(z[idx], omega[i], R)
            x[idx] = np.clip(z[idx] / (1.0 + t), -R, R)
    return x


def fista_reference(spec: SubproblemSpec, grad_map_tol: float = 1e-8,
                    max_iter: int = 200_000):
    """Solve ``min (1/2)||Ax-b||^2 + sum omega_i ||x_Ji||`` by accelerated prox-gradient.

    Returns (x, iterations).  Terminates on the norm of the proximal
    gradient map.  Raises if the box constraint turns out active.
    """
    A, b, g, omega = spec.A, spec.b, spec.g, spec.omega
    L = np.linalg.norm(A, 2) ** 2
    if L == 0:
        return np.zeros(spec.p), 0
    step = 1.0 / L
    thr = omega * step
    x = np.zeros(spec.p)
    y = x.copy()
    t = 1.0
    f_prev = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = A.T @ (A @ y - b)
        x_new = block_soft_threshold(y - step * grad, g, thr)
        gmap = (y - x_new) / step
        if np.linalg.norm(gmap) <= grad_map_tol:
            x = x_new
            break
        r = A @ x_new - b
        f = 0.5 * (r @ r) + float(omega @ group_norms(x_new, g))
        if f > f_prev:  # function restart keeps the momentum honest
            y = x
            t = 1.0
            f_prev = np.inf
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - x)
        x, t, f_prev = x_new, t_new, f
    if np.max(np.abs(x)) > spec.box.R:
        raise ValueError("reference solution leaves the box; enlarge R for the oracle")
    return x, it
