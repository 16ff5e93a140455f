"""First-order reference solver for the weighted l2,1 subproblem.

Accelerated proximal gradient with function restarts, used as an
independent check on the dual ALM solver.  The box constraint is not
handled by the prox (the group-norm prox and the box clamp do not
compose exactly), so callers must pick a radius large enough to be
inactive at the solution; the result is verified to be interior.
"""

from __future__ import annotations

import numpy as np

from .groups import group_norms
from .penalties import spectral_norm
from .wl21 import SubproblemSpec


def block_soft_threshold(z, g, thresholds) -> np.ndarray:
    """Groupwise shrinkage: prox of ``sum_i thresholds_i ||x_Ji||``."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(thresholds, dtype=float)
    nrm = group_norms(z, g)
    keep = nrm > t
    scale = np.zeros(g.m)
    scale[keep] = 1.0 - np.maximum(t[keep], 0.0) / nrm[keep]
    return z * g.broadcast(scale)


def fista_reference(spec: SubproblemSpec, grad_map_tol: float = 1e-8,
                    max_iter: int = 200_000):
    """Solve ``min (1/2)||Ax-b||^2 + sum omega_i ||x_Ji||`` by accelerated prox-gradient.

    Returns (x, iterations).  Terminates on the norm of the proximal
    gradient map.  Raises if the box constraint turns out active.
    """
    A, b, g, omega = spec.A, spec.b, spec.g, spec.omega
    L = spectral_norm(A) ** 2
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
