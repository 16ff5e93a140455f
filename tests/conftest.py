"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from gsreg.groups import BoxConstraint, contiguous_groups
from gsreg.wl21 import SubproblemSpec
from reference import bisection_root


def random_subproblem(seed, n=30, p=48, m=12, omega_scale=0.1, R=1e4):
    """A small dense weighted l2,1 instance with a planted sparse signal."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p)) / np.sqrt(n)
    g = contiguous_groups(p, m)
    x_true = np.zeros(p)
    k = max(1, m // 4)
    for i in rng.permutation(m)[:k]:
        x_true[g.groups[i]] = rng.standard_normal(g.groups[i].size)
    b = A @ x_true + 0.02 * rng.standard_normal(n)
    omega = omega_scale * (0.5 + rng.random(m))
    return SubproblemSpec(A=A, b=b, g=g, omega=omega, box=BoxConstraint(R))


def clarke_block(y_i, omega_i: float) -> np.ndarray:
    """One element of the Clarke Jacobian of the projection onto a group ball.

    Returns the identity inside and on the boundary (the minimal-curvature
    endpoint of the convex hull there), the radially deflated scaling
    outside, and the zero matrix for a degenerate (radius 0) ball.
    """
    y_i = np.asarray(y_i, dtype=float)
    d = y_i.size
    if omega_i < 0:
        raise ValueError("omega_i must be nonnegative")
    if omega_i == 0.0:
        return np.zeros((d, d))
    nrm = np.linalg.norm(y_i)
    if nrm <= omega_i:
        return np.eye(d)
    return omega_i * (np.eye(d) / nrm - np.outer(y_i, y_i) / nrm**3)


def prox_jacobian_block(y_i, omega_i: float, R: float) -> np.ndarray:
    """Jacobian of the prox of ``omega_i ||.|| + delta_{||.||_inf <= R}`` at ``y_i``.

    Where the box clips nothing this is ``I - clarke_block``.  Where it
    clips, the prox is ``clip(y_i / (1 + t), -R, R)`` with ``t`` from the
    bisection oracle: constant on the clipped coordinates, and on the
    free ones ``F`` differentiated through ``x_F = y_F / (1 + t)`` and the
    implicit function ``t`` of ``Phi = t^2 ||x||^2 - omega_i^2 = 0``.
    """
    y_i = np.asarray(y_i, dtype=float)
    d = y_i.size
    if not (np.isfinite(R) and np.linalg.norm(y_i) > omega_i):
        return np.eye(d) - clarke_block(y_i, omega_i)
    t = bisection_root(y_i, omega_i, R)
    x = np.clip(y_i / (1.0 + t), -R, R)
    free = np.abs(x) < R
    if free.all():
        return np.eye(d) - clarke_block(y_i, omega_i)
    J = np.zeros((d, d))
    y_F = y_i[free]
    if omega_i == 0.0:
        dt = np.zeros(y_F.size)  # a plain clip: t = 0 whatever y
    else:
        dphi_dy = 2.0 * t**2 * y_F / (1.0 + t) ** 2
        dphi_dt = 2.0 * t * (x @ x) - 2.0 * t**2 * (y_F @ y_F) / (1.0 + t) ** 3
        dt = -dphi_dy / dphi_dt
    J[np.ix_(free, free)] = np.eye(y_F.size) / (1.0 + t) - np.outer(y_F, dt) / (1.0 + t) ** 2
    return J


def dense_hessian(xi, eta, state, spec, R=np.inf):
    """Assemble ``I + sigma A J A^T``, with ``J`` the prox Jacobian of box radius ``R``, group by group.

    With no box (``R = inf``) ``J = I - W`` from the per-group Clarke blocks.
    """
    y = spec.A.T @ xi + eta + state.x / state.sigma
    J = np.zeros((spec.p, spec.p))
    for i, idx in enumerate(spec.g.groups):
        J[np.ix_(idx, idx)] = prox_jacobian_block(y[idx], spec.omega[i], R)
    return np.eye(spec.n) + state.sigma * spec.A @ J @ spec.A.T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
