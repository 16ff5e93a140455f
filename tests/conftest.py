"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from gsreg.groups import BoxConstraint, contiguous_groups
from gsreg.wl21 import SubproblemSpec


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


def dense_hessian(xi, eta, state, spec):
    """Assemble I + sigma A (I - W) A^T from the per-group Clarke blocks."""
    y = spec.A.T @ xi + eta + state.x / state.sigma
    W = np.zeros((spec.p, spec.p))
    for i, idx in enumerate(spec.g.groups):
        W[np.ix_(idx, idx)] = clarke_block(y[idx], spec.omega[i])
    return np.eye(spec.n) + state.sigma * spec.A @ (np.eye(spec.p) - W) @ spec.A.T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
