"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from gsreg.groups import BoxConstraint, contiguous_groups
from gsreg.wl21 import SubproblemSpec, clarke_block


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
