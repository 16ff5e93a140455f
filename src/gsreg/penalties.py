"""Penalty-function families driving the stage-wise weight updates.

Each family is a normalized closed proper convex function ``phi`` on a
neighbourhood of [0, 1] with ``phi(1) = 1`` and minimum value 0 at
``t_star`` in [0, 1].  The conjugate of its restriction to [0, 1] yields
the weight-update rule, and ``theta(s) = s - psi_star(s)`` is the
induced concave surrogate (SCAD and MCP are recovered for particular
parameter substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCAD = "scad"
MCP = "mcp"
CAPPED_L1 = "capped_l1"
LQ = "lq"

_FAMILIES = (SCAD, MCP, CAPPED_L1, LQ)


@dataclass(frozen=True)
class PhiSpec:
    """Descriptor of one penalty family and its parameters.

    ``a`` parametrizes SCAD (finite a > 1) and MCP (finite a > 0); ``q`` and ``eps``
    parametrize the Lq family (0 < q < 1, 0 < eps < 0.1).
    """

    family: str = SCAD
    a: float = 3.7
    q: float = 0.5
    eps: float = 1e-2

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if self.family == SCAD and not 1 < self.a < np.inf:
            raise ValueError(f"scad requires a finite a > 1, got {self.a}")
        if self.family == MCP and not 0 < self.a < np.inf:
            raise ValueError(f"mcp requires a finite a > 0, got {self.a}")
        if self.family == LQ:
            if not 0 < self.q < 1:
                raise ValueError("lq requires 0 < q < 1")
            if not 0 < self.eps < 0.1:
                raise ValueError("lq requires 0 < eps < 0.1")


@dataclass(frozen=True)
class PhiConstants:
    """Analytic constants of a family: its minimizer on [0, 1]."""

    t_star: float


def varphi_one(spec: PhiSpec) -> float:
    """The unnormalized value at 1 used to scale each family to phi(1) = 1."""
    a, q, eps = spec.a, spec.q, spec.eps
    if spec.family == SCAD:
        return (a + 1.0) / 2.0
    if spec.family == MCP:
        return a - a * a / 4.0 + max(a - 2.0, 0.0) ** 2 / 4.0
    if spec.family == CAPPED_L1:
        return 1.0
    # lq: varphi(1) = -1 - (q-1)/q * eps^{q/(q-1)} + eps + (q-1)/q
    c = (q - 1.0) / q
    return -1.0 - c * eps ** (q / (q - 1.0)) + eps + c


def _varphi(spec: PhiSpec, t):
    """Unnormalized penalty; domain is all reals except lq (t <= 1 + eps)."""
    a, q, eps = spec.a, spec.q, spec.eps
    t = np.asarray(t, dtype=float)
    if spec.family == SCAD:
        return (a - 1.0) / 2.0 * t * t + t
    if spec.family == MCP:
        return a * a / 4.0 * t * t - a * a / 2.0 * t + a * t + max(a - 2.0, 0.0) ** 2 / 4.0
    if spec.family == CAPPED_L1:
        return t
    c = (q - 1.0) / q
    return -t - c * (1.0 - t + eps) ** (q / (q - 1.0)) + eps + c


def phi_eval(spec: PhiSpec, t):
    """Normalized penalty ``phi(t) = varphi(t) / varphi(1)`` for ``t >= 0``."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):  # NaN fails it too
        raise ValueError("t must be nonnegative")
    if spec.family == LQ and np.any(t_arr > 1.0 + spec.eps):
        raise ValueError(f"t outside dom phi: lq requires t <= 1 + eps = {1.0 + spec.eps}")
    out = _varphi(spec, t_arr) / varphi_one(spec)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def phi_constants(spec: PhiSpec) -> PhiConstants:
    if spec.family == MCP:
        return PhiConstants(t_star=max(spec.a - 2.0, 0.0) / spec.a)
    if spec.family == LQ:
        return PhiConstants(t_star=spec.eps)
    return PhiConstants(t_star=0.0)


def _conjugate_argmax(spec: PhiSpec, s):
    """Maximizer of ``s*t - psi(t)`` over [0, 1] (smallest one at ties).

    ``psi`` is phi restricted to [0, 1].  Each family is convex with an
    explicit derivative, so the maximizer is the stationary point of the
    concave objective clamped to [0, 1].
    """
    a, q, eps = spec.a, spec.q, spec.eps
    v1 = varphi_one(spec)
    s = np.asarray(s, dtype=float)
    if spec.family == SCAD:
        t = (s * v1 - 1.0) / (a - 1.0)
    elif spec.family == MCP:
        t = (s * v1 + a * a / 2.0 - a) / (a * a / 2.0)
    elif spec.family == CAPPED_L1:
        # psi is linear: argmax of (s-1)t; smallest selection at the s=1 kink
        return np.where(s > 1.0, 1.0, 0.0)
    else:
        # stationary: (1 - t + eps)^{1/(q-1)} = s*varphi(1) + 1
        u = s * v1 + 1.0
        t = np.where(u > 0.0, 1.0 + eps - np.maximum(u, 1e-300) ** (q - 1.0), 0.0)
    return np.clip(t, 0.0, 1.0)


def psi_star_eval(spec: PhiSpec, s):
    """Closed-form conjugate of phi restricted to [0, 1], at any ``s`` but NaN."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= -np.inf):  # NaN fails it
        raise ValueError("s must not be NaN")
    t = _conjugate_argmax(spec, s_arr)
    out = s_arr * t - _varphi(spec, t) / varphi_one(spec)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def weight_from_subgradient(spec: PhiSpec, s):
    """A selected element of the conjugate subdifferential at ``s >= 0``.

    This is the stage-wise weight-update rule; the selection is the
    smallest subgradient, is nondecreasing in ``s`` and lies in [0, 1].
    """
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0):  # NaN fails it too
        raise ValueError("s must be nonnegative")
    out = _conjugate_argmax(spec, s_arr)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def theta_eval(spec: PhiSpec, s):
    """The concave surrogate ``theta(s) = s - psi_star(s)`` for ``s >= 0``."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0):  # NaN fails it too
        raise ValueError("s must be nonnegative")
    out = s_arr - np.asarray(psi_star_eval(spec, s_arr))
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out
