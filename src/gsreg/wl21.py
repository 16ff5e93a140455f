"""Box-constrained weighted l2,1-regularized least squares, solved in the dual.

The primal subproblem is

    min_x  (1/2) ||Ax - b||^2 + sum_i omega_i ||x_{J_i}||   s.t.  ||x||_inf <= R

(stage objectives divide this by n; see :func:`primal_objective`).  Its
dual is a quadratic over (xi, eta, zeta) with the linear coupling
``A^T xi + eta - zeta = 0`` and zeta constrained to the product of group
balls of radii omega.  We run an inexact augmented Lagrangian method on
the dual whose subproblems are minimized by a two-block accelerated
coordinate descent; the (xi, zeta) block reduces to a strongly
semismooth gradient system in xi solved by a semismooth Newton-CG
iteration.  The ALM multiplier converges to the negated primal
solution, so :func:`alm_solve` flips its sign on return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .groups import BoxConstraint, GroupStructure, group_norms


@dataclass(frozen=True)
class SubproblemSpec:
    """One weighted l2,1 instance: design, response, weights, box radius."""

    A: np.ndarray
    b: np.ndarray
    g: GroupStructure
    omega: np.ndarray
    box: BoxConstraint

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "omega", omega)
        n, p = A.shape
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if p != self.g.p:
            raise ValueError(f"A has {p} columns but group structure has p={self.g.p}")
        if omega.shape != (self.g.m,):
            raise ValueError(f"omega has shape {omega.shape}, expected ({self.g.m},)")
        if np.any(omega < 0):
            raise ValueError("omega must be nonnegative")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


@dataclass
class DualState:
    """ALM iterate: dual blocks (eta, xi, zeta), multiplier x, penalty sigma."""

    eta: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    x: np.ndarray
    sigma: float

    @classmethod
    def cold(cls, spec: SubproblemSpec, sigma: float) -> "DualState":
        return cls(
            eta=np.zeros(spec.p),
            xi=np.zeros(spec.n),
            zeta=np.zeros(spec.p),
            x=np.zeros(spec.p),
            sigma=float(sigma),
        )

    def copy(self) -> "DualState":
        return DualState(self.eta.copy(), self.xi.copy(), self.zeta.copy(), self.x.copy(), self.sigma)


@dataclass(frozen=True)
class SncgConfig:
    theta_bar: float = 0.5
    tau: float = 0.5
    delta: float = 0.5
    mu: float = 1e-4
    cg_max: int = 300
    max_iter: int = 50
    max_backtracks: int = 50

    def __post_init__(self):
        if not 0 < self.theta_bar < 1:
            raise ValueError("theta_bar must lie in (0, 1)")
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.mu < 0.5:
            raise ValueError("mu must lie in (0, 1/2)")


@dataclass(frozen=True)
class AbcdConfig:
    max_iter: int = 50
    # relative L_sigma decrease below rel_tol_factor * (outer tolerance) stops the block sweep
    rel_tol_factor: float = 1e-2


@dataclass(frozen=True)
class AlmConfig:
    sigma0: float = 1.0
    sigma_growth: float = 1.3
    sigma_max: float = 1e6
    tol: float = 1e-5
    max_outer: int = 200
    abcd: AbcdConfig = field(default_factory=AbcdConfig)
    sncg: SncgConfig = field(default_factory=SncgConfig)


@dataclass
class SolveStats:
    converged: bool = False
    outer_iters: int = 0
    abcd_iters: int = 0
    sncg_iters: int = 0
    cg_iters: int = 0
    eps_pinf: float = np.inf
    eps_dinf: float = np.inf
    eps_gap: float = np.inf
    wall_time: float = 0.0
    history: list = field(default_factory=list)
    sncg_fallbacks: int = 0
    sncg_backtracks: int = 0

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "outer_iters": self.outer_iters,
            "abcd_iters": self.abcd_iters,
            "sncg_iters": self.sncg_iters,
            "cg_iters": self.cg_iters,
            "eps_pinf": self.eps_pinf,
            "eps_dinf": self.eps_dinf,
            "eps_gap": self.eps_gap,
            "wall_time": self.wall_time,
            "sncg_fallbacks": self.sncg_fallbacks,
            "sncg_backtracks": self.sncg_backtracks,
            "history": self.history,
        }


class SolverStallError(RuntimeError):
    """Raised when the Newton line search cannot make progress."""


# ---------------------------------------------------------------------------
# elementary maps


def prox_l1(z, gamma: float) -> np.ndarray:
    """Componentwise soft threshold at level ``gamma >= 0``."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def project_group_balls(y, g: GroupStructure, omega) -> np.ndarray:
    """Projection onto the product of group balls of radii ``omega``."""
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    nrm = group_norms(y, g)
    outside = nrm > omega
    scale = np.ones(g.m)
    scale[outside] = omega[outside] / nrm[outside]
    return y * g.broadcast(scale)


# ---------------------------------------------------------------------------
# augmented Lagrangian pieces


def eta_update(state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Closed-form minimizer of L_sigma over eta with (xi, zeta) fixed."""
    if not state.sigma > 0:
        raise ValueError("sigma must be positive")
    arg = state.zeta - spec.A.T @ state.xi - state.x / state.sigma
    return prox_l1(arg, spec.box.R / state.sigma)


def lagrangian_value(state: DualState, spec: SubproblemSpec) -> float:
    """Augmented Lagrangian L_sigma(eta, xi, zeta; x) (zeta assumed feasible)."""
    r = spec.A.T @ state.xi + state.eta - state.zeta
    return float(
        0.5 * state.xi @ state.xi
        + spec.b @ state.xi
        + spec.box.R * np.abs(state.eta).sum()
        + state.x @ r
        + 0.5 * state.sigma * (r @ r)
    )


def phi_kj_value(xi, eta, state: DualState, spec: SubproblemSpec) -> float:
    """The reduced function after minimizing L_sigma over zeta in closed form."""
    xi = np.asarray(xi, dtype=float)
    y = spec.A.T @ xi + eta + state.x / state.sigma
    resid = project_group_balls(y, spec.g, spec.omega) - y
    return float(
        0.5 * state.sigma * (resid @ resid)
        + 0.5 * xi @ xi
        + spec.b @ xi
        + spec.box.R * np.abs(eta).sum()
    )


def phi_kj_grad(xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Gradient ``b + xi + sigma A (y - Pi_Lambda(y))`` of the reduced function."""
    xi = np.asarray(xi, dtype=float)
    y = spec.A.T @ xi + eta + state.x / state.sigma
    return spec.b + xi + state.sigma * (spec.A @ (y - project_group_balls(y, spec.g, spec.omega)))


def hessian_operator(xi, eta, state: DualState, spec: SubproblemSpec):
    """The generalized Hessian ``d -> (I + sigma A (I - W) A^T) d`` at ``xi``.

    On group i, ``I - W_i`` is the identity when ``omega_i = 0``, zero
    inside or on the ball, and ``a_i I + c_i y_i y_i^T`` with
    ``a_i = 1 - omega_i/||y_i||``, ``c_i = omega_i/||y_i||^3`` outside.
    Only the columns ``J`` of groups where it is nonzero enter, so each
    application costs two products with ``A_J`` instead of ``A``.
    """
    y = spec.A.T @ np.asarray(xi, dtype=float) + eta + state.x / state.sigma
    omega = spec.omega
    nrm = group_norms(y, spec.g)
    outside = nrm > omega
    active = outside | (omega == 0.0)
    scale = np.zeros(spec.g.m)  # omega_i / ||y_i||; stays 0 where omega = 0, so a = 1, c = 0
    scale[outside] = omega[outside] / nrm[outside]
    curv = np.zeros(spec.g.m)
    curv[outside] = scale[outside] / nrm[outside] ** 2
    cols, starts, seg = spec.g.segments(active)
    A_J = spec.A if cols.size == spec.p and spec.g.perm is None else spec.A[:, cols]
    y_J = y[cols]
    a_J = (1.0 - scale[active])[seg]
    cy_J = curv[active][seg] * y_J
    sigma = state.sigma

    def apply(d):
        v = A_J.T @ d
        u = a_J * v + cy_J * np.add.reduceat(y_J * v, starts)[seg]
        return d + sigma * (A_J @ u)

    return apply


def gen_hessian_apply(d, xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Apply one generalized Hessian ``I + sigma A (I - W) A^T`` without forming it."""
    return hessian_operator(xi, eta, state, spec)(np.asarray(d, dtype=float))


def _cg(apply_v, rhs, tol: float, max_iter: int):
    """Conjugate gradient for ``V d = rhs`` with absolute residual tolerance."""
    d = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = r @ r
    iters = 0
    for iters in range(1, max_iter + 1):
        vp = apply_v(p)
        denom = p @ vp
        if denom <= 0:
            break  # numerical breakdown; V is SPD so this is roundoff
        alpha = rs / denom
        d += alpha * p
        r -= alpha * vp
        rs_new = r @ r
        if np.sqrt(rs_new) <= tol:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return d, np.sqrt(rs), iters


def sncg_solve(eta, state: DualState, spec: SubproblemSpec, cfg: SncgConfig,
               grad_tol: float, xi0=None):
    """Semismooth Newton-CG on the reduced gradient system in xi.

    Each Newton direction is an inexact CG solve of the generalized
    Hessian system; steps are accepted under an Armijo backtracking
    rule.  Returns the final xi and per-call statistics.
    """
    xi = np.zeros(spec.n) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    stats = {"iters": 0, "cg_iters": 0, "fallbacks": 0, "backtracks": 0}
    g = phi_kj_grad(xi, eta, state, spec)
    gnorm = np.linalg.norm(g)
    if gnorm <= grad_tol:
        return xi, stats
    f = phi_kj_value(xi, eta, state, spec)
    for _ in range(cfg.max_iter):
        cg_tol = min(cfg.theta_bar, gnorm ** (1.0 + cfg.tau))
        d, resid, cg_it = _cg(hessian_operator(xi, eta, state, spec), -g, cg_tol, cfg.cg_max)
        stats["cg_iters"] += cg_it
        slope = g @ d
        if slope >= 0 or not np.all(np.isfinite(d)):
            d = -g  # CG failed to deliver descent; steepest descent fallback
            slope = -gnorm**2
            stats["fallbacks"] += 1
        alpha = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks + 1):
            f_new = phi_kj_value(xi + alpha * d, eta, state, spec)
            if f_new <= f + cfg.mu * alpha * slope:
                accepted = True
                break
            alpha *= cfg.delta
            stats["backtracks"] += 1
        if not accepted:
            raise SolverStallError(
                f"Armijo line search failed after max backtracks at gradient norm {gnorm:.3g}"
            )
        xi = xi + alpha * d
        f = f_new
        stats["iters"] += 1
        g = phi_kj_grad(xi, eta, state, spec)
        gnorm = np.linalg.norm(g)
        if gnorm <= grad_tol:
            break
    return xi, stats


def abcd_solve(state: DualState, spec: SubproblemSpec, cfg: AbcdConfig,
               sncg_cfg: SncgConfig, inner_tol: float, sncg_tol: float,
               pinf_target: float = np.inf):
    """Accelerated two-block descent on the ALM subproblem.

    The eta block has a closed-form soft-threshold update; the (xi, zeta)
    block solves the reduced gradient system by :func:`sncg_solve` and
    recovers zeta by projection.  Nesterov momentum with reset on
    objective increase keeps L_sigma monotone across restarts.  Returns
    the updated blocks, the primal-infeasibility ingredient of the last
    sweep, and iteration counters.
    """
    xi_prev, zeta_prev = state.xi.copy(), state.zeta.copy()
    xi_t, zeta_t = xi_prev.copy(), zeta_prev.copy()
    t_mom = 1.0
    L_prev = np.inf
    stats = {"iters": 0, "sncg_iters": 0, "cg_iters": 0, "fallbacks": 0, "backtracks": 0}
    eta_k = state.eta.copy()
    xi_k, zeta_k = xi_prev, zeta_prev
    pinf_vec = np.zeros(spec.p)
    work = state.copy()

    def sweep(xi_tilde, zeta_tilde):
        work.xi, work.zeta = xi_tilde, zeta_tilde
        eta = eta_update(work, spec)
        xi, s = sncg_solve(eta, work, spec, sncg_cfg, sncg_tol, xi0=xi_tilde)
        y = spec.A.T @ xi + eta + work.x / work.sigma
        zeta = project_group_balls(y, spec.g, spec.omega)
        work.eta, work.xi, work.zeta = eta, xi, zeta
        return eta, xi, zeta, lagrangian_value(work, spec), s

    def tally(s):
        stats["sncg_iters"] += s["iters"]
        for key in ("cg_iters", "fallbacks", "backtracks"):
            stats[key] += s[key]

    for _ in range(cfg.max_iter):
        eta_k, xi_k, zeta_k, L, s = sweep(xi_t, zeta_t)
        tally(s)
        if L > L_prev:
            # momentum overshoot: redo the sweep from the last accepted
            # iterate (plain block descent is monotone) and reset momentum
            eta_k, xi_k, zeta_k, L, s = sweep(xi_prev.copy(), zeta_prev.copy())
            tally(s)
            t_mom = 1.0
            xi_t, zeta_t = xi_prev.copy(), zeta_prev.copy()
        stats["iters"] += 1
        pinf_vec = (zeta_k - zeta_t) + spec.A.T @ (xi_t - xi_k)
        small_change = np.isfinite(L_prev) and abs(L_prev - L) <= inner_tol * max(1.0, abs(L))
        feasible_enough = state.sigma * np.linalg.norm(pinf_vec) <= pinf_target
        if small_change and feasible_enough:
            L_prev = L
            break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        beta = (t_mom - 1.0) / t_next
        xi_t = xi_k + beta * (xi_k - xi_prev)
        zeta_t = zeta_k + beta * (zeta_k - zeta_prev)
        t_mom = t_next
        xi_prev, zeta_prev = xi_k.copy(), zeta_k.copy()
        L_prev = L
    return eta_k, xi_k, zeta_k, pinf_vec, stats


def primal_objective(x, spec: SubproblemSpec) -> float:
    """Stage objective ``(1/2n)||Ax-b||^2 + (1/n) sum omega_i ||x_Ji||``; +inf outside the box."""
    x = np.asarray(x, dtype=float)
    if np.max(np.abs(x)) > spec.box.R:
        return np.inf
    r = spec.A @ x - spec.b
    return float((0.5 * (r @ r) + spec.omega @ group_norms(x, spec.g)) / spec.n)


def dual_objective(state: DualState, spec: SubproblemSpec) -> float:
    """Dual objective with the same 1/n scaling as :func:`primal_objective`.

    Returns +inf when zeta leaves the product of group balls.  At a
    primal-dual optimum the scaled primal and dual objectives sum to zero.
    """
    norms = group_norms(state.zeta, spec.g)
    if np.any(norms > spec.omega * (1 + 1e-12) + 1e-12):
        return np.inf
    val = (
        0.5 * state.xi @ state.xi
        + spec.b @ state.xi
        + spec.box.R * np.abs(state.eta).sum()
    )
    return float(val / spec.n)


def alm_solve(spec: SubproblemSpec, cfg: AlmConfig | None = None,
              warm: DualState | None = None):
    """Inexact ALM on the dual; the primal solution is the negated multiplier.

    Stops when the primal/dual infeasibility measures and the normalized
    primal-dual gap all fall below ``cfg.tol``.  Returns ``(x, state,
    stats)``; a run hitting ``max_outer`` is flagged not-converged.
    """
    cfg = cfg or AlmConfig()
    t0 = time.perf_counter()
    if warm is not None:
        state = warm.copy()
        state.sigma = max(warm.sigma, cfg.sigma0)
    else:
        state = DualState.cold(spec, cfg.sigma0)
    stats = SolveStats()
    inner_tol = cfg.abcd.rel_tol_factor * cfg.tol
    sncg_tol = max(1e-11, 1e-3 * cfg.tol * (1.0 + np.linalg.norm(spec.b)))
    bnorm = 1.0 + np.linalg.norm(spec.b)
    pinf_target = 0.5 * cfg.tol * bnorm
    for j in range(cfg.max_outer):
        eta, xi, zeta, pinf_vec, a_stats = abcd_solve(
            state, spec, cfg.abcd, cfg.sncg, inner_tol, sncg_tol, pinf_target
        )
        x_old = state.x
        resid = spec.A.T @ xi + eta - zeta
        x_new = x_old + state.sigma * resid
        state.eta, state.xi, state.zeta, state.x = eta, xi, zeta, x_new
        eps_pinf = state.sigma * np.linalg.norm(pinf_vec) / bnorm
        eps_dinf = np.linalg.norm(x_new - x_old) / state.sigma
        # the primal solution is the negated multiplier under this
        # Lagrangian sign convention; gap evaluated at its box projection
        x_feas = np.clip(-x_new, -spec.box.R, spec.box.R)
        pobj = primal_objective(x_feas, spec)
        dobj = dual_objective(state, spec)
        eps_gap = abs(pobj + dobj) / (1.0 + abs(pobj)) if np.isfinite(dobj) else np.inf
        stats.outer_iters = j + 1
        stats.abcd_iters += a_stats["iters"]
        stats.sncg_iters += a_stats["sncg_iters"]
        stats.cg_iters += a_stats["cg_iters"]
        stats.sncg_fallbacks += a_stats["fallbacks"]
        stats.sncg_backtracks += a_stats["backtracks"]
        stats.eps_pinf, stats.eps_dinf, stats.eps_gap = eps_pinf, eps_dinf, eps_gap
        stats.history.append(
            {
                "eps_pinf": eps_pinf,
                "eps_dinf": eps_dinf,
                "eps_gap": eps_gap,
                "sigma": state.sigma,
                "abcd_iters": a_stats["iters"],
                "sncg_iters": a_stats["sncg_iters"],
                "cg_iters": a_stats["cg_iters"],
            }
        )
        if max(eps_pinf, eps_dinf, eps_gap) <= cfg.tol:
            stats.converged = True
            break
        state.sigma = min(cfg.sigma_growth * state.sigma, cfg.sigma_max)
    stats.wall_time = time.perf_counter() - t0
    return np.clip(-state.x, -spec.box.R, spec.box.R), state, stats
