"""Box-constrained weighted l2,1-regularized least squares, solved in the dual.

The primal subproblem is

    min_x  (1/2) ||Ax - b||^2 + sum_i omega_i ||x_{J_i}||   s.t.  ||x||_inf <= R

(stage objectives divide this by n; see :func:`primal_objective`).  Its
dual is a quadratic over (xi, eta, zeta) with the linear coupling
``A^T xi + eta - zeta = 0`` and zeta constrained to the product of group
balls of radii omega.  We run an inexact augmented Lagrangian method on
the dual whose subproblems are minimized by a two-block accelerated
coordinate descent; the (xi, zeta) block reduces to a strongly
semismooth gradient system in xi solved by a semismooth Newton
iteration, whose linear systems are factored directly on their smaller
Gram form.  The ALM multiplier converges to the negated primal
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
    delta: float = 0.5
    mu: float = 1e-4
    max_iter: int = 50
    max_backtracks: int = 50

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.mu < 0.5:
            raise ValueError("mu must lie in (0, 1/2)")


@dataclass(frozen=True)
class AbcdConfig:
    max_iter: int = 50
    # the block sweep stops once both the relative L_sigma decrease and the
    # primal infeasibility of a sweep fall below rel_tol_factor * (outer tolerance)
    rel_tol_factor: float = 1e-2

    def __post_init__(self):
        if not self.max_iter > 0:
            raise ValueError(f"abcd max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class AlmConfig:
    """Settings of :func:`alm_solve`.

    After each unconverged outer iteration sigma grows by ``sigma_growth``,
    or by ``max(5, sigma_growth)`` when the multiplier stalls, that is when
    ``eps_dinf`` kept more than half of its previous value; it never
    exceeds ``sigma_max``.
    """

    sigma0: float = 1.0
    sigma_growth: float = 1.3
    sigma_max: float = 1e6
    tol: float = 1e-5
    max_outer: int = 200
    abcd: AbcdConfig = field(default_factory=AbcdConfig)
    sncg: SncgConfig = field(default_factory=SncgConfig)

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not self.sigma_growth > 1:
            raise ValueError(f"sigma_growth must exceed 1, got {self.sigma_growth}")
        if not self.max_outer > 0:
            raise ValueError(f"max_outer must be positive, got {self.max_outer}")


@dataclass
class SolveStats:
    converged: bool = False
    outer_iters: int = 0
    abcd_iters: int = 0
    sncg_iters: int = 0
    eps_pinf: float = np.inf
    eps_dinf: float = np.inf
    eps_gap: float = np.inf
    wall_time: float = 0.0
    history: list = field(default_factory=list)
    sncg_fallbacks: int = 0
    sncg_backtracks: int = 0
    sncg_stalls: int = 0
    # SNCG calls that returned above their gradient target: at max_iter,
    # or at a stall (those are in sncg_stalls as well)
    sncg_unmet: int = 0

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "outer_iters": self.outer_iters,
            "abcd_iters": self.abcd_iters,
            "sncg_iters": self.sncg_iters,
            "eps_pinf": self.eps_pinf,
            "eps_dinf": self.eps_dinf,
            "eps_gap": self.eps_gap,
            "wall_time": self.wall_time,
            "sncg_fallbacks": self.sncg_fallbacks,
            "sncg_backtracks": self.sncg_backtracks,
            "sncg_stalls": self.sncg_stalls,
            "sncg_unmet": self.sncg_unmet,
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


def _reduced_point(xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """``y = A^T xi + eta + x/sigma``, the point the group balls act on."""
    return spec.A.T @ np.asarray(xi, dtype=float) + eta + state.x / state.sigma


def _phi_smooth(xi, y, sigma: float, spec: SubproblemSpec):
    """The reduced function at ``(xi, y)`` less ``R ||eta||_1``, and ``y - Pi_Lambda(y)``."""
    resid = y - project_group_balls(y, spec.g, spec.omega)
    return 0.5 * sigma * (resid @ resid) + 0.5 * xi @ xi + spec.b @ xi, resid


def phi_kj_value(xi, eta, state: DualState, spec: SubproblemSpec) -> float:
    """The reduced function after minimizing L_sigma over zeta in closed form."""
    xi = np.asarray(xi, dtype=float)
    f, _ = _phi_smooth(xi, _reduced_point(xi, eta, state, spec), state.sigma, spec)
    return float(f + spec.box.R * np.abs(eta).sum())


def phi_kj_grad(xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Gradient ``b + xi + sigma A (y - Pi_Lambda(y))`` of the reduced function."""
    xi = np.asarray(xi, dtype=float)
    _, resid = _phi_smooth(xi, _reduced_point(xi, eta, state, spec), state.sigma, spec)
    return spec.b + xi + state.sigma * (spec.A @ resid)


def _active_groups(y, spec: SubproblemSpec):
    """The groups where ``I - W`` is nonzero at ``y``, with their weights.

    On group i, ``I - W_i`` is the identity when ``omega_i = 0``, zero
    inside or on the ball, and ``a_i I + c_i y_i y_i^T`` with
    ``a_i = 1 - omega_i/||y_i||``, ``c_i = omega_i/||y_i||^3`` outside.
    Returns the segments ``(cols, starts, seg)`` of those groups and
    their ``a`` and ``c`` (``a = 1``, ``c = 0`` where ``omega = 0``).
    """
    omega = spec.omega
    nrm = group_norms(y, spec.g)
    outside = nrm > omega
    active = outside | (omega == 0.0)
    scale = np.zeros(spec.g.m)  # omega_i / ||y_i||; stays 0 where omega = 0
    scale[outside] = omega[outside] / nrm[outside]
    curv = np.zeros(spec.g.m)
    curv[outside] = scale[outside] / nrm[outside] ** 2
    cols, starts, seg = spec.g.segments(active)
    return cols, starts, seg, 1.0 - scale[active], curv[active]


def hessian_operator(xi, eta, state: DualState, spec: SubproblemSpec):
    """The generalized Hessian ``d -> (I + sigma A (I - W) A^T) d`` at ``xi``.

    Only the columns ``J`` of the groups from :func:`_active_groups`
    enter, so each application costs two products with ``A_J`` instead
    of ``A``.  This matrix-free form is the oracle for
    :func:`newton_direction`.
    """
    y = _reduced_point(xi, eta, state, spec)
    cols, starts, seg, a, c = _active_groups(y, spec)
    A_J = spec.A if cols.size == spec.p and spec.g.perm is None else spec.A[:, cols]
    y_J = y[cols]
    a_J = a[seg]
    cy_J = c[seg] * y_J
    sigma = state.sigma

    def apply(d):
        v = A_J.T @ d
        u = a_J * v + cy_J * np.add.reduceat(y_J * v, starts)[seg]
        return d + sigma * (A_J @ u)

    return apply


def gen_hessian_apply(d, xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Apply one generalized Hessian ``I + sigma A (I - W) A^T`` without forming it."""
    return hessian_operator(xi, eta, state, spec)(np.asarray(d, dtype=float))


def newton_direction(v, y, sigma: float, spec: SubproblemSpec) -> np.ndarray:
    """Solve ``(I + sigma A (I - W) A^T) d = v`` directly, with ``W`` taken at ``y``.

    With ``Z = A_J diag(sqrt(a))`` and ``w_i = A_{J_i} y_i`` on the
    groups with ``c_i > 0`` (see :func:`_active_groups`),
    ``A (I - W) A^T = Z Z^T + sum_i c_i w_i w_i^T = B B^T`` for
    ``B = [Z, W sqrt(C)]``, which has ``r = |J| + #{c_i > 0}`` columns.
    If ``r >= n`` the n x n system is solved; otherwise the Woodbury
    identity ``d = v - sigma B (I_r + sigma B^T B)^{-1} B^T v`` needs
    only an r x r one.  An empty ``J`` gives ``d = v``.
    """
    v = np.asarray(v, dtype=float)
    cols, starts, seg, a, c = _active_groups(y, spec)
    if cols.size == 0:
        return v.copy()
    # Z is built in the one n x |J| buffer: first A_J * y_J, summed per
    # group into the w_i, then A_J again, scaled by sqrt(a); "clip" keeps
    # take from buffering (every index is valid)
    Z = np.take(spec.A, cols, axis=1, mode="clip")
    curved = np.flatnonzero(c > 0.0)
    W = np.empty((spec.n, 0))
    if curved.size:
        Z *= y[cols]
        W = np.add.reduceat(Z, starts, axis=1)[:, curved] * np.sqrt(c[curved])
        np.take(spec.A, cols, axis=1, out=Z, mode="clip")
    Z *= np.sqrt(a)[seg]
    n, r = spec.n, cols.size + curved.size
    if r >= n:
        M = Z @ Z.T
        M += W @ W.T
        M *= sigma
        M[np.diag_indices(n)] += 1.0
        return np.linalg.solve(M, v)
    K = np.empty((r, r))
    k = cols.size
    K[:k, :k] = Z.T @ Z
    K[:k, k:] = Z.T @ W
    K[k:, :k] = K[:k, k:].T
    K[k:, k:] = W.T @ W
    K *= sigma
    K[np.diag_indices(r)] += 1.0
    t = np.linalg.solve(K, np.concatenate((Z.T @ v, W.T @ v)))
    return v - sigma * (Z @ t[:k] + W @ t[k:])


# relative rounding error allowed for in the Armijo test of sncg_solve
_ROUNDING_SLACK = 16 * np.finfo(float).eps


def sncg_solve(eta, state: DualState, spec: SubproblemSpec, cfg: SncgConfig,
               grad_tol: float, xi0=None):
    """Semismooth Newton on the reduced gradient system in xi.

    Each Newton direction solves the generalized Hessian system exactly
    (:func:`newton_direction`); steps are accepted under an Armijo
    backtracking rule that allows for the rounding error of the function
    values it compares.  ``y`` moves with ``xi`` along ``A^T d``, so a
    trial step needs no product with ``A``.  The loop stops at
    ``grad_tol``, after ``max_iter`` steps, or at a stall: an accepted
    step that lowers neither the function nor the gradient norm, which
    means ``grad_tol`` lies below the rounding floor.  Returns the final
    xi and per-call statistics; ``met`` says whether the gradient norm
    ended at or below ``grad_tol``.
    """
    xi = np.zeros(spec.n) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    # "cg_iters" stays 0: the benchmark tracer still reads it (ROADMAP item 6 removes it)
    stats = {"iters": 0, "cg_iters": 0, "fallbacks": 0, "backtracks": 0, "stalls": 0,
             "met": False}
    sigma = state.sigma
    y = _reduced_point(xi, eta, state, spec)
    f, resid = _phi_smooth(xi, y, sigma, spec)
    g = spec.b + xi + sigma * (spec.A @ resid)
    gnorm = np.linalg.norm(g)
    if gnorm <= grad_tol:
        stats["met"] = True
        return xi, stats
    for _ in range(cfg.max_iter):
        d = newton_direction(-g, y, sigma, spec)
        slope = g @ d
        if slope >= 0 or not np.all(np.isfinite(d)):
            d = -g  # no descent from the Newton system; steepest descent fallback
            slope = -gnorm**2
            stats["fallbacks"] += 1
        At_d = spec.A.T @ d
        # below this, a change of f is rounding noise and cannot veto a step
        slack = _ROUNDING_SLACK * max(1.0, abs(f))
        alpha = 1.0
        for _ in range(cfg.max_backtracks + 1):
            xi_new, y_new = xi + alpha * d, y + alpha * At_d
            f_new, resid_new = _phi_smooth(xi_new, y_new, sigma, spec)
            if f_new <= f + cfg.mu * alpha * slope + slack:
                break
            alpha *= cfg.delta
            stats["backtracks"] += 1
        else:
            raise SolverStallError(
                f"Armijo line search failed after max backtracks at gradient norm {gnorm:.3g}"
            )
        stats["iters"] += 1
        g_new = spec.b + xi_new + sigma * (spec.A @ resid_new)
        gnorm_new = np.linalg.norm(g_new)
        stalled = f_new >= f and gnorm_new >= gnorm
        xi, y, f, g, gnorm = xi_new, y_new, f_new, g_new, gnorm_new
        if stalled:
            stats["stalls"] += 1
            break
        if gnorm <= grad_tol:
            stats["met"] = True
            break
    return xi, stats


def abcd_solve(state: DualState, spec: SubproblemSpec, cfg: AbcdConfig,
               sncg_cfg: SncgConfig, inner_tol: float, sncg_tol: float,
               pinf_target: float = np.inf):
    """Accelerated two-block descent on the ALM subproblem.

    The eta block has a closed-form soft-threshold update; the (xi, zeta)
    block solves the reduced gradient system by :func:`sncg_solve` and
    recovers zeta by projection.  Nesterov momentum with reset on
    objective increase keeps L_sigma monotone across restarts.

    The loop also stops when the next sweep could not move: its momentum
    weight is 0, this sweep's SNCG call met ``sncg_tol``, and the eta
    update at the new ``(xi, zeta)`` returns this sweep's eta exactly.
    That sweep would restart SNCG where it stopped and return the same
    blocks, so it is skipped, and the zero primal infeasibility it would
    compute is returned.  This holds up to rounding: SNCG carries ``y``
    along its steps, so the restarted call would recompute a gradient
    that can differ in its last bits from the one that met the target.
    Returns the updated blocks, the primal-infeasibility ingredient of
    the last sweep, and counters of the sweeps that ran.
    """
    xi_prev, zeta_prev = state.xi.copy(), state.zeta.copy()
    xi_t, zeta_t = xi_prev.copy(), zeta_prev.copy()
    t_mom = 1.0
    L_prev = np.inf
    stats = {"iters": 0, "sncg_iters": 0, "fallbacks": 0, "backtracks": 0, "stalls": 0,
             "unmet": 0}
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
        for key in ("fallbacks", "backtracks", "stalls"):
            stats[key] += s[key]
        stats["unmet"] += not s["met"]

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
        # work holds (eta_k, xi_k, zeta_k); with t_mom == 1 the next sweep starts there
        if t_mom == 1.0 and s["met"] and np.array_equal(eta_update(work, spec), eta_k):
            pinf_vec = np.zeros(spec.p)
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


# the multiplier stalls when eps_dinf keeps more than _STALL_RATIO of its
# last value; sigma then grows by at least _STALL_GROWTH
_STALL_RATIO = 0.5
_STALL_GROWTH = 5.0


def alm_solve(spec: SubproblemSpec, cfg: AlmConfig | None = None,
              warm: DualState | None = None):
    """Inexact ALM on the dual; the primal solution is the negated multiplier.

    Stops when the primal/dual infeasibility measures and the normalized
    primal-dual gap all fall below ``cfg.tol``.  Otherwise sigma grows,
    up to ``cfg.sigma_max``: by ``max(5, cfg.sigma_growth)`` when the
    multiplier stalls, that is when ``eps_dinf`` stays above half of its
    value at the previous outer iteration, and by ``cfg.sigma_growth``
    when it falls faster (and after the first iteration, which has no
    previous value).  Each ``history`` entry logs the ``sigma`` of its
    iteration and whether the multiplier ``stalled`` there.  Returns
    ``(x, state, stats)``; a run hitting ``max_outer`` is flagged
    not-converged.
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
    bnorm = 1.0 + np.linalg.norm(spec.b)
    # Newton steps are exact, so SNCG solves each subproblem close to the
    # rounding floor for about one more step; a target scaled by tol * ||b||
    # left xi too loose for eps_gap when ||b|| is large, and stages cycled
    sncg_tol = 1e-11 * bnorm
    pinf_target = inner_tol * bnorm
    eps_dinf_prev = np.inf
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
        stats.sncg_fallbacks += a_stats["fallbacks"]
        stats.sncg_backtracks += a_stats["backtracks"]
        stats.sncg_stalls += a_stats["stalls"]
        stats.sncg_unmet += a_stats["unmet"]
        stats.eps_pinf, stats.eps_dinf, stats.eps_gap = eps_pinf, eps_dinf, eps_gap
        stalled = bool(eps_dinf > _STALL_RATIO * eps_dinf_prev)
        eps_dinf_prev = eps_dinf
        stats.history.append(
            {
                "eps_pinf": eps_pinf,
                "eps_dinf": eps_dinf,
                "eps_gap": eps_gap,
                "sigma": state.sigma,
                "abcd_iters": a_stats["iters"],
                "sncg_iters": a_stats["sncg_iters"],
                "stalled": stalled,
            }
        )
        if max(eps_pinf, eps_dinf, eps_gap) <= cfg.tol:
            stats.converged = True
            break
        growth = max(_STALL_GROWTH, cfg.sigma_growth) if stalled else cfg.sigma_growth
        state.sigma = min(growth * state.sigma, cfg.sigma_max)
    stats.wall_time = time.perf_counter() - t0
    return np.clip(-state.x, -spec.box.R, spec.box.R), state, stats
