"""Box-constrained weighted l2,1-regularized least squares, solved in the dual.

The primal subproblem is

    min_x  (1/2) ||Ax - b||^2 + p(x),
    p(x) = sum_i omega_i ||x_{J_i}|| + delta_{||x||_inf <= R}(x)

(stage objectives divide this by n; see :func:`primal_objective`).  Its
dual is a quadratic over (xi, eta, zeta) with the linear coupling
``A^T xi + eta - zeta = 0`` and zeta constrained to the product of group
balls of radii omega.  We run an inexact augmented Lagrangian method on
the dual.  Minimizing its augmented Lagrangian over (eta, zeta) in
closed form goes through :func:`prox_group_box`, the prox of ``p``, and
leaves a strongly semismooth gradient system in xi alone, which one
semismooth Newton solve per ALM iteration drives to zero; each Newton
system is factored directly on its smaller Gram form.  This is the
SSNAL structure of Li, Sun & Toh (SIAM J. Optim. 2018).  The ALM
multiplier converges to the negated primal solution, so
:func:`alm_solve` flips its sign on return.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .groups import BoxConstraint, GroupStructure, group_norms, prox_group_box


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
    sncg_iters: int = 0
    eps_pinf: float = np.inf
    eps_dinf: float = np.inf
    eps_gap: float = np.inf
    wall_time: float = 0.0
    sncg_fallbacks: int = 0
    sncg_backtracks: int = 0
    sncg_stalls: int = 0
    # SNCG calls that returned above their gradient target: at max_iter,
    # or at a stall (those are in sncg_stalls as well)
    sncg_unmet: int = 0
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


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
# augmented Lagrangian pieces; eta_update and lagrangian_value have no
# caller in the solver, the benchmark tracer still looks them up by name


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
    """``y = A^T xi + eta + x/sigma``, the point the prox acts on."""
    return spec.A.T @ np.asarray(xi, dtype=float) + eta + state.x / state.sigma


def _box_clip(s, spec: SubproblemSpec, R: float):
    """Where the box of radius ``R`` clips the prox ``s``: ``None``, or ``(clipped, t)``.

    ``clipped`` masks the coordinates at ``+-R``; ``t_i = omega_i/||s_i||``
    (0 where ``s_i = 0``), so that ``s_i = clip(y_i / (1 + t_i), -R, R)``
    on the groups where the box clips (see :func:`prox_group_box`).
    """
    clipped = np.abs(s) == R
    if not clipped.any():
        return None
    nrm = group_norms(s, spec.g)
    t = np.zeros(spec.g.m)
    t[nrm > 0] = spec.omega[nrm > 0] / nrm[nrm > 0]
    return clipped, t


def _psi(xi, y, sigma: float, R: float, spec: SubproblemSpec):
    """The reduced function at ``(xi, y)`` for the box radius ``R``, and ``s = prox(y)``.

    ``s`` is :func:`prox_group_box` at ``y`` with the weights omega and
    the radius ``R``, and the gradient in xi is ``b + xi + sigma A s``.
    The function is ``||xi||^2/2 + b^T xi + sigma (||s||^2/2 + r)``:
    ``r`` is 0 where nothing clips, and ``R (|y_j| - (1 + t_i) R)``
    summed over the clipped coordinates otherwise.
    """
    s = prox_group_box(y, spec.g, spec.omega, R)
    f = 0.5 * sigma * (s @ s) + 0.5 * xi @ xi + spec.b @ xi
    box = _box_clip(s, spec, R)
    if box is not None:
        clipped, t = box
        over = np.abs(y[clipped]) - (1.0 + t[spec.g.group_id[clipped]]) * R
        f += sigma * R * over.sum()
    return f, s


def phi_kj_value(xi, eta, state: DualState, spec: SubproblemSpec) -> float:
    """The reduced function of the (xi, zeta) block at fixed eta: no box, plus ``R ||eta||_1``."""
    xi = np.asarray(xi, dtype=float)
    f, _ = _psi(xi, _reduced_point(xi, eta, state, spec), state.sigma, np.inf, spec)
    return float(f + spec.box.R * np.abs(eta).sum())


def phi_kj_grad(xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Gradient ``b + xi + sigma A (y - Pi_Lambda(y))`` of :func:`phi_kj_value`."""
    xi = np.asarray(xi, dtype=float)
    _, s = _psi(xi, _reduced_point(xi, eta, state, spec), state.sigma, np.inf, spec)
    return spec.b + xi + state.sigma * (spec.A @ s)


def _active_groups(y, spec: SubproblemSpec, R: float):
    """The groups where the Jacobian ``I - W`` of the prox at ``y`` is nonzero, with their weights.

    The prox is :func:`prox_group_box` with the weights omega and the
    radius ``R``.  On group i, ``I - W_i`` is the identity when
    ``omega_i = 0``, zero inside or on the ball, and
    ``a_i I + c_i y_i y_i^T`` with ``a_i = 1 - omega_i/||y_i||``,
    ``c_i = omega_i/||y_i||^3`` outside.  On a group where the box clips,
    with prox ``s_i`` and ``t_i`` from :func:`_box_clip`, it is zero on
    the clipped coordinates and ``a_i I + c_i y_i y_i^T`` on the others
    ``F``, with ``a_i = 1/(1 + t_i)`` and
    ``c_i = t_i / ((1 + t_i)^3 ((1 + t_i) ||s_i||^2 - t_i ||s_F||^2))``.
    Returns the segments ``(cols, starts, seg)`` of the coordinates where
    it is nonzero, and the ``a`` and ``c`` of their groups.
    """
    g, omega = spec.g, spec.omega
    nrm = group_norms(y, g)
    outside = nrm > omega
    active = outside | (omega == 0.0)
    scale = np.zeros(g.m)  # omega_i / ||y_i||; stays 0 where omega = 0
    scale[outside] = omega[outside] / nrm[outside]
    a = 1.0 - scale
    c = np.zeros(g.m)
    c[outside] = scale[outside] / nrm[outside] ** 2
    s = prox_group_box(y, g, omega, R)
    box = _box_clip(s, spec, R)
    if box is None:
        cols, starts, seg = g.segments(active)
        return cols, starts, seg, a[active], c[active]
    clipped, t = box
    hit = g.segment_sum(clipped) > 0
    th, s2 = t[hit], s * s
    s2_free = g.segment_sum(np.where(clipped, 0.0, s2))[hit]
    a[hit] = 1.0 / (1.0 + th)
    c[hit] = th / ((1.0 + th) ** 3 * ((1.0 + th) * g.segment_sum(s2)[hit] - th * s2_free))
    active &= g.segment_sum(~clipped) > 0
    cols, _, seg = g.segments(active)
    kept = ~clipped[cols]
    cols, seg = cols[kept], seg[kept]
    sizes = np.bincount(seg, minlength=np.count_nonzero(active))
    return cols, np.cumsum(sizes) - sizes, seg, a[active], c[active]


def hessian_operator(xi, eta, state: DualState, spec: SubproblemSpec):
    """The generalized Hessian ``d -> (I + sigma A (I - W) A^T) d`` of :func:`phi_kj_value`.

    Only the columns ``J`` of the groups from :func:`_active_groups`
    enter, so each application costs two products with ``A_J`` instead
    of ``A``.  This matrix-free form is an oracle for
    :func:`newton_direction` where the box clips nothing.
    """
    y = _reduced_point(xi, eta, state, spec)
    cols, starts, seg, a, c = _active_groups(y, spec, np.inf)
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

    ``I - W`` is the Jacobian of the prox at ``y`` for the box radius
    ``R / sigma`` (see :func:`_active_groups`).  With
    ``Z = A_J diag(sqrt(a))`` and ``w_i = A_{J_i} y_i`` on the groups
    with ``c_i > 0``, ``A (I - W) A^T = Z Z^T + sum_i c_i w_i w_i^T = B B^T``
    for ``B = [Z, W sqrt(C)]``, which has ``r = |J| + #{c_i > 0}`` columns.
    If ``r >= n`` the n x n system is solved; otherwise the Woodbury
    identity ``d = v - sigma B (I_r + sigma B^T B)^{-1} B^T v`` needs
    only an r x r one.  An empty ``J`` gives ``d = v``.
    """
    v = np.asarray(v, dtype=float)
    cols, starts, seg, a, c = _active_groups(y, spec, spec.box.R / sigma)
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


def sncg_solve(state: DualState, spec: SubproblemSpec, cfg: SncgConfig,
               grad_tol: float, xi0=None):
    """Semismooth Newton on the reduced gradient system in xi.

    The reduced function is the augmented Lagrangian minimized over
    (eta, zeta): ``||xi||^2/2 + b^T xi`` plus a Moreau envelope of the
    conjugate of ``p`` at ``y = A^T xi + x/sigma``, whose gradient
    ``b + xi + A x+`` needs ``x+ = prox_{sigma p}(sigma y)``, computed as
    ``sigma`` times the prox at ``y`` for the box radius ``R/sigma``.
    Each Newton direction solves the generalized Hessian system exactly
    (:func:`newton_direction`); steps are accepted under an Armijo
    backtracking rule that allows for the rounding error of the function
    values it compares.  ``y`` moves with ``xi`` along ``A^T d``, so a
    trial step needs no product with ``A^T``.  The loop stops at
    ``grad_tol``, after ``max_iter`` steps, or at a stall: an accepted
    step that lowers neither the function nor the gradient norm, which
    means ``grad_tol`` lies below the rounding floor.  Returns the final
    xi and per-call statistics; ``met`` says whether the gradient norm
    ``gnorm`` ended at or below ``grad_tol``.
    """
    xi = np.zeros(spec.n) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    # "cg_iters" stays 0: the benchmark tracer still reads it (ROADMAP item 1 removes it)
    stats = {"iters": 0, "cg_iters": 0, "fallbacks": 0, "backtracks": 0, "stalls": 0,
             "met": False}
    sigma = state.sigma
    R = spec.box.R / sigma
    y = _reduced_point(xi, 0.0, state, spec)
    f, s = _psi(xi, y, sigma, R, spec)
    g = spec.b + xi + sigma * (spec.A @ s)
    gnorm = np.linalg.norm(g)
    for _ in range(cfg.max_iter):
        if gnorm <= grad_tol:
            break
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
            f_new, s_new = _psi(xi_new, y_new, sigma, R, spec)
            if f_new <= f + cfg.mu * alpha * slope + slack:
                break
            alpha *= cfg.delta
            stats["backtracks"] += 1
        else:
            raise SolverStallError(
                f"Armijo line search failed after max backtracks at gradient norm {gnorm:.3g}"
            )
        stats["iters"] += 1
        g_new = spec.b + xi_new + sigma * (spec.A @ s_new)
        gnorm_new = np.linalg.norm(g_new)
        stalled = f_new >= f and gnorm_new >= gnorm
        xi, y, f, g, gnorm = xi_new, y_new, f_new, g_new, gnorm_new
        if stalled:
            stats["stalls"] += 1
            break
    stats["met"] = bool(gnorm <= grad_tol)
    stats["gnorm"] = float(gnorm)
    return xi, stats


def abcd_solve(state: DualState, spec: SubproblemSpec, sncg_cfg: SncgConfig, sncg_tol: float):
    """Minimize the augmented Lagrangian over (eta, xi, zeta) by one :func:`sncg_solve` call.

    SNCG finds xi; with ``y = A^T xi + x/sigma`` and ``s`` the prox at
    ``y`` for the box radius ``R/sigma``, the minimizing zeta is the
    projection of ``y`` onto the group balls where the box clips nothing
    and ``omega_i s_i/||s_i||`` where it does, and eta is
    ``zeta - (y - s)`` on the clipped coordinates and 0 elsewhere.  The
    new multiplier ``x + sigma (A^T xi + eta - zeta)`` is then
    ``sigma s = prox_{sigma p}(sigma y)``.  Returns
    ``(eta, xi, zeta, x_new, stats)``, where ``stats["sncg"]`` holds the
    statistics of the SNCG call.

    The name and the 5-tuple with the statistics last are those of the
    block coordinate descent this replaced: the benchmark tracer looks
    the function up by name and counts ``stats["iters"]``, always 1
    here, as its sweeps.
    """
    xi, s_stats = sncg_solve(state, spec, sncg_cfg, sncg_tol, xi0=state.xi)
    R = spec.box.R / state.sigma
    At_xi = spec.A.T @ xi
    y = At_xi + state.x / state.sigma
    s = prox_group_box(y, spec.g, spec.omega, R)
    zeta = project_group_balls(y, spec.g, spec.omega)
    eta = np.zeros(spec.p)
    box = _box_clip(s, spec, R)
    if box is not None:
        clipped, t = box
        on = (spec.g.segment_sum(clipped) > 0)[spec.g.group_id]
        zeta[on] = (t[spec.g.group_id] * s)[on]
        eta[clipped] = zeta[clipped] - (y - s)[clipped]
    x_new = state.x + state.sigma * (At_xi + eta - zeta)
    return eta, xi, zeta, x_new, {"iters": 1, "sncg": s_stats}


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

    Each outer iteration minimizes the augmented Lagrangian with one
    :func:`abcd_solve` call.  It stops when the three residuals fall
    below ``cfg.tol``: ``eps_pinf``, the final gradient norm of that
    SNCG solve over ``1 + ||b||``; ``eps_dinf``, the multiplier step over
    sigma; and ``eps_gap``, the normalized primal-dual gap.  Otherwise
    sigma grows, up to ``cfg.sigma_max``: by ``max(5, cfg.sigma_growth)``
    when the multiplier stalls, that is when ``eps_dinf`` stays above
    half of its value at the previous outer iteration, and by
    ``cfg.sigma_growth`` when it falls faster (and after the first
    iteration, which has no previous value).  Each ``history`` entry logs
    the ``sigma`` of its iteration and whether the multiplier ``stalled``
    there.  Returns ``(x, state, stats)``; a run hitting ``max_outer`` is
    flagged not-converged.
    """
    cfg = cfg or AlmConfig()
    t0 = time.perf_counter()
    if warm is not None:
        state = warm.copy()
        state.sigma = max(warm.sigma, cfg.sigma0)
    else:
        state = DualState.cold(spec, cfg.sigma0)
    stats = SolveStats()
    bnorm = 1.0 + np.linalg.norm(spec.b)
    # Newton steps are exact, so SNCG solves each subproblem close to the
    # rounding floor for about one more step; a target scaled by tol * ||b||
    # left xi too loose for eps_gap when ||b|| is large, and stages cycled
    sncg_tol = 1e-11 * bnorm
    eps_dinf_prev = np.inf
    for j in range(cfg.max_outer):
        eta, xi, zeta, x_new, a_stats = abcd_solve(state, spec, cfg.sncg, sncg_tol)
        x_old = state.x
        state.eta, state.xi, state.zeta, state.x = eta, xi, zeta, x_new
        s_stats = a_stats["sncg"]
        eps_pinf = s_stats["gnorm"] / bnorm
        eps_dinf = np.linalg.norm(x_new - x_old) / state.sigma
        # the primal solution is the negated multiplier under this
        # Lagrangian sign convention; gap evaluated at its box projection
        x_feas = np.clip(-x_new, -spec.box.R, spec.box.R)
        pobj = primal_objective(x_feas, spec)
        dobj = dual_objective(state, spec)
        eps_gap = abs(pobj + dobj) / (1.0 + abs(pobj)) if np.isfinite(dobj) else np.inf
        stats.outer_iters = j + 1
        stats.sncg_iters += s_stats["iters"]
        stats.sncg_fallbacks += s_stats["fallbacks"]
        stats.sncg_backtracks += s_stats["backtracks"]
        stats.sncg_stalls += s_stats["stalls"]
        stats.sncg_unmet += not s_stats["met"]
        stats.eps_pinf, stats.eps_dinf, stats.eps_gap = eps_pinf, eps_dinf, eps_gap
        stalled = bool(eps_dinf > _STALL_RATIO * eps_dinf_prev)
        eps_dinf_prev = eps_dinf
        stats.history.append(
            {
                "eps_pinf": eps_pinf,
                "eps_dinf": eps_dinf,
                "eps_gap": eps_gap,
                "sigma": state.sigma,
                "sncg_iters": s_stats["iters"],
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
