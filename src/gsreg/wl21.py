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

Groups with ``omega_i = 0`` are unpenalized, and :func:`alm_solve`
eliminates their columns exactly before the ALM runs: one thin QR of
those columns projects them out of the design and the response, the ALM
solves the projected problem, whose weights are all positive, and one
triangular solve recovers them.  A problem whose weights are all
positive stops on a certified duality gap, the gap-safe dual scaling of
Ndiaye, Fercoq, Gramfort & Salmon (JMLR 2017) applied to the residual
and, on an eliminated problem, to the ALM's own dual point.

The Newton matrix is ``I + sigma B B^T`` with ``B = A_J E``: ``A_J`` the
columns of the active groups and ``E`` a small block-structured factor of
the prox Jacobian.  When ``B`` has fewer columns than ``A`` has rows, the
Woodbury form needs only ``E^T G_JJ E``, where ``G_JJ`` is the ``J``
block of the Gram ``G = A^T A``.  A narrow instance (p <= n, such as the
working sets of the multi-stage loop) computes ``G`` once, on its first
such system, and keeps it for as long as the instance lives
(:meth:`SubproblemSpec.gram`); being p x p, it is never larger than
``A``.  A wide instance builds no Gram and forms ``B`` from a gathered
copy of ``A_J`` (:func:`newton_direction`).  Every other product is with
the instance's whole ``A``; the multi-stage loop keeps them small by
solving on the narrow ``A_W`` of a working set, gathered from ``A`` for
each solve (:meth:`SubproblemSpec.restrict`, :func:`gsreg.mscra.solve_stage`).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .groups import (BoxConstraint, GroupStructure, group_norms, group_soft_threshold,
                     prox_group_box)


@dataclass(frozen=True)
class SubproblemSpec:
    """One weighted l2,1 instance: design, response, weights, box radius.

    A narrow instance (p <= n) also keeps the Gram ``A^T A`` once
    :meth:`gram` has computed it.
    """

    A: np.ndarray
    b: np.ndarray
    g: GroupStructure
    omega: np.ndarray
    box: BoxConstraint
    _gram: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def gram(self) -> np.ndarray | None:
        """``A^T A`` of a narrow instance (p <= n), computed on the first call and kept; else None.

        Being p x p, the Gram of a narrow instance is never larger than
        ``A``; it is freed with the instance.  A wide instance never
        builds one.
        """
        if self._gram is None and self.p <= self.n:
            object.__setattr__(self, "_gram", self.A.T @ self.A)
        return self._gram

    def restrict(self, mask) -> tuple[np.ndarray, "SubproblemSpec"]:
        """The instance on the groups selected by ``mask``: ``(cols, spec)``.

        ``spec`` keeps ``b``, the box and the selected weights, and its
        design is ``A[:, cols]`` (see :meth:`GroupStructure.subset`),
        gathered from ``A``; like any instance, it computes its own Gram
        when a Newton system first needs one.  Its solution, set into
        ``x[cols]`` of a zero ``x``, solves this instance when every group
        outside ``mask`` has ``||A_i^T (Ax - b)|| <= omega_i``.
        """
        mask = np.asarray(mask, dtype=bool)
        cols, g = self.g.subset(mask)
        # "clip" keeps take from buffering (every index is valid)
        A = np.take(self.A, cols, axis=1, mode="clip")
        return cols, SubproblemSpec(A=A, b=self.b, g=g, omega=self.omega[mask], box=self.box)


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

    def restrict(self, cols) -> "DualState":
        """This state on the coordinates ``cols``, those of :meth:`SubproblemSpec.restrict`."""
        return DualState(self.eta[cols], self.xi.copy(), self.zeta[cols], self.x[cols], self.sigma)

    def lifted(self, cols, p: int) -> "DualState":
        """This state of a restricted instance back on all ``p`` coordinates, 0 off ``cols``."""
        def full(v):
            out = np.zeros(p)
            out[cols] = v
            return out

        return DualState(full(self.eta), self.xi.copy(), full(self.zeta), full(self.x), self.sigma)


@dataclass(frozen=True)
class AlmConfig:
    """Settings of :func:`alm_solve`.

    Sigma starts at 1, or on a warm solve at the largest of the warm
    sigma, 1 and ``||x||_inf / max omega`` for the warm multiplier ``x``,
    and, after each unconverged outer iteration, grows by 1.3, or by 5
    when the multiplier stalls, that is when ``eps_dinf`` kept more than
    half of its previous value; it never exceeds ``sigma_max``.
    ``max_outer`` bounds the outer iterations and ``sncg_max_iter`` the
    Newton steps of each one.  Each outer
    iteration's SNCG call stops at the rounding-floor target or at
    criterion (B), in gradient form or on the Newton decrement, or, on a
    problem whose unpenalized columns were eliminated, at a certified
    point, whichever it meets first (see :func:`alm_solve`); these are
    fixed, not settings, and ``tol`` is the one setting they read: the
    decrement exit is not taken where the ALM's ``eps_dinf`` would meet
    it, and the certified exit needs a gap of at most ``tol``.
    """

    sigma_max: float = 1e6
    tol: float = 1e-5
    max_outer: int = 200
    sncg_max_iter: int = 50

    def __post_init__(self):
        if not _SIGMA_START <= self.sigma_max < np.inf:
            raise ValueError(f"sigma_max must be finite and at least 1, got {self.sigma_max}")
        if not self.max_outer > 0:
            raise ValueError(f"max_outer must be positive, got {self.max_outer}")
        if not self.sncg_max_iter > 0:
            raise ValueError(f"sncg_max_iter must be positive, got {self.sncg_max_iter}")


@dataclass
class SolveStats:
    converged: bool = False
    # why the solve stopped: "converged", "max_outer", or "line_search" after
    # _MAX_STUCK outer iterations in a row whose line search refused its
    # first step ("" before it has run)
    stop_cause: str = ""
    outer_iters: int = 0
    sncg_iters: int = 0
    eps_pinf: float = np.inf
    eps_dinf: float = np.inf
    eps_gap: float = np.inf
    # the certified relative duality gap of the point returned at the last
    # outer iteration, None where that iteration computed none (see alm_solve)
    cert_gap: float | None = None
    wall_time: float = 0.0
    sncg_fallbacks: int = 0
    sncg_backtracks: int = 0
    sncg_stalls: int = 0
    # SNCG calls that met none of their exits (see sncg_solve): they returned
    # at max_iter, or at a stall (those are in sncg_stalls as well)
    sncg_unmet: int = 0
    # SNCG calls that returned above their gradient target at SSNAL's
    # criterion (B) on the gradient, and at the same criterion on the
    # Newton decrement
    sncg_early: int = 0
    sncg_decrement: int = 0
    # SNCG calls that returned once the point they would hand back met its
    # certified gap, on a problem whose unpenalized columns alm_solve
    # eliminated (see sncg_solve)
    sncg_certified: int = 0
    # Newton systems solved in the n x n form and in the r x r Woodbury
    # form, and the largest r = |J| + #{c_i > 0} among them (see
    # newton_direction)
    sncg_nn_systems: int = 0
    sncg_woodbury_systems: int = 0
    sncg_max_r: int = 0
    # products with A or A^T over all p columns, and, in a stage solved on a
    # working set of groups, products with its A_W (see mscra.solve_stage)
    dense_products: int = 0
    working_set_products: int = 0
    # set by the multi-stage loop (see mscra.solve_stage): the rounds of a
    # stage solved on a working set of groups (0 for a stage on all groups),
    # and the groups of the last round's working set (m on all groups)
    sieve_rounds: int = 0
    working_set_groups: int = 0
    # the columns of the unpenalized groups that alm_solve eliminated (0 where
    # it solved the problem as given), and whether it solved them in closed
    # form, there being no penalized group left
    eliminated_columns: int = 0
    closed_form: bool = False
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# elementary maps


def project_group_balls(y, g: GroupStructure, omega, nrm=None) -> np.ndarray:
    """Projection onto the product of group balls of radii ``omega``.

    ``nrm``, the group norms of ``y``, is computed when not given.
    """
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    nrm = group_norms(y, g) if nrm is None else nrm
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
    # soft threshold at R / sigma
    return np.sign(arg) * np.maximum(np.abs(arg) - spec.box.R / state.sigma, 0.0)


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


class ProxPoint(NamedTuple):
    """The prox at a point ``y``, with the pieces of it that :func:`_active_groups` reuses.

    ``s`` is :func:`prox_group_box` at ``y``, ``nrm`` the group norms of
    ``y``, and ``box`` where the box clips ``s`` (see :func:`_box_clip`).
    """

    s: np.ndarray
    nrm: np.ndarray
    box: tuple | None


def _soft_threshold(y, spec: SubproblemSpec):
    """``(nrm, u, top)``: the group norms of ``y``, its block soft threshold ``u``, and ``max |u|``.

    ``u`` has the weights omega; it is the prox of :func:`prox_group_box`
    at ``y`` for every box radius of at least ``top``.  Every line-search
    trial of :func:`sncg_solve` computes it, so the norms skip the
    dimension check of :func:`group_norms`.
    """
    nrm = np.sqrt(spec.g.segment_sum(y * y))
    u = group_soft_threshold(y, spec.g, spec.omega, nrm)
    return nrm, u, np.abs(u).max()


def _prox_point(y, spec: SubproblemSpec, R: float, soft=None) -> ProxPoint:
    """The prox at ``y`` with the weights omega and the box radius ``R``, as a :class:`ProxPoint`.

    ``soft``, the :func:`_soft_threshold` of ``y``, is computed when not
    given.  Its ``u`` is the prox unless it leaves the box; only then is
    :func:`prox_group_box` called, with ``u``.  On the small restricted
    subproblems the fixed cost of that call is about a fifth of a trial's.
    """
    nrm, u, top = _soft_threshold(y, spec) if soft is None else soft
    s = prox_group_box(y, spec.g, spec.omega, R, nrm, u) if top > R else u
    return ProxPoint(s, nrm, _box_clip(s, spec, R) if top >= R else None)


def _psi(xi, y, sigma: float, R: float, spec: SubproblemSpec, soft=None):
    """The reduced function at ``(xi, y)`` for the box radius ``R``, and the prox at ``y``.

    The prox is a :class:`ProxPoint` whose ``s`` is :func:`prox_group_box`
    at ``y`` with the weights omega and the radius ``R`` (``soft`` goes to
    :func:`_prox_point`); the gradient in xi is ``b + xi + sigma A s``.
    The function is ``||xi||^2/2 + b^T xi + sigma (||s||^2/2 + r)``: ``r``
    is 0 where nothing clips, and ``R (|y_j| - (1 + t_i) R)`` summed over
    the clipped coordinates otherwise.
    """
    prox = _prox_point(y, spec, R, soft)
    s = prox.s
    f = 0.5 * sigma * (s @ s) + 0.5 * xi @ xi + spec.b @ xi
    if prox.box is not None:
        clipped, t = prox.box
        over = np.abs(y[clipped]) - (1.0 + t[spec.g.group_id[clipped]]) * R
        f += sigma * R * over.sum()
    return f, prox


# rounding margin of _psi_floor relative to the magnitudes of its terms, far
# above the rounding error of either formula (about 1e-15 of them)
_FLOOR_MARGIN = 1e-9


def _psi_floor(xi, y, sigma: float, R: float, spec: SubproblemSpec, soft) -> float:
    """A lower bound on :func:`_psi` at ``(xi, y)``, less a rounding margin.

    ``soft`` is the :func:`_soft_threshold` of ``y``.  The sigma term of
    the reduced function is ``sigma max_{|x| <= R} [x^T y - ||x||^2/2 -
    sum_i omega_i ||x_i||]``, attained at the prox, so any point of the
    box bounds it from below.  The point taken is the clipped soft
    threshold ``clip(u, -R, R)``, at the cost of one group-norm pass.  The
    bound is lowered by ``1e-9`` times the sum of its terms' magnitudes,
    so that it stays below the value :func:`_psi` computes.  It is taken
    only where the soft threshold leaves the box: inside it the soft
    threshold is the prox, whose value is as cheap.
    """
    x = np.clip(soft[1], -R, R)
    terms = np.array([sigma * (x @ y), -0.5 * sigma * (x @ x),
                      -sigma * (spec.omega @ group_norms(x, spec.g)), 0.5 * xi @ xi, spec.b @ xi])
    return float(terms.sum() - _FLOOR_MARGIN * np.abs(terms).sum())


def phi_kj_value(xi, eta, state: DualState, spec: SubproblemSpec) -> float:
    """The reduced function of the (xi, zeta) block at fixed eta: no box, plus ``R ||eta||_1``."""
    xi = np.asarray(xi, dtype=float)
    f, _ = _psi(xi, _reduced_point(xi, eta, state, spec), state.sigma, np.inf, spec)
    return float(f + spec.box.R * np.abs(eta).sum())


def phi_kj_grad(xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Gradient ``b + xi + sigma A (y - Pi_Lambda(y))`` of :func:`phi_kj_value`."""
    xi = np.asarray(xi, dtype=float)
    _, prox = _psi(xi, _reduced_point(xi, eta, state, spec), state.sigma, np.inf, spec)
    return spec.b + xi + state.sigma * (spec.A @ prox.s)


def _active_groups(y, spec: SubproblemSpec, R: float, prox: ProxPoint | None = None):
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
    it is nonzero, the ``a`` and ``c`` of their groups, and ``curved``,
    the ranks of the groups among them with ``c_i > 0``.  ``prox``, the
    :class:`ProxPoint` at ``y``, is computed when not given.
    """
    g, omega = spec.g, spec.omega
    if prox is None:
        prox = _prox_point(y, spec, R)
    nrm = prox.nrm
    outside = nrm > omega
    active = outside | (omega == 0.0)
    # omega_i / ||y_i||; stays 0 where omega = 0
    scale = np.divide(omega, nrm, out=np.zeros(g.m), where=outside)
    a = 1.0 - scale
    c = np.divide(scale, nrm**2, out=np.zeros(g.m), where=outside)
    if prox.box is None:
        cols, starts, seg = g.segments(active)
        c = c[active]
        return cols, starts, seg, a[active], c, np.flatnonzero(c > 0.0)
    s = prox.s
    clipped, t = prox.box
    hit = g.segment_sum(clipped) > 0
    th, s2 = t[hit], s * s
    s2_free = g.segment_sum(np.where(clipped, 0.0, s2))[hit]
    a[hit] = 1.0 / (1.0 + th)
    c[hit] = th / ((1.0 + th) ** 3 * ((1.0 + th) * g.segment_sum(s2)[hit] - th * s2_free))
    free = g.segment_sum(~clipped)
    active &= free > 0
    cols, _, seg = g.segments(active)
    kept = ~clipped[cols]
    sizes = free[active].astype(np.intp)
    c = c[active]
    return cols[kept], np.cumsum(sizes) - sizes, seg[kept], a[active], c, np.flatnonzero(c > 0.0)


def _gathered_factor(y, spec: SubproblemSpec, active):
    """A factor ``B = [Z, W]`` with ``B B^T = A (I - W_y) A^T``, ``I - W_y`` the prox Jacobian at ``y``.

    ``active`` is the output of :func:`_active_groups` at ``y``.
    ``Z = A_J diag(sqrt(a))`` and, on the groups with ``c_i > 0``, the
    columns of ``W`` are ``sqrt(c_i) A_{J_i} y_i``, so that
    ``A (I - W_y) A^T = Z Z^T + W W^T``.  Both have ``n`` rows; an empty
    ``J`` gives no columns.
    """
    cols, starts, seg, a, c, curved = active
    # "clip" keeps take from buffering (every index is valid)
    Z = np.take(spec.A, cols, axis=1, mode="clip")
    if curved.size:
        # the column selection leaves W in Fortran order; the BLAS products
        # of newton_direction round differently on a C-ordered copy
        W = np.add.reduceat(Z * y[cols], starts, axis=1)[:, curved] * np.sqrt(c[curved])
    else:
        W = np.empty((spec.n, 0))
    Z *= np.sqrt(a)[seg]
    return Z, W


def gen_hessian_apply(d, xi, eta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Apply the generalized Hessian ``I + sigma A (I - W) A^T`` of :func:`phi_kj_value` to ``d``.

    It is ``d + sigma (Z (Z^T d) + W (W^T d))`` with the factor of
    :func:`_gathered_factor` that :func:`newton_direction` solves with,
    taken where the box clips nothing: an oracle for that factor.
    """
    d = np.asarray(d, dtype=float)
    y = _reduced_point(xi, eta, state, spec)
    Z, W = _gathered_factor(y, spec, _active_groups(y, spec, np.inf))
    return d + state.sigma * (Z @ (Z.T @ d) + W @ (W.T @ d))


def newton_direction(v, y, sigma: float, spec: SubproblemSpec, prox: ProxPoint | None = None,
                     stats: SolveStats | None = None):
    """Solve ``(I + sigma A (I - W) A^T) d = v`` directly, with ``W`` taken at ``y``.

    ``I - W`` is the Jacobian of the prox at ``y`` for the box radius
    ``R / sigma`` (see :func:`_active_groups`, given ``prox``, the
    :class:`ProxPoint` there, or computing it), and
    ``A (I - W) A^T = B B^T`` with ``B = A_J E``: ``A_J`` the columns of
    the active coordinates ``J`` and ``E = [diag(sqrt(a)), Y sqrt(C)]``,
    whose column for a curved group i (``c_i > 0``) holds
    ``sqrt(c_i) y_i`` on the rows of that group.  ``B`` has
    ``r = |J| + #{c_i > 0}`` columns.  If ``r >= n`` the n x n system is
    solved with ``B = [Z, W]`` of :func:`_gathered_factor`; otherwise the
    Woodbury identity ``d = v - sigma B (I_r + sigma B^T B)^{-1} B^T v``
    needs only an r x r one.  On a narrow instance (p <= n) that system
    is ``I_r + sigma E^T G_JJ E``, with ``G_JJ`` the ``J`` block of the
    Gram the instance keeps (:meth:`SubproblemSpec.gram`), and its right
    side and ``d`` take one product each with the whole (narrow) ``A``:
    ``E^T (A^T v)_J`` and ``d = v - sigma A u``, ``u`` being ``E t`` on
    ``J`` and 0 elsewhere.  A wide instance forms ``B^T B`` from the
    gathered ``Z`` and ``W`` instead.  ``stats``, when given, counts the
    system by its form and its ``r`` (``sncg_nn_systems``,
    ``sncg_woodbury_systems``, ``sncg_max_r``), and two ``dense_products``
    for one solved on the Gram.

    An empty ``J`` gives ``d = v``.  Returns ``d`` and ``r`` (0 for an
    empty ``J``).
    """
    v = np.asarray(v, dtype=float)
    active = _active_groups(y, spec, spec.box.R / sigma, prox)
    k = active[0].size
    if k == 0:
        return v.copy(), 0
    n, r = spec.n, k + active[5].size
    woodbury = r < n
    G = spec.gram() if woodbury else None
    if stats is not None:
        stats.sncg_nn_systems += not woodbury
        stats.sncg_woodbury_systems += woodbury
        stats.sncg_max_r = max(stats.sncg_max_r, r)
        stats.dense_products += 2 * (G is not None)
    if G is not None:
        return _gram_woodbury(v, y, sigma, spec, G, active), r
    Z, W = _gathered_factor(y, spec, active)
    if not woodbury:
        M = Z @ Z.T
        M += W @ W.T
        M *= sigma
        M.flat[::n + 1] += 1.0
        return np.linalg.solve(M, v), r
    K = np.empty((r, r))
    K[:k, :k] = Z.T @ Z
    K[:k, k:] = Z.T @ W
    K[k:, :k] = K[:k, k:].T
    K[k:, k:] = W.T @ W
    K *= sigma
    K.flat[::r + 1] += 1.0
    t = np.linalg.solve(K, np.concatenate((Z.T @ v, W.T @ v)))
    return v - sigma * (Z @ t[:k] + W @ t[k:]), r


def _gram_woodbury(v, y, sigma: float, spec: SubproblemSpec, G, active):
    """The Woodbury direction of :func:`newton_direction` from the Gram ``G`` of a narrow instance."""
    cols, _, seg, a, c, curved = active
    k, r = cols.size, cols.size + curved.size
    # E = [diag(sqrt(a)), Y sqrt(C)], so that B = A_J E; the rows of a curved
    # group hold sqrt(c_i) y_i in that group's column
    E = np.zeros((k, r))
    E.flat[::r + 1] = np.sqrt(a)[seg]
    rows = np.flatnonzero(c[seg] > 0.0)
    on = seg[rows]
    E[rows, k + np.searchsorted(curved, on)] = np.sqrt(c[on]) * y[cols[rows]]
    K = E.T @ (G[cols][:, cols] @ E)
    K *= sigma
    K.flat[::r + 1] += 1.0
    t = np.linalg.solve(K, E.T @ (spec.A.T @ v)[cols])
    u = np.zeros(spec.p)
    u[cols] = E @ t
    return v - sigma * (spec.A @ u)


# relative rounding error allowed for in the Armijo test of sncg_solve
_ROUNDING_SLACK = 16 * np.finfo(float).eps
# the Armijo test asks a step of length alpha to lower the reduced function
# by _ARMIJO_MU alpha |g^T d|; a refused step shrinks by _ARMIJO_SHRINK, at
# most _MAX_BACKTRACKS times before the call ends as a stall
_ARMIJO_MU = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 50


def sncg_solve(state: DualState, spec: SubproblemSpec, grad_tol: float, max_iter: int,
               stats: SolveStats, xi0=None, At_xi0=None, delta: float = 0.0, tol: float = 0.0,
               certify: bool = False):
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
    trial step needs no product with ``A^T``, and the prox of the
    accepted trial goes on to the next Newton system.  A trial whose soft
    threshold leaves the box is first held to a lower bound on its
    function value (:func:`_psi_floor`): the sigma term of the function is
    a maximum over the box, so the clipped soft threshold, a point of the
    box, bounds it from below.  When that bound, less a rounding margin,
    is above the Armijo bound, the trial is refused without its exact
    prox, sparing the box roots that prox solves (:func:`prox_group_box`).
    The refusal counts as one backtrack and halves the step, as any other
    does, so the iterates and counts are those of evaluating every trial
    exactly.

    With ``s`` the prox at the current point, ``sigma s - x`` is the
    multiplier step :func:`abcd_solve` takes from there.  The loop has
    three exits that meet a target.  Before each Newton system it tests
    two of them:

    - ``met``: the gradient target ``grad_tol``;
    - ``early``: SSNAL's criterion (B) (Li, Sun & Toh, SIAM J. Optim.
      2018, §3) on the gradient,
      ``||grad|| <= delta / sqrt(sigma) * ||sigma s - x||``.

    After the Newton system it tests the third, ``decrement``: criterion
    (B) as Rockafellar (Math. Oper. Res. 1976) states it, on the gap
    ``psi - inf psi <= delta^2 ||sigma s - x||^2 / (2 sigma)``, with the
    gap taken as that of the Newton model, ``-grad^T d / 2``.  When it
    holds, the call takes that step, with its line search, and returns,
    unless the step leaves a multiplier step of at most ``tol * sigma``.
    There :func:`alm_solve` would find its ``eps_dinf`` at most ``tol``
    and might stop and return this call's point, which the ALM's own
    test, measuring the gradient against ``1 + ||b||``, does not make
    accurate.  So the call runs on to one of the other two exits, and, up
    to rounding, no ALM solve stops on a call that ended at the
    decrement.  The gradient form bounds the gap by ``||grad||^2 / 2``,
    which overstates it by up to the condition number of the Newton
    matrix (about ``sigma ||A_J||^2``), so at a large sigma the decrement
    form ends a call steps sooner.  ``delta = 0`` turns both forms of (B)
    off.

    With ``certify``, a fourth exit, ``certified``, is tested before each
    Newton system after the other two, where ``||grad|| <= tol (1 + ||b||)``,
    so that :func:`alm_solve`'s ``eps_pinf`` would pass: the call returns
    once the point it would hand back, ``x = -sigma s``, has a certified
    gap (:func:`_relative_gap`) of at most ``tol`` against the dual point
    ``xi`` scaled into the group balls (:func:`_scaled_dual`).  That costs
    no product with ``A``: the residual ``Ax - b`` is ``xi - grad``, and
    ``A^T xi`` is ``y - x/sigma``.  Otherwise the loop ends after
    ``max_iter`` steps, or at a stall: an accepted step that lowers
    neither the function nor the gradient norm, which means ``grad_tol``
    lies below the rounding floor, or a line search that refuses every
    trial step, which leaves xi where it was.  A call that ends so is
    counted at ``met``, ``early`` or ``certified`` when its last point
    meets one of them.

    ``At_xi0``, when given, is ``A^T xi0``, so that the start costs no
    product with ``A^T``.  The gradient takes one product ``A s`` at the
    start and one at each accepted point.  Each Newton step makes one
    more, ``A^T d``, and two more when its system is solved on the Gram
    of a narrow instance (:func:`newton_direction`).  ``stats`` gets them
    all as ``dense_products``, each Newton system as :func:`newton_direction`
    counts it, this call's steps, backtracks, fallbacks and stalls, one
    ``sncg_early``, ``sncg_decrement`` or ``sncg_certified`` for the exit
    of that name, and one ``sncg_unmet`` if it met no exit.  Returns the
    final xi and this call's record; its ``met``, ``early``,
    ``decrement`` and ``certified`` say which exit ended the call, if any.
    """
    xi = np.zeros(spec.n) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    # this call's record: alm_solve reads iters, backtracks, stalls, gnorm
    # and the exits; fallbacks and the always-0 cg_iters only the benchmark
    # tracer reads (ROADMAP item 1 removes cg_iters)
    call = {"iters": 0, "backtracks": 0, "fallbacks": 0, "stalls": 0, "cg_iters": 0}
    sigma = state.sigma
    R = spec.box.R / sigma
    if At_xi0 is None:
        At_xi0 = spec.A.T @ xi
        stats.dense_products += 1
    y = At_xi0 + state.x / sigma
    f, prox = _psi(xi, y, sigma, R, spec)
    g = spec.b + xi + sigma * (spec.A @ prox.s)
    stats.dense_products += 1
    # the norms below are sqrt(v @ v), which is what np.linalg.norm computes
    # for a vector, without its checks
    gnorm = math.sqrt(g @ g)
    coef = delta / math.sqrt(sigma)
    cert_tol = tol * (1.0 + np.linalg.norm(spec.b)) if certify else -np.inf

    def certifies():
        # the point this call would hand back, x = -sigma s, whose residual
        # A x - b is xi - g, against xi, whose A^T xi is y - x/sigma
        pobj = _objective(-sigma * prox.s, xi - g, spec)
        return _relative_gap(pobj, _scaled_dual(xi, y - state.x / sigma, spec)) <= tol

    def exit_met():
        # the exit the current point meets before a Newton system, if any
        if gnorm <= grad_tol:
            return "met"
        if gnorm <= coef * step:
            return "early"
        return "certified" if gnorm <= cert_tol and certifies() else None

    def multiplier_step():
        # the multiplier step from the current point
        v = sigma * prox.s - state.x
        return math.sqrt(v @ v)

    reason = None
    step = multiplier_step()
    for _ in range(max_iter):
        reason = exit_met()
        if reason is not None:
            break
        d, _ = newton_direction(-g, y, sigma, spec, prox, stats)
        slope = g @ d
        # a non-finite entry of d makes the slope non-finite
        if not slope < 0 or not math.isfinite(slope):
            d = -g  # no descent from the Newton system; steepest descent fallback
            slope = -gnorm**2
            call["fallbacks"] += 1
        decrement = -slope <= (coef * step) ** 2  # criterion (B) on the Newton decrement
        At_d = spec.A.T @ d
        stats.dense_products += 1
        # below this, a change of f is rounding noise and cannot veto a step
        slack = _ROUNDING_SLACK * max(1.0, abs(f))
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            xi_new, y_new = xi + alpha * d, y + alpha * At_d
            bound = f + _ARMIJO_MU * alpha * slope + slack
            soft = _soft_threshold(y_new, spec)
            # refused on its floor, the trial solves no box roots; a soft
            # threshold inside the box is the prox and has no floor
            if not (soft[2] > R and _psi_floor(xi_new, y_new, sigma, R, spec, soft) > bound):
                f_new, prox_new = _psi(xi_new, y_new, sigma, R, spec, soft)
                if f_new <= bound:
                    break
            alpha *= _ARMIJO_SHRINK
            call["backtracks"] += 1
        else:
            call["stalls"] += 1
            break
        call["iters"] += 1
        g_new = spec.b + xi_new + sigma * (spec.A @ prox_new.s)
        stats.dense_products += 1
        gnorm_new = math.sqrt(g_new @ g_new)
        stalled = f_new >= f and gnorm_new >= gnorm
        xi, y, f, g, gnorm, prox = xi_new, y_new, f_new, g_new, gnorm_new, prox_new
        step = multiplier_step()
        if stalled:
            call["stalls"] += 1
            break
        # not where alm_solve's eps_dinf would pass: the solve's last call runs on
        if decrement and step > tol * sigma:
            reason = "decrement"
            break
    if reason is None:
        reason = exit_met()
    call.update({key: reason == key for key in ("met", "early", "decrement", "certified")})
    call["gnorm"] = float(gnorm)
    stats.sncg_iters += call["iters"]
    stats.sncg_backtracks += call["backtracks"]
    stats.sncg_fallbacks += call["fallbacks"]
    stats.sncg_stalls += call["stalls"]
    stats.sncg_early += call["early"]
    stats.sncg_decrement += call["decrement"]
    stats.sncg_certified += call["certified"]
    stats.sncg_unmet += reason is None
    return xi, call


def abcd_solve(state: DualState, spec: SubproblemSpec, sncg_tol: float, max_iter: int,
               stats: SolveStats, At_xi=None, delta: float = 0.0, tol: float = 0.0,
               certify: bool = False):
    """Minimize the augmented Lagrangian over (eta, xi, zeta) by one :func:`sncg_solve` call.

    SNCG finds xi in at most ``max_iter`` Newton steps, stopping at
    ``sncg_tol``, at criterion (B) with coefficient ``delta``, in
    gradient form or, where it leaves a multiplier step above
    ``tol * sigma``, on the Newton decrement, or, with ``certify``, at a
    point certified within ``tol``; with
    ``y = A^T xi + x/sigma`` and ``s`` the prox at ``y`` for the box radius
    ``R/sigma``, the minimizing zeta is the projection of ``y`` onto the
    group balls where the box clips nothing and ``omega_i s_i/||s_i||``
    where it does, and eta is ``zeta - (y - s)`` on the clipped
    coordinates and 0 elsewhere.  The new multiplier
    ``x + sigma (A^T xi + eta - zeta)`` is then
    ``sigma s = prox_{sigma p}(sigma y)``.

    ``At_xi``, when given, is ``A^T`` times the start ``state.xi`` and
    goes to SNCG as ``At_xi0``.  Besides SNCG's, the call adds one dense
    product of its own to ``stats``: the exact ``A^T xi`` of the new xi,
    from which ``y``, the blocks and the multiplier are computed; the prox
    at ``y`` and the group norms of ``y`` are computed again, once, rather
    than taken from SNCG.  Returns ``(eta, xi, zeta, x_new, out)``:
    ``out["sncg"]`` is SNCG's record, ``out["At_xi"]`` that product, for
    the next call to start from, and ``out["keep"]`` the groups where the
    prox ``s`` is nonzero.

    The name and the 5-tuple with the statistics last are those of the
    block coordinate descent this replaced: the benchmark tracer looks
    the function up by name and counts ``out["iters"]``, always 1
    here, as its sweeps.
    """
    xi, call = sncg_solve(state, spec, sncg_tol, max_iter, stats, xi0=state.xi, At_xi0=At_xi,
                          delta=delta, tol=tol, certify=certify)
    R = spec.box.R / state.sigma
    At_xi = spec.A.T @ xi
    stats.dense_products += 1
    y = At_xi + state.x / state.sigma
    s, nrm, box = _prox_point(y, spec, R)
    zeta = project_group_balls(y, spec.g, spec.omega, nrm)
    eta = np.zeros(spec.p)
    if box is not None:
        clipped, t = box
        on = (spec.g.segment_sum(clipped) > 0)[spec.g.group_id]
        zeta[on] = (t[spec.g.group_id] * s)[on]
        eta[clipped] = zeta[clipped] - (y - s)[clipped]
    x_new = state.x + state.sigma * (At_xi + eta - zeta)
    return eta, xi, zeta, x_new, {"iters": 1, "sncg": call, "At_xi": At_xi,
                                  "keep": nrm > spec.omega}


def _objective(x, r, spec: SubproblemSpec) -> float:
    """Stage objective at ``x`` inside the box, given its residual ``r = Ax - b``."""
    return float((0.5 * (r @ r) + spec.omega @ group_norms(x, spec.g)) / spec.n)


def primal_objective(x, spec: SubproblemSpec) -> float:
    """Stage objective ``(1/2n)||Ax-b||^2 + (1/n) sum omega_i ||x_Ji||``; +inf outside the box.

    Inside the box it takes one product, ``A x``.
    """
    x = np.asarray(x, dtype=float)
    if np.max(np.abs(x)) > spec.box.R:
        return np.inf
    return _objective(x, spec.A @ x - spec.b, spec)


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


# sigma starts at _SIGMA_START and grows by _SIGMA_GROWTH after each
# unconverged outer iteration, or by _STALL_GROWTH when the multiplier
# stalls: when eps_dinf keeps more than _STALL_RATIO of its last value
_SIGMA_START = 1.0
_SIGMA_GROWTH = 1.3
_STALL_RATIO = 0.5
_STALL_GROWTH = 5.0
# outer iteration k hands SNCG delta_k = _DELTA_START _DELTA_RATIO^k for
# both forms of criterion (B), a summable sequence (see sncg_solve)
_DELTA_START = 0.1
_DELTA_RATIO = 0.9
# the solve gives up after this many outer iterations in a row whose SNCG
# line search refused its first step, so that xi has not moved
_MAX_STUCK = 2


def _ball_scale(At_v, spec: SubproblemSpec) -> float:
    """``min(1, min over omega_i > 0 of omega_i / ||(A^T v)_i||)``, given ``At_v = A^T v``.

    Scaled by it, ``A^T v`` lies in the group balls of radii omega on
    every penalized group: the dual-scaling step of gap-safe screening
    (Ndiaye, Fercoq, Gramfort & Salmon, JMLR 2017).
    """
    nrm = group_norms(At_v, spec.g)
    outside = (spec.omega > 0) & (nrm > spec.omega)
    return float(np.min(spec.omega[outside] / nrm[outside])) if outside.any() else 1.0


def _scaled_dual(v, At_v, spec: SubproblemSpec) -> float:
    """The dual value at ``theta = s v``, with ``s`` the :func:`_ball_scale` of ``At_v = A^T v``.

    Where every ``omega_i`` is positive, ``theta`` lies in the group
    balls, and ``D = (-||theta||^2/2 - b^T theta)/n`` is the dual of the
    subproblem without the box, whose optimum the box can only raise: a
    lower bound on every feasible objective (:func:`primal_objective`).
    """
    theta = _ball_scale(At_v, spec) * v
    return float((-0.5 * (theta @ theta) - spec.b @ theta) / spec.n)


def _relative_gap(pobj: float, dobj: float) -> float:
    """The certified gap ``(P - D)/P`` of a point in the box whose objective is ``P``.

    ``D`` is a lower bound from :func:`_scaled_dual`, so the point is
    within ``(P - D)/P`` of the optimum relative to ``P``.  ``P = 0`` is a
    zero residual at zero penalty, optimal, and gives 0.
    """
    return (pobj - dobj) / pobj if pobj > 0 else 0.0


def alm_solve(spec: SubproblemSpec, cfg: AlmConfig | None = None,
              warm: DualState | None = None):
    """Inexact ALM on the dual; the primal solution is the negated multiplier.

    Where some groups are unpenalized (``omega_i = 0``), their columns
    ``F`` are eliminated first: with one thin QR ``A_F = Q R``, the ALM
    runs on ``A' = A_P - Q (Q^T A_P)`` and ``b' = b - Q (Q^T b)``, whose
    weights are all positive, and ``x_F = R^{-1} Q^T (b - A_P x_P)``
    minimizes over ``F`` exactly, so both problems have the same
    objective at ``x`` (:func:`_eliminated`).  Where every group is
    unpenalized the solve is the least squares in closed form, with no
    outer iteration.  A problem with no unpenalized group, or whose ``F``
    holds n columns or more, has a rank-deficient ``A_F``, or gives an
    ``x_F`` outside the box, is solved as given.

    Each outer iteration minimizes the augmented Lagrangian with one
    :func:`abcd_solve` call, which hands its exact ``A^T xi`` on to the
    next one.  Its SNCG call stops at the first of its exits: the
    gradient target ``1e-11 (1 + ||b||)``, the rounding floor, or
    criterion (B) with ``delta_k = 0.1 * 0.9^k`` at outer iteration k, in
    SSNAL's gradient form or on the Newton decrement, which end the call
    once its gradient or its Newton decrement is small against the
    multiplier step it leads to (see :func:`sncg_solve`).  The solve
    hands SNCG ``cfg.tol``, so that a call does not end at the decrement
    with a multiplier step where ``eps_dinf`` passes: the solve's last
    call runs on to another exit.  On an eliminated problem SNCG also
    ends a call once the point it would hand back is certified within
    ``cfg.tol`` from its own ``xi``.  The solve stops when the three
    residuals fall below ``cfg.tol``: ``eps_pinf``, the final gradient
    norm of that SNCG solve over ``1 + ||b||``, whichever exit ended it;
    ``eps_dinf``, the multiplier step over sigma; and ``eps_gap``, the
    normalized primal-dual gap.  ``eps_dinf`` is absolute and ``eps_gap``
    bounds no suboptimality, so where every ``omega_i`` is positive, at
    an outer iteration whose ``eps_pinf`` passes, the solve also
    certifies the point ``x`` it would return: ``P`` is its objective,
    from its residual ``r = Ax - b``, and ``D`` the dual value at ``r``
    scaled into the group balls (:func:`_scaled_dual`) or, on an
    eliminated problem, the better of that and the ALM's ``xi`` scaled
    the same way, whose ``A^T xi`` the solve holds.  The solve stops, as
    converged, when the certified gap ``(P - D)/P`` is at most
    ``cfg.tol``.  On an eliminated problem that is the only way to stop
    where the box clips nothing: there the three residuals passed at
    points the certificate put above ``cfg.tol``.  Where the box clips
    (``eta`` nonzero), neither dual point, both taken without the box,
    can certify, and the residuals stop the solve.  A problem solved as
    given takes ``r`` alone: there ``xi`` stopped some one-stage
    group-lasso solves at points that the residual recipe puts above
    ``cfg.tol``.  A problem left with an unpenalized group stops on the
    three residuals alone.  Otherwise sigma grows from its start, up to
    ``cfg.sigma_max``: by 5 when the multiplier stalls, that is when
    ``eps_dinf`` stays above half of its value at the previous outer
    iteration, and by 1.3 when it falls faster (and after the first
    iteration, which has no previous value).  Each ``history`` entry logs
    the residuals of its iteration, its ``cert_gap`` (None where it
    computed none, as ``stats.cert_gap`` is for the last one), its
    ``sigma``, whether the multiplier ``stalled`` there, and the record
    of its SNCG call: its steps and backtracks, whether it met its
    gradient target or ended at criterion (B) in gradient form, on the
    decrement or at a certificate, its final gradient norm and the
    gradient target (``sncg_iters``, ``sncg_backtracks``, ``sncg_met``,
    ``sncg_early``, ``sncg_decrement``, ``sncg_certified``,
    ``sncg_gnorm``, ``sncg_target``).  Returns ``(x, state, stats)``; a
    run hitting ``max_outer`` is flagged not-converged, and so is one that
    stops early after two outer iterations in a row whose SNCG line search
    refused every trial step of its first Newton step: xi did not move,
    and a larger sigma did not move it either.  ``stats.stop_cause`` says
    which of the three ended the run: ``"converged"``, ``"max_outer"`` or
    ``"line_search"``.  ``x`` is the box projection of ``-state.x`` set to
    exactly 0 on the groups where the last prox ``s`` is 0; the multiplier
    equals ``sigma s`` up to rounding, so it holds only rounding residue
    there.  ``stats.eliminated_columns`` counts the columns of ``F`` that
    were eliminated, and ``stats.closed_form`` flags a least-squares
    solve, which reports converged with zero residuals and gap.

    A ``warm`` state, the one an earlier solve returned, carries over the
    multiplier x, sigma and xi scaled by :func:`_ball_scale` into this
    problem's group balls; an eliminated problem first projects xi off
    ``range(Q)``, where its optimum has no component.  Sigma starts at
    the largest of the warm sigma, 1 and ``||x||_inf / max omega``,
    capped at ``cfg.sigma_max`` (:func:`_warm_sigma`): ``x / sigma`` is
    added to ``A^T xi``, whose group norms omega bounds, so below that
    ratio, as at the sigma where stage 1 of the multi-stage loop ends,
    the first outer iterations barely move a multiplier far larger than
    the weights.  When the weights shrink, as between stages of the
    multi-stage loop, the old xi lies outside the new balls, and
    unscaled it would make nearly every group active in the first Newton
    systems.  Each subproblem is strongly convex in xi, so the scaling
    changes only the path of the first SNCG call.  The returned state is
    on all p coordinates; on ``F`` its multiplier is ``-x_F``.

    ``stats`` goes down through :func:`abcd_solve` and :func:`sncg_solve`
    to :func:`newton_direction`, and each adds its counts to it where they
    happen.  So ``stats.dense_products`` counts the products with ``A``
    (with ``A'`` on an eliminated problem) and its transpose of the SNCG
    calls, the exact ``A^T xi`` and the residual ``A x`` of each outer
    iteration, the ``A^T r`` of each certified gap and, from a warm
    state, the one of :func:`_ball_scale`.  The matrix products that
    compute a Gram, the QR of ``A_F`` and ``Q^T A_P`` are not counted.
    """
    cfg = cfg or AlmConfig()
    t0 = time.perf_counter()
    solved = _eliminated(spec, cfg, warm)
    x, state, stats = solved if solved is not None else _alm(spec, cfg, warm)
    stats.wall_time = time.perf_counter() - t0
    return x, state, stats


def _eliminated(spec: SubproblemSpec, cfg: AlmConfig, warm: DualState | None):
    """:func:`alm_solve` with the unpenalized columns ``F`` eliminated, or None where it does not apply.

    It applies where ``F`` holds ``0 < k < n`` columns, the thin QR
    ``A_F = Q R`` has no diagonal entry of ``R`` at or below
    ``n * eps`` times the largest (a rank-deficient ``A_F``), and the
    ``x_F`` it recovers lies in the box.  Only then is every minimizer
    over ``F`` unique and feasible, so that the two problems share their
    optimum.  ``Q`` is n x k; no n x n factor is formed.  A solve whose
    ``x_F`` leaves the box is dropped, with its counts, for the solve as
    given.
    """
    free = spec.omega == 0.0
    cols_F, _, _ = spec.g.segments(free)
    k = cols_F.size
    if not 0 < k < spec.n:
        return None
    # "clip" keeps take from buffering (every index is valid)
    Q, R_F = np.linalg.qr(np.take(spec.A, cols_F, axis=1, mode="clip"))
    diag = np.abs(np.diag(R_F))
    if diag.min() <= spec.n * np.finfo(float).eps * diag.max():
        return None
    Qtb = Q.T @ spec.b
    b_red = spec.b - Q @ Qtb
    if free.all():
        cols_P = np.zeros(0, dtype=np.intp)
        x_P = np.zeros(0)
        x_F = np.linalg.solve(R_F, Qtb)
        # the least-squares residual A x - b is the optimal xi
        sigma = _SIGMA_START if warm is None else max(warm.sigma, _SIGMA_START)
        state = DualState(x_P, -b_red, x_P, x_P, sigma)
        stats = SolveStats(converged=True, stop_cause="converged", eps_pinf=0.0, eps_dinf=0.0,
                           eps_gap=0.0, cert_gap=0.0, closed_form=True)
    else:
        pen = ~free
        cols_P, g_P = spec.g.subset(pen)
        A_P = np.take(spec.A, cols_P, axis=1, mode="clip")
        C = Q.T @ A_P
        A_P -= Q @ C
        red = SubproblemSpec(A=A_P, b=b_red, g=g_P, omega=spec.omega[pen], box=spec.box)
        if warm is not None:
            warm = warm.restrict(cols_P)
            warm.xi -= Q @ (Q.T @ warm.xi)
        x_P, state, stats = _alm(red, cfg, warm, certify=True)
        x_F = np.linalg.solve(R_F, Qtb - C @ x_P)
    if np.max(np.abs(x_F)) > spec.box.R:
        return None
    x = np.zeros(spec.p)
    x[cols_P] = x_P
    x[cols_F] = x_F
    state = state.lifted(cols_P, spec.p)
    state.x[cols_F] = -x_F
    stats.eliminated_columns = k
    return x, state, stats


def _warm_sigma(warm: DualState, spec: SubproblemSpec, cfg: AlmConfig) -> float:
    """The sigma a warm solve starts at: ``min(max(warm.sigma, 1, ||x||_inf / max omega), sigma_max)``.

    ``x / sigma`` is added to ``A^T xi``, whose group norms omega bounds,
    so the ratio has the units of sigma.  It only raises the start.
    Where every omega is 0 the start is ``max(warm.sigma, 1)``.
    """
    sigma = max(warm.sigma, _SIGMA_START)
    top = float(np.max(spec.omega, initial=0.0))
    if top > 0:
        sigma = max(sigma, float(np.max(np.abs(warm.x), initial=0.0)) / top)
    return min(sigma, cfg.sigma_max)


def _alm(spec: SubproblemSpec, cfg: AlmConfig, warm: DualState | None, certify: bool = False):
    """The ALM loop of :func:`alm_solve` on ``spec`` as given; ``certify`` on an eliminated problem."""
    stats = SolveStats()
    if warm is not None:
        state = warm.copy()
        state.sigma = _warm_sigma(warm, spec, cfg)
        state.xi *= _ball_scale(spec.A.T @ state.xi, spec)
        stats.dense_products += 1
    else:
        state = DualState.cold(spec, _SIGMA_START)
    At_xi = None  # A^T state.xi, once an outer iteration has computed it
    bnorm = 1.0 + np.linalg.norm(spec.b)
    # SNCG's gradient target is the rounding floor: a target scaled by
    # tol * ||b|| left xi too loose for eps_gap when ||b|| is large, and
    # stages cycled.  Far from the solution criterion (B) ends a call
    # earlier, where its gradient or Newton decrement is small against the
    # multiplier step; near it that step shrinks, so the calls return to the
    # floor.  eps_pinf reads the gradient any exit leaves, so converged keeps
    # its meaning
    sncg_tol = 1e-11 * bnorm
    eps_dinf_prev = np.inf
    # a problem left with an unpenalized group stops on the residuals alone
    penalized = bool(np.all(spec.omega > 0))
    stuck = 0  # outer iterations in a row that left xi where it was
    stats.stop_cause = "max_outer"
    for j in range(cfg.max_outer):
        eta, xi, zeta, x_new, out = abcd_solve(state, spec, sncg_tol, cfg.sncg_max_iter, stats,
                                               At_xi, _DELTA_START * _DELTA_RATIO**j, cfg.tol,
                                               certify)
        x_old = state.x
        state.eta, state.xi, state.zeta, state.x = eta, xi, zeta, x_new
        At_xi, keep, call = out["At_xi"], out["keep"], out["sncg"]
        eps_pinf = call["gnorm"] / bnorm
        eps_dinf = np.linalg.norm(x_new - x_old) / state.sigma
        # the point this solve would return here: the negated multiplier (the
        # primal solution under this Lagrangian sign convention) projected
        # onto the box, 0 off the groups where the prox is 0
        x = np.clip(-x_new, -spec.box.R, spec.box.R)
        x[~keep[spec.g.group_id]] = 0.0
        r = spec.A @ x - spec.b
        stats.dense_products += 1
        pobj = _objective(x, r, spec)
        dobj = dual_objective(state, spec)
        eps_gap = abs(pobj + dobj) / (1.0 + abs(pobj)) if np.isfinite(dobj) else np.inf
        converged = max(eps_pinf, eps_dinf, eps_gap) <= cfg.tol
        cert_gap = None
        if penalized and eps_pinf <= cfg.tol:
            lower = _scaled_dual(r, spec.A.T @ r, spec)
            stats.dense_products += 1
            if certify:
                lower = max(lower, _scaled_dual(xi, At_xi, spec))
                # the residual test stops an eliminated problem only where the
                # box clips, which neither dual point, both without it, certifies
                converged = converged and bool(np.any(eta))
            cert_gap = _relative_gap(pobj, lower)
            converged = converged or cert_gap <= cfg.tol
        stats.outer_iters = j + 1
        stats.eps_pinf, stats.eps_dinf, stats.eps_gap = eps_pinf, eps_dinf, eps_gap
        stats.cert_gap = cert_gap
        stalled = bool(eps_dinf > _STALL_RATIO * eps_dinf_prev)
        eps_dinf_prev = eps_dinf
        stats.history.append({
            "eps_pinf": eps_pinf, "eps_dinf": eps_dinf, "eps_gap": eps_gap, "cert_gap": cert_gap,
            "sigma": state.sigma,
            "sncg_iters": call["iters"], "sncg_backtracks": call["backtracks"],
            "sncg_met": call["met"], "sncg_early": call["early"],
            "sncg_decrement": call["decrement"], "sncg_certified": call["certified"],
            "sncg_gnorm": call["gnorm"], "sncg_target": sncg_tol,
            "stalled": stalled})
        if converged:
            stats.converged = True
            stats.stop_cause = "converged"
            break
        # a stall without an accepted step is a line search that refused the first one
        stuck = stuck + 1 if call["stalls"] and not call["iters"] else 0
        if stuck == _MAX_STUCK:
            stats.stop_cause = "line_search"
            break
        growth = _STALL_GROWTH if stalled else _SIGMA_GROWTH
        state.sigma = min(growth * state.sigma, cfg.sigma_max)
    return x, state, stats
