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
eliminates their columns exactly before the ALM runs: one QR of those
columns takes them out of the design and the response, the ALM solves
the problem left, whose weights are all positive, and one triangular
solve recovers them.  Where that problem is wide, it keeps only the
n - k rows orthogonal to the k eliminated columns; where it is narrow,
it keeps all n rows, projected off them (:func:`_eliminated`).  Where
every group is unpenalized there is nothing to project: the solve is
the least squares in closed form from the Gram (:func:`_least_squares`),
whose products with ``A`` are not counted.  A problem whose weights are all positive stops on a
certified duality gap, the gap-safe dual scaling of Ndiaye, Fercoq,
Gramfort & Salmon (JMLR 2017) applied to the residual and, on an
eliminated problem, to the ALM's own dual point.

A narrow problem (p <= n) whose weights are all positive, as the
working sets of the multi-stage loop are once their unpenalized columns
are eliminated, is first solved in the primal: an active-set Newton
method on the groups it keeps nonzero, with the Hessian read from the
kept Gram (:func:`_primal_newton`).  Its point is taken only where it
lies in the box and its certified gap meets the tolerance; otherwise the
ALM runs from the same warm state, as if it had not been tried.

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

On the hot paths (the group segments, the Newton systems, the line
search, the ALM iteration and the stage loop) the code calls ufuncs and
ndarray methods, such as ``mask.nonzero()[0]``, ``np.maximum.reduce``
and ``np.minimum(np.maximum(v, -R), R)``, not numpy's Python wrappers
``np.flatnonzero``, ``ndarray.max`` and ``np.clip``, which give the same
bits at a fixed cost of a microsecond or so per call.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
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
        # a NaN weight fails the test, as a negative one does
        if not np.logical_and.reduce(omega >= 0):
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
        builds one.  The Woodbury Newton systems read it, and so does the
        closed-form least squares (:func:`_least_squares`); neither counts
        the products that compute it.
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
        A = self.A.take(cols, axis=1, mode="clip")
        return cols, SubproblemSpec(A=A, b=self.b, g=g, omega=self.omega[mask], box=self.box)


@dataclass
class DualState:
    """ALM iterate: the dual point xi, the multiplier x and the penalty sigma.

    The other dual blocks, eta and zeta, are minimized out in closed form
    from these at each outer iteration (:func:`abcd_solve`), so they are
    not state.  A solve never changes the arrays of a state it is given,
    so states may share them.
    """

    xi: np.ndarray
    x: np.ndarray
    sigma: float

    @classmethod
    def cold(cls, spec: SubproblemSpec, sigma: float) -> "DualState":
        return cls(xi=np.zeros(spec.n), x=np.zeros(spec.p), sigma=float(sigma))

    def restrict(self, cols) -> "DualState":
        """This state on the coordinates ``cols``, those of :meth:`SubproblemSpec.restrict`."""
        return replace(self, x=self.x[cols])

    def lifted(self, cols, p: int) -> "DualState":
        """This state of a restricted instance back on all ``p`` coordinates, 0 off ``cols``."""
        x = np.zeros(p)
        x[cols] = self.x
        return replace(self, x=x)


@dataclass(frozen=True)
class AlmConfig:
    """The one setting of :func:`alm_solve`: its tolerance ``tol``.

    Sigma starts at 1, or on a warm solve at the largest of the warm
    sigma, 1 and ``||x||_inf / max omega`` for the warm multiplier ``x``,
    and, after each unconverged outer iteration, grows by 1.3, or by 5
    when the multiplier stalls, that is when ``eps_dinf`` kept more than
    half of its previous value; it never exceeds ``_SIGMA_MAX``.
    ``_MAX_OUTER`` bounds the outer iterations and ``_SNCG_MAX_ITER`` the
    Newton steps of each one.  Each outer
    iteration's SNCG call stops at the rounding-floor target or at
    criterion (B), in gradient form or on the Newton decrement, or, on a
    problem whose unpenalized columns were eliminated, at a certified
    point, whichever it meets first (see :func:`alm_solve`); these are
    fixed, not settings, and ``tol`` is the one setting they read: the
    decrement exit is not taken where the ALM's ``eps_dinf`` would meet
    it, and the certified exit needs a gap of at most ``tol``.
    """

    tol: float = 1e-5

    def __post_init__(self):
        # a NaN tol fails the test, as a negative or infinite one does
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")


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
    # accepted steps and Armijo halvings of the primal Newton that alm_solve
    # tries first on a narrow problem whose weights are all positive, counted
    # also where it falls back to the ALM (see _primal_newton)
    primal_steps: int = 0
    primal_backtracks: int = 0
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
    scale = np.divide(omega, nrm, out=np.ones(g.m), where=nrm > omega)
    return y * scale[g.group_id]


# ---------------------------------------------------------------------------
# augmented Lagrangian pieces; eta_update and lagrangian_value have no
# caller in the solver, the benchmark tracer still looks them up by name


def eta_update(xi, zeta, state: DualState, spec: SubproblemSpec) -> np.ndarray:
    """Closed-form minimizer of L_sigma over eta with (xi, zeta) fixed; ``state`` gives x and sigma."""
    if not state.sigma > 0:
        raise ValueError("sigma must be positive")
    arg = zeta - spec.A.T @ xi - state.x / state.sigma
    # soft threshold at R / sigma
    return np.sign(arg) * np.maximum(np.abs(arg) - spec.box.R / state.sigma, 0.0)


def lagrangian_value(xi, eta, zeta, state: DualState, spec: SubproblemSpec) -> float:
    """Augmented Lagrangian L_sigma(eta, xi, zeta; x), zeta assumed feasible; ``state`` gives x and sigma."""
    r = spec.A.T @ xi + eta - zeta
    return float(
        0.5 * xi @ xi
        + spec.b @ xi
        + spec.box.R * np.abs(eta).sum()
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
    if not np.logical_or.reduce(clipped):
        return None
    nrm = group_norms(s, spec.g)
    return clipped, np.divide(spec.omega, nrm, out=np.zeros(spec.g.m), where=nrm > 0)


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
    return nrm, u, np.maximum.reduce(np.abs(u))


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
        f += sigma * R * np.add.reduce(over)
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
    x = np.minimum(np.maximum(soft[1], -R), R)
    terms = np.array([sigma * (x @ y), -0.5 * sigma * (x @ x),
                      -sigma * (spec.omega @ group_norms(x, spec.g)), 0.5 * xi @ xi, spec.b @ xi])
    return float(np.add.reduce(terms) - _FLOOR_MARGIN * np.add.reduce(np.abs(terms)))


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
        return cols, starts, seg, a[active], c, (c > 0.0).nonzero()[0]
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
    return cols[kept], sizes.cumsum() - sizes, seg[kept], a[active], c, (c > 0.0).nonzero()[0]


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
    Z = spec.A.take(cols, axis=1, mode="clip")
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
        # M, K and E below are fresh C-ordered arrays, so ravel() is a view
        # and steps of n + 1 walk the diagonal
        M.ravel()[::n + 1] += 1.0
        return np.linalg.solve(M, v), r
    K = np.empty((r, r))
    K[:k, :k] = Z.T @ Z
    K[:k, k:] = Z.T @ W
    K[k:, :k] = K[:k, k:].T
    K[k:, k:] = W.T @ W
    K *= sigma
    K.ravel()[::r + 1] += 1.0
    t = np.linalg.solve(K, np.concatenate((Z.T @ v, W.T @ v)))
    return v - sigma * (Z @ t[:k] + W @ t[k:]), r


def _gram_woodbury(v, y, sigma: float, spec: SubproblemSpec, G, active):
    """The Woodbury direction of :func:`newton_direction` from the Gram ``G`` of a narrow instance."""
    cols, _, seg, a, c, curved = active
    k, r = cols.size, cols.size + curved.size
    # E = [diag(sqrt(a)), Y sqrt(C)], so that B = A_J E; the rows of a curved
    # group hold sqrt(c_i) y_i in that group's column
    E = np.zeros((k, r))
    E.ravel()[::r + 1] = np.sqrt(a)[seg]
    rows = (c[seg] > 0.0).nonzero()[0]
    on = seg[rows]
    E[rows, k + curved.searchsorted(on)] = np.sqrt(c[on]) * y[cols[rows]]
    K = E.T @ (G[cols][:, cols] @ E)
    K *= sigma
    K.ravel()[::r + 1] += 1.0
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
    conjugate of ``p`` at ``y = A^T xi + x/sigma`` (:func:`_psi`).  Its
    gradient is ``b + xi + sigma A s``, ``s`` the prox at ``y`` for the box
    radius ``R/sigma``, and ``sigma s - x`` is the multiplier step
    :func:`abcd_solve` takes from there.  Each Newton direction solves the
    generalized Hessian system exactly (:func:`newton_direction`), with
    steepest descent where it gives no descent (a fallback); steps take an
    Armijo line search that allows for the rounding of the values it
    compares, and a trial refused on the lower bound :func:`_psi_floor`
    counts as a backtrack, as an exact refusal would.

    Exits, tested before each Newton system in this order:

    - ``met``: ``||grad|| <= grad_tol``;
    - ``early``: SSNAL's criterion (B) on the gradient,
      ``||grad|| <= delta / sqrt(sigma) * ||sigma s - x||``;
    - ``certified`` (with ``certify`` only): ``||grad|| <= tol (1 + ||b||)``
      and the point ``x = -sigma s`` has a certified gap
      (:func:`_relative_gap`) of at most ``tol`` against ``xi`` scaled into
      the group balls (:func:`_scaled_dual`), at no product with ``A``.

    After a Newton system, ``decrement``: criterion (B) on the Newton
    decrement, ``-grad^T d <= (delta / sqrt(sigma) * ||sigma s - x||)^2``;
    the call takes that step and returns, unless the step leaves a
    multiplier step of at most ``tol * sigma``, where :func:`alm_solve`
    could stop on this point.  ``delta = 0`` turns both forms of (B) off.
    Otherwise the call ends after ``max_iter`` steps, or at a stall: an
    accepted step that lowers neither the function nor the gradient norm,
    or a line search that refuses every trial.  A call that ends so is
    counted at ``met``, ``early`` or ``certified`` when its last point
    meets one of them.

    ``At_xi0``, when given, is ``A^T xi0`` and spares that product.
    ``stats`` gets every product with ``A`` as ``dense_products`` (``A s``
    at the start and at each accepted point, ``A^T d`` per step, and those
    of :func:`newton_direction`), this call's steps, backtracks, fallbacks
    and stalls, one ``sncg_early``, ``sncg_decrement`` or ``sncg_certified``
    for its exit, and one ``sncg_unmet`` if it met none.  Returns the final
    xi and this call's record, whose ``met``, ``early``, ``decrement`` and
    ``certified`` say which exit ended it.
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
    cert_tol = tol * (1.0 + math.sqrt(spec.b @ spec.b)) if certify else -np.inf

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
            # the first trial takes the whole step, with no product by alpha = 1
            xi_new, y_new = ((xi + d, y + At_d) if alpha == 1.0
                             else (xi + alpha * d, y + alpha * At_d))
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


def _dual_value(xi, eta, spec: SubproblemSpec) -> float:
    """Dual objective at ``(xi, eta)`` with the same 1/n scaling as :func:`primal_objective`.

    ``zeta``, the third block, is in the group balls wherever
    :func:`abcd_solve` computes it.  At a primal-dual optimum the scaled
    primal and dual objectives sum to zero.
    """
    return float((0.5 * xi @ xi + spec.b @ xi + spec.box.R * np.add.reduce(np.abs(eta))) / spec.n)


# sigma starts at _SIGMA_START and grows by _SIGMA_GROWTH after each
# unconverged outer iteration, or by _STALL_GROWTH when the multiplier
# stalls: when eps_dinf keeps more than _STALL_RATIO of its last value
_SIGMA_START = 1.0
_SIGMA_GROWTH = 1.3
_STALL_RATIO = 0.5
_STALL_GROWTH = 5.0
# sigma never exceeds _SIGMA_MAX; a solve stops after _MAX_OUTER outer
# iterations, and each SNCG call after _SNCG_MAX_ITER Newton steps
_SIGMA_MAX = 1e6
_MAX_OUTER = 200
_SNCG_MAX_ITER = 50
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
    if not np.logical_or.reduce(outside):
        return 1.0
    return float(np.minimum.reduce(spec.omega[outside] / nrm[outside]))


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

    Where some groups are unpenalized (``omega_i = 0``), their k columns
    ``F`` are eliminated first, and the ALM runs on the penalized columns
    ``P``, whose weights are all positive (:func:`_eliminated`).  Where
    p > n, one complete QR ``A_F = [Q U] [R; 0]`` reduces the problem to
    the n - k rows of ``U^T A_P`` and ``U^T b``; where p <= n, the thin QR
    ``A_F = Q R`` projects it to ``A' = A_P - Q (Q^T A_P)`` and
    ``b' = b - Q (Q^T b)`` on all n rows.  ``x_F = R^{-1} (Q^T b - Q^T A_P
    x_P)`` minimizes over ``F`` exactly, so both problems have the same
    objective at ``x`` but for its scale: a reduced instance divides it
    by its own n - k rows, so the relative gaps (``cert_gap``) are those
    of the problem as given and the ``eps_gap`` of ``history`` is on the
    reduced scale.  Where every group is unpenalized, and so p < n, the
    solve is the least squares in closed form, with no outer iteration
    (:func:`_least_squares`).  A problem
    with no unpenalized group, or whose ``F`` holds n columns or more, has
    a rank-deficient ``A_F``, or gives an ``x_F`` outside the box, is
    solved as given.  A narrow problem (p <= n, after the elimination)
    whose weights are all positive is first solved in the primal
    (:func:`_primal_newton`), whose point is returned only where it lies
    in the box with a certified gap of at most ``cfg.tol``; otherwise the
    ALM below runs from the same warm state.

    Each outer iteration k minimizes the augmented Lagrangian with one
    :func:`abcd_solve` call, whose SNCG call takes at most
    ``_SNCG_MAX_ITER`` Newton steps toward the gradient target
    ``1e-11 (1 + ||b||)`` and may end sooner at criterion (B) with
    ``delta_k = 0.1 * 0.9^k`` or, on an eliminated problem, at a point
    certified within ``cfg.tol`` (see :func:`sncg_solve`, which is handed
    ``cfg.tol``).  Three residuals are computed: ``eps_pinf``, the final
    gradient norm of that call over ``1 + ||b||``; ``eps_dinf``, the
    multiplier step over sigma; and ``eps_gap``, the normalized
    primal-dual gap ``|P + D| / (1 + |P|)``.  Where every ``omega_i`` is
    positive and ``eps_pinf <= cfg.tol``, the point ``x`` the solve would
    return is also certified: ``P`` is its objective and ``D`` the dual
    value at its residual ``r = Ax - b`` scaled into the group balls
    (:func:`_scaled_dual`), or, on an eliminated problem, the better of
    that and the ALM's ``xi`` scaled the same way.  The solve stops, as
    converged, when the certified gap ``(P - D)/P`` is at most
    ``cfg.tol``, or when all three residuals are at most it, which on an
    eliminated problem counts only where the box clips (``eta`` nonzero):
    there neither dual point, both taken without the box, can certify.
    A problem left with an unpenalized group stops on the three residuals
    alone.
    Otherwise sigma grows, up to ``_SIGMA_MAX``: by 5 when the multiplier
    stalls, that is when ``eps_dinf`` stays above half of its value at the
    previous outer iteration, and by 1.3 otherwise.

    Each ``history`` entry logs the residuals of its iteration, its
    ``cert_gap`` (None where it computed none, as ``stats.cert_gap`` is
    for the last one), its ``sigma``, whether the multiplier ``stalled``
    there, and its SNCG call's record (``sncg_iters``,
    ``sncg_backtracks``, ``sncg_met``, ``sncg_early``,
    ``sncg_decrement``, ``sncg_certified``, ``sncg_gnorm``,
    ``sncg_target``).  Returns ``(x, state, stats)``.
    ``stats.stop_cause`` is ``"converged"``, ``"max_outer"`` after
    ``_MAX_OUTER`` outer iterations, or ``"line_search"`` after two outer
    iterations in a row whose line search refused every trial step of its
    first Newton step; the last two are not converged.  ``x`` is the box
    projection of ``-state.x`` set to exactly 0 on the groups where the
    last prox ``s`` is 0, where the multiplier ``sigma s`` holds only
    rounding residue.  ``stats.eliminated_columns`` counts the columns of
    ``F`` that were eliminated, and ``stats.closed_form`` flags a
    least-squares solve, which reports converged with zero residuals and
    gap.

    A ``warm`` state, the one an earlier solve returned, carries over the
    multiplier x, sigma and xi scaled by :func:`_ball_scale` into this
    problem's group balls; an eliminated problem first takes xi to
    ``U^T xi`` on its n - k rows, or, where p <= n, projects it off
    ``range(Q)``.  Sigma starts at the largest of the warm sigma, 1 and
    ``||x||_inf / max omega``, capped at ``_SIGMA_MAX``
    (:func:`_warm_sigma`).  The returned state is on all p coordinates
    and n rows, a reduced ``xi`` lifted back as ``U xi``; on ``F`` its
    multiplier is ``-x_F``.

    ``stats`` goes down through :func:`abcd_solve` and :func:`sncg_solve`
    to :func:`newton_direction`, and each adds its counts to it.  So
    ``stats.dense_products`` counts the products with ``A`` (the reduced
    design on an eliminated problem) and its transpose of the SNCG calls,
    the exact ``A^T xi`` and the residual ``A x`` of each outer iteration,
    the ``A^T r`` of each certified gap and, from a warm state, the one of
    :func:`_ball_scale`, and those of the primal attempt.  The products
    that compute a Gram, the QR of ``A_F``, ``Q^T A_P`` and ``U^T A_P``
    are not counted, nor are those of the closed-form least squares.
    """
    cfg = cfg or AlmConfig()
    t0 = time.perf_counter()
    solved = _eliminated(spec, cfg.tol, warm)
    x, state, stats = solved if solved is not None else _alm(spec, cfg.tol, warm)
    stats.wall_time = time.perf_counter() - t0
    return x, state, stats


def _eliminated(spec: SubproblemSpec, tol: float, warm: DualState | None):
    """:func:`alm_solve` with the unpenalized columns ``F`` eliminated, or None where it does not apply.

    It applies where ``F`` holds ``0 < k < n`` columns and the ``x_F`` it
    recovers lies in the box.  Where every group is unpenalized that is
    the least squares in closed form (:func:`_least_squares`).  Otherwise
    it also needs the QR ``A_F = Q R`` to be of full rank
    (:func:`_full_rank_qr`).  Only then is every minimizer over ``F``
    unique and feasible, so that the two problems share their optimum.
    A solve whose ``x_F`` leaves the box is dropped, with its counts, for
    the solve as given.

    Where p > n, the problem left is wide, and the ALM solves it: the QR
    is complete, ``A_F = [Q U] [R; 0]``, and the ALM runs on the ordinary
    instance ``(U^T A_P, U^T b)`` of n - k rows, with a warm ``xi`` taken
    to ``U^T xi`` and the ``xi`` it returns lifted to ``U xi``.  Its
    columns span only n - k dimensions, so on all n rows every Newton
    system and product would pay for k rows of rounding, along which
    ``xi`` drifts at a large sigma.  Where p <= n, the problem left is
    narrow, and the primal Newton of :func:`_alm`, which reads only its
    Gram, may solve it: there the thin QR, ``Q`` n x k, projects it to
    ``A' = A_P - Q (Q^T A_P)`` and ``b' = b - Q (Q^T b)`` on all n rows,
    and a warm ``xi`` is projected off ``range(Q)``; no n x n factor is
    formed, which at n = 512 would cost more than the solve it prepares.
    Either way ``x_F = R^{-1} (Q^T b - C x_P)`` with ``C = Q^T A_P``.
    """
    free = spec.omega == 0.0
    cols_F, _, _ = spec.g.segments(free)
    k = cols_F.size
    if not 0 < k < spec.n:
        return None
    if k == spec.p:
        return _least_squares(spec, warm)
    wide = spec.p > spec.n
    # "clip" keeps take from buffering (every index is valid)
    qr = _full_rank_qr(spec.A.take(cols_F, axis=1, mode="clip"), complete=wide)
    if qr is None:
        return None
    Q, R_F = qr
    cols_P, red = spec.restrict(~free)
    A_P = red.A
    QtA, Qtb = Q.T @ A_P, Q.T @ spec.b
    C = QtA[:k]
    if wide:
        U = Q[:, k:]  # the complement of range(A_F)
        red = replace(red, A=QtA[k:], b=Qtb[k:])
        if warm is not None:
            warm = replace(warm.restrict(cols_P), xi=U.T @ warm.xi)
    else:
        A_P -= Q @ C  # in place: red's design becomes A'
        red = replace(red, b=spec.b - Q @ Qtb)
        if warm is not None:
            warm = replace(warm.restrict(cols_P), xi=warm.xi - Q @ (Q.T @ warm.xi))
    x_P, state, stats = _alm(red, tol, warm, certify=True)
    x_F = np.linalg.solve(R_F, Qtb[:k] - C @ x_P)
    if np.maximum.reduce(np.abs(x_F)) > spec.box.R:
        return None
    if wide:
        state.xi = U @ state.xi
    x = np.zeros(spec.p)
    x[cols_P] = x_P
    x[cols_F] = x_F
    state = state.lifted(cols_P, spec.p)
    state.x[cols_F] = -x_F
    stats.eliminated_columns = k
    return x, state, stats


def _full_rank_qr(A_F: np.ndarray, complete: bool = False):
    """The thin QR ``A_F = Q R``, or None where ``A_F`` is rank-deficient.

    ``complete`` returns the n x n ``Q`` of the complete QR instead, whose
    first k columns are the thin one's; ``R`` is k x k either way.
    Rank-deficient means a diagonal entry of ``R`` at or below ``n * eps``
    times the largest.
    """
    Q, R = np.linalg.qr(A_F, mode="complete" if complete else "reduced")
    diag = np.abs(R.diagonal())
    if np.minimum.reduce(diag) <= A_F.shape[0] * np.finfo(float).eps * np.maximum.reduce(diag):
        return None
    return Q, R[:A_F.shape[1]]


# the refinement step of _least_squares settles when the error it leaves in
# x is estimated at most this fraction of ||x||
_LSQ_SETTLED = 1e-10


def _least_squares(spec: SubproblemSpec, warm: DualState | None):
    """:func:`alm_solve` where every group is unpenalized and p < n: the least squares in closed form.

    From the instance's Gram ``G`` (:meth:`SubproblemSpec.gram`),
    ``x = G^{-1} A^T b`` takes one step of iterative refinement on its
    true residual, ``x -= G^{-1} A^T (A x - b)``.  Relative to ``||x||``,
    the error that step leaves is about the square of its own relative
    size ``t``, the part it did not contract, or about
    ``t ||A x - b|| / ||b||``, the rounding of ``A^T (A x - b)`` that
    ``G^{-1}`` carries as it carried that of ``A^T b`` into the step,
    whichever is larger.  The step has settled when that estimate is at
    most ``_LSQ_SETTLED``; on ``U diag(s) V^T`` test designs with
    log-spaced singular values that holds up to a condition number of
    ``A`` of about 1e3 where the residual is as large as ``b`` and about
    1e5 where it is 0, and there ``x`` is within 1e-9 of
    ``np.linalg.lstsq``.  Where the step has not settled, or ``G`` is
    singular, ``x = R^{-1} Q^T b`` comes from the thin QR of ``A``
    instead; on the same designs it agrees with ``np.linalg.lstsq`` to 10
    eps times the condition number, or 1e-9, whichever is larger, up to
    1e10.  Returns None, for the solve as given, where ``A`` fails the
    rank test of :func:`_full_rank_qr` or where ``x`` leaves the box.
    The optimal dual point is the residual ``A x - b`` and the multiplier
    is ``-x``.  Neither path counts its products with ``A``.
    """
    A, b = spec.A, spec.b
    G = spec.gram()
    try:
        x = np.linalg.solve(G, A.T @ b)
        step = np.linalg.solve(G, A.T @ (A @ x - b))
    except np.linalg.LinAlgError:  # G exactly singular
        settled = False
    else:
        x -= step
        # t * max(t, ||xi|| / ||b||) <= _LSQ_SETTLED with t = ||step|| / ||x||,
        # multiplied out so that a zero b (and so a zero x) passes; a NaN fails
        xi = A @ x - b
        ns, nx, nb = (math.sqrt(v @ v) for v in (step, x, b))
        settled = ns * max(ns * nb, math.sqrt(xi @ xi) * nx) <= _LSQ_SETTLED * nx * nx * nb
    if not settled:
        qr = _full_rank_qr(A)
        if qr is None:
            return None
        Q, R = qr
        x = np.linalg.solve(R, Q.T @ b)
        xi = A @ x - b
    if np.maximum.reduce(np.abs(x)) > spec.box.R:
        return None
    sigma = _SIGMA_START if warm is None else max(warm.sigma, _SIGMA_START)
    state = DualState(xi, -x, sigma)
    stats = SolveStats(converged=True, stop_cause="converged", eps_pinf=0.0, eps_dinf=0.0,
                       eps_gap=0.0, cert_gap=0.0, eliminated_columns=spec.p, closed_form=True)
    return x, state, stats


def _warm_sigma(warm: DualState, spec: SubproblemSpec) -> float:
    """The sigma a warm solve starts at: ``min(max(warm.sigma, 1, ||x||_inf / max omega), _SIGMA_MAX)``.

    ``x / sigma`` is added to ``A^T xi``, whose group norms omega bounds,
    so the ratio has the units of sigma.  It only raises the start.
    Where every omega is 0 the start is ``max(warm.sigma, 1)``.
    """
    sigma = max(warm.sigma, _SIGMA_START)
    top = float(np.maximum.reduce(spec.omega, initial=0.0))
    if top > 0:
        sigma = max(sigma, float(np.maximum.reduce(np.abs(warm.x), initial=0.0)) / top)
    return min(sigma, _SIGMA_MAX)


# the primal Newton of _primal_newton takes at most _PRIMAL_MAX_ITER steps;
# it is at its rounding floor where a full step on an unchanged set left a
# Newton decrement within the rounding of F above _PRIMAL_STALL times its
# value before
_PRIMAL_MAX_ITER = 30
_PRIMAL_STALL = 0.5


def _primal_newton(spec: SubproblemSpec, tol: float, warm: DualState | None, stats: SolveStats):
    """:func:`alm_solve` by a Newton method in the primal, or None for the ALM.

    ``spec`` is narrow (p <= n) with every weight positive.  With its Gram
    ``G`` (:meth:`SubproblemSpec.gram`) and ``c = A^T b``, the objective is,
    up to a constant and the factor 1/n, ``F(x) = x^T G x / 2 - c^T x +
    sum_i omega_i ||x_i||``, the box left out.  The start is the warm
    multiplier's ``-x``, or, cold, the least squares on the groups with
    ``||c_i|| > omega_i``, those that break the KKT conditions at 0.  Each
    iteration, with ``q = c - G x``:

    - drops every kept group (``x_i != 0``) with
      ``||q_i + G_ii x_i|| <= omega_i``, where 0 minimizes ``F`` over it
      with the rest fixed;
    - adds every other group with ``||q_i|| > omega_i``, moving them
      together along the block soft threshold of ``q`` on them to the
      minimum of ``F`` on that line;
    - solves ``H d = -grad F`` on the kept groups ``K``, with
      ``H = G_KK + blockdiag(omega_i/||x_i|| (I - u_i u_i^T))`` and
      ``u_i = x_i/||x_i||``, and steps along ``d`` under the Armijo rule of
      :func:`sncg_solve`; a trial stops at 0 each group it would turn back
      through 0.

    The loop ends at the rounding floor, where the set is unchanged and
    the step's length in the norm of ``H``, ``sqrt(-grad^T d)``, is at
    most ``_ROUNDING_SLACK`` times the square root of ``n`` times the stage
    objective, or the last full step left the decrement ``-grad^T d``
    above ``_PRIMAL_STALL`` times its value before and within the rounding
    slack of ``F``; or where the line search or the descent test fails, or
    after ``_PRIMAL_MAX_ITER`` steps.

    Its point is returned only where it is finite, lies in the box and has
    a certified gap (:func:`_relative_gap`) of at most ``tol`` against the
    residual ``r = Ax - b`` scaled into the group balls (:func:`_scaled_dual`),
    with the state ``(r, -x, sigma)`` of :func:`_least_squares`; a system
    ``np.linalg.solve`` finds singular gives None.  ``stats`` gets the
    steps and halvings as ``primal_steps`` and ``primal_backtracks``, and
    the products ``A^T b``, ``Ax - b`` and ``A^T r`` as
    ``dense_products``, whether or not the point is returned; a returned
    point reports ``eps_pinf`` and ``eps_dinf`` 0, since ``xi = r`` exactly.
    """
    A, b, g, omega = spec.A, spec.b, spec.g, spec.omega
    G = spec.gram()
    c = A.T @ b
    stats.dense_products += 1
    gid = g.group_id
    # the diagonal blocks G_ii of the Gram, 0 off them
    G_blocks = np.where(gid[:, None] == gid, G, 0.0)
    bb = b @ b
    # a non-finite value anywhere fails the certificate below
    with np.errstate(all="ignore"):
        try:
            if warm is not None:
                x = -warm.x
            else:
                cols, _, _ = g.segments(np.sqrt(g.segment_sum(c * c)) > omega)
                x = np.zeros(spec.p)
                x[cols] = np.linalg.solve(G[cols][:, cols], c[cols])
            last = np.inf
            for _ in range(_PRIMAL_MAX_ITER):
                q = c - G @ x
                kept = g.segment_sum(x * x) > 0
                v = q + G_blocks @ x
                drop = kept & (np.sqrt(g.segment_sum(v * v)) <= omega)
                x[(drop | ~kept)[gid]] = 0.0
                kept &= ~drop
                if np.logical_or.reduce(drop):
                    q = c - G @ x
                qn = np.sqrt(g.segment_sum(q * q))
                add = ~kept & (qn > omega)
                if np.logical_or.reduce(add):
                    # the block soft threshold s of q on the added groups: F
                    # falls along it at the rate sum_i (||q_i|| - omega_i)^2
                    # with the curvature s^T G s
                    s = q * np.where(add, 1.0 - omega / qn, 0.0)[gid]
                    Gs = G @ s
                    t = float(np.add.reduce((qn - omega)[add] ** 2)) / (s @ Gs)
                    x += t * s
                    q -= t * Gs
                    kept |= add
                changed = np.logical_or.reduce(drop | add)
                cols, starts, seg = g.segments(kept)
                if not cols.size:
                    break
                xk, qk, wk = x[cols], q[cols], omega[kept]
                nk = np.sqrt(np.add.reduceat(xk * xk, starts))
                scale = (wk / nk)[seg]
                u = xk / nk[seg]
                grad = scale * xk - qk
                G_KK = G[cols][:, cols]
                H = np.where(seg[:, None] == seg, -np.multiply.outer(u, u), 0.0)
                H.ravel()[::cols.size + 1] += 1.0
                H *= scale[:, None]
                H += G_KK
                d = np.linalg.solve(H, -grad)
                slope = grad @ d
                if not (slope < 0 and math.isfinite(slope)):
                    break
                # F on K; f + bb / 2 is n times the stage objective, nP
                ck = c[cols]
                f = wk @ nk - 0.5 * (xk @ (ck + qk))
                # below slack, a change of F is rounding noise
                slack = _ROUNDING_SLACK * (abs(f) + 0.5 * bb)
                # at the rounding floor: d, whose length in the norm of H is
                # sqrt(-slope), is at most _ROUNDING_SLACK sqrt(nP), or the
                # last full step left a decrement F cannot see unshrunk
                if not changed and (-slope <= _ROUNDING_SLACK**2 * (f + 0.5 * bb)
                                    or slack >= -slope > _PRIMAL_STALL * last):
                    break
                alpha = 1.0
                for _ in range(_MAX_BACKTRACKS + 1):
                    trial = xk + alpha * d
                    # a group the step turns back through 0 stops at 0
                    back = (np.add.reduceat(xk * trial, starts) <= 0)[seg]
                    trial[back] = 0.0
                    f_new = (trial @ (0.5 * (G_KK @ trial) - ck)
                             + wk @ np.sqrt(np.add.reduceat(trial * trial, starts)))
                    if f_new <= f + _ARMIJO_MU * alpha * slope + slack:
                        break
                    alpha *= _ARMIJO_SHRINK
                    stats.primal_backtracks += 1
                else:
                    break
                x[cols] = trial
                stats.primal_steps += 1
                # the decrement a full step on an unchanged set must shrink
                full = alpha == 1.0 and not changed and not np.logical_or.reduce(back)
                last = -slope if full else np.inf
        except np.linalg.LinAlgError:
            return None
        # a NaN fails the test, as a point outside the box does
        if not np.maximum.reduce(np.abs(x)) <= spec.box.R:
            return None
        r = A @ x - b
        stats.dense_products += 2
        pobj = _objective(x, r, spec)
        gap = _relative_gap(pobj, _scaled_dual(r, A.T @ r, spec))
    if not gap <= tol:
        return None
    sigma = _SIGMA_START if warm is None else max(warm.sigma, _SIGMA_START)
    stats.converged, stats.stop_cause = True, "converged"
    stats.eps_pinf = stats.eps_dinf = 0.0
    stats.eps_gap = abs(pobj + (0.5 * (r @ r) + b @ r) / spec.n) / (1.0 + abs(pobj))
    stats.cert_gap = gap
    return x, DualState(r, -x, sigma), stats


def _alm(spec: SubproblemSpec, tol: float, warm: DualState | None, certify: bool = False):
    """The ALM loop of :func:`alm_solve` on ``spec`` as given; ``certify`` on an eliminated problem.

    A narrow problem whose weights are all positive is first tried by
    :func:`_primal_newton`; where that returns None the ALM runs as if it
    had not been tried, but for the counts it adds to the stats.
    """
    stats = SolveStats()
    # a problem left with an unpenalized group stops on the residuals alone
    penalized = bool(np.logical_and.reduce(spec.omega > 0))
    if penalized and spec.p <= spec.n:
        solved = _primal_newton(spec, tol, warm, stats)
        if solved is not None:
            return solved
    if warm is not None:
        state = DualState(warm.xi * _ball_scale(spec.A.T @ warm.xi, spec), warm.x,
                          _warm_sigma(warm, spec))
        stats.dense_products += 1
    else:
        state = DualState.cold(spec, _SIGMA_START)
    At_xi = None  # A^T state.xi, once an outer iteration has computed it
    bnorm = 1.0 + math.sqrt(spec.b @ spec.b)
    # SNCG's gradient target is the rounding floor: a target scaled by
    # tol * ||b|| left xi too loose for eps_gap when ||b|| is large, and
    # stages cycled.  Far from the solution criterion (B) ends a call
    # earlier, where its gradient or Newton decrement is small against the
    # multiplier step; near it that step shrinks, so the calls return to the
    # floor.  eps_pinf reads the gradient any exit leaves, so converged keeps
    # its meaning
    sncg_tol = 1e-11 * bnorm
    eps_dinf_prev = np.inf
    stuck = 0  # outer iterations in a row that left xi where it was
    stats.stop_cause = "max_outer"
    for j in range(_MAX_OUTER):
        eta, xi, _, x_new, out = abcd_solve(state, spec, sncg_tol, _SNCG_MAX_ITER, stats, At_xi,
                                            _DELTA_START * _DELTA_RATIO**j, tol, certify)
        x_old = state.x
        state.xi, state.x = xi, x_new
        At_xi, keep, call = out["At_xi"], out["keep"], out["sncg"]
        eps_pinf = call["gnorm"] / bnorm
        dx = x_new - x_old
        eps_dinf = math.sqrt(dx @ dx) / state.sigma
        # the point this solve would return here: the negated multiplier (the
        # primal solution under this Lagrangian sign convention) projected
        # onto the box, 0 off the groups where the prox is 0
        x = np.minimum(np.maximum(-x_new, -spec.box.R), spec.box.R)
        x[~keep[spec.g.group_id]] = 0.0
        r = spec.A @ x - spec.b
        stats.dense_products += 1
        pobj = _objective(x, r, spec)
        eps_gap = abs(pobj + _dual_value(xi, eta, spec)) / (1.0 + abs(pobj))
        converged = max(eps_pinf, eps_dinf, eps_gap) <= tol
        cert_gap = None
        if penalized and eps_pinf <= tol:
            lower = _scaled_dual(r, spec.A.T @ r, spec)
            stats.dense_products += 1
            if certify:
                lower = max(lower, _scaled_dual(xi, At_xi, spec))
                # the residual test stops an eliminated problem only where the
                # box clips, which neither dual point, both without it, certifies
                converged = converged and bool(np.logical_or.reduce(eta))
            cert_gap = _relative_gap(pobj, lower)
            converged = converged or cert_gap <= tol
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
        state.sigma = min(growth * state.sigma, _SIGMA_MAX)
    return x, state, stats
