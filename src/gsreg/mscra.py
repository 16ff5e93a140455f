"""Multi-stage convex relaxation outer loop.

Each stage solves one weighted l2,1 subproblem through the dual ALM,
then refreshes the per-group weights from the conjugate subgradient of
the penalty family at ``rho * ||x_Ji||``.  Stage 1 runs with every
weight at 0, and the penalty factor rho follows the dynamic schedule of
:func:`rho_schedule` from the first-stage iterate on.  Each stage
starts from a set of groups: stage 1 from the ``_SPARSE_RATIO`` groups
with the largest ``||A_i^T b||``, a later stage from the groups of the
previous stage's support and the unpenalized ones.  When the set covers
fewer than p/8 columns, the stage is solved on a working set grown from
it until one product with ``A^T`` shows no group outside breaking the
KKT conditions, and otherwise on all groups (:func:`solve_stage`).
From stage 2 on, the groups of weight 1 are unpenalized;
:func:`gsreg.wl21.alm_solve` eliminates their columns exactly, so that,
but for the cases it names, each stage's ALM solves a problem whose
weights are all positive and stops on a certified duality gap.  A stage
whose unpenalized groups hold at least n columns is one of them: it
interpolates ``b``, is solved as given and ends the run.  Otherwise the
run stops once a stage's equilibrium residual is at most
``_EPS_EQUILIBRIUM``, or its loss has settled to within ``_EPS_LOSS``
(:func:`stopping_check`).  Stage 1's ALM tolerance is ``0.1 * _EPS_LOSS``,
and each later stage's shrinks by ``tol_decay`` down to ``tol_floor``.
The phi family, nu, its factor, the stage cap and this schedule are the
settings of :class:`MscraConfig`; the rest of the solver's limits are
module constants here and in :mod:`gsreg.wl21`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .groups import BoxConstraint, GroupStructure, equilibrium_residual, group_norms, group_support
from .penalties import PhiSpec, weight_from_subgradient
from .wl21 import AlmConfig, DualState, SolveStats, SubproblemSpec, alm_solve

# numerator of the cap on the dynamic penalty factor (see rho_schedule)
_RHO_CAP = 1e8
# a stage is solved on a working set of groups only when its start covers
# fewer than p / _SPARSE_RATIO columns, and stage 1 starts from
# _SPARSE_RATIO groups (see solve_stage and _stage1_seed)
_SPARSE_RATIO = 8
# the stopping rules of stopping_check; stage 1's ALM tolerance is 0.1 * _EPS_LOSS
_EPS_EQUILIBRIUM = 1e-6
_EPS_LOSS = 1e-2


@dataclass(frozen=True)
class MscraConfig:
    phi: PhiSpec = field(default_factory=PhiSpec)
    nu: float | None = None  # None -> n / (nu_factor ||A^T b||_inf)
    nu_factor: float = 0.1
    max_stages: int = 30
    tol_decay: float = 0.8
    tol_floor: float = 1e-5

    def __post_init__(self):
        if self.nu is not None and not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be None or positive and finite, got {self.nu}")
        if not (self.nu_factor > 0 and math.isfinite(self.nu_factor)):
            raise ValueError(f"nu_factor must be positive and finite, got {self.nu_factor}")
        if not self.max_stages > 0:
            raise ValueError(f"max_stages must be positive, got {self.max_stages}")
        if not self.tol_floor > 0:
            raise ValueError(f"tol_floor must be positive, got {self.tol_floor}")
        if not math.isfinite(self.tol_floor):
            raise ValueError(f"tol_floor must be finite, got {self.tol_floor}")
        if not 0 < self.tol_decay <= 1:
            raise ValueError(f"tol_decay must lie in (0, 1], got {self.tol_decay}")


@dataclass
class StageTrace:
    k: int
    x: np.ndarray
    w: np.ndarray
    rho: float
    lam: float
    loss: float
    eq_residual: float
    group_sparsity: int
    inner_stats: SolveStats
    # the ALM tolerance the stage's solve ran at (see subproblem_tolerance)
    tol: float

    def to_dict(self, include_x: bool = True) -> dict:
        d = {
            "k": self.k,
            "w": self.w.tolist(),
            "rho": self.rho,
            "lambda": self.lam,
            "loss": self.loss,
            "eq_residual": self.eq_residual,
            "group_sparsity": self.group_sparsity,
            "tol": self.tol,
            "inner": self.inner_stats.to_dict(),
        }
        if include_x:
            d["x"] = self.x.tolist()
        return d


@dataclass
class MscraResult:
    """Final iterate and stage traces.

    ``converged`` holds only when a stopping rule fired and every stage's
    ALM solve met its own tolerance (``inner_failures == 0``).  A run that
    stops as ``interpolating`` has not converged: its last stage left at
    least n columns unpenalized, so its fit matches ``b`` exactly and no
    error bound holds for it.
    """

    x: np.ndarray
    traces: list
    stop_reason: str
    nu: float

    @property
    def stages(self) -> int:
        return len(self.traces)

    @property
    def inner_failures(self) -> int:
        """Number of stages whose ALM solve stopped without converging."""
        return sum(not t.inner_stats.converged for t in self.traces)

    @property
    def converged(self) -> bool:
        return self.stop_reason not in ("max_stages", "interpolating") and self.inner_failures == 0


def default_nu(A, b, factor: float = 0.1) -> float:
    """Scaling rule making the stage-1 level ``lambda = (factor/n) ||A^T b||_inf``.

    Raises ValueError when ``A`` or ``b`` has a non-finite entry (see :func:`_finite_Atb`).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return _nu_from(_finite_Atb(A, b), A.shape[0], factor)


def _finite_Atb(A, b) -> np.ndarray:
    """``A^T b``, or ValueError when it or ``b`` has a NaN or inf.

    Any NaN or inf in ``A`` or ``b`` reaches some entry of ``A^T b``, so
    ``A`` needs no pass of its own.  The product's own floating-point
    warnings are silenced: the error says what went wrong.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        Atb = A.T @ b
    if not (np.isfinite(b).all() and np.isfinite(Atb).all()):
        raise ValueError("A and b must be finite: A^T b has a NaN or inf entry")
    return Atb


def _nu_from(Atb, n: int, factor: float) -> float:
    """:func:`default_nu` given the product ``A^T b``."""
    scale = np.max(np.abs(Atb))
    if scale == 0:
        return float(n)  # b = 0: any positive value, stage 1 returns 0
    return n / (factor * scale)


def _stage1_seed(Atb, g: GroupStructure) -> np.ndarray:
    """The groups stage 1 starts from: the ``_SPARSE_RATIO`` with the largest ``||A_i^T b||``.

    Stage 1 has every weight at 0, so all ``omega_i`` are equal and these
    are the groups that break the KKT conditions of ``x = 0`` the most.
    """
    seed = np.zeros(g.m, dtype=bool)
    seed[(-group_norms(Atb, g)).argsort(kind="stable")[:_SPARSE_RATIO]] = True
    return seed


def unpenalized_columns(w, g: GroupStructure) -> int:
    """Number of coordinates in groups of weight 1, which a stage leaves unpenalized."""
    return int(np.count_nonzero(g.broadcast(w) == 1.0))


def rho_schedule(k: int, x_k, rho_prev: float | None, g: GroupStructure) -> float:
    """Dynamic penalty factor: ``2/||G(x1)||_inf``, then doubling capped at ``_RHO_CAP/||G(x_k)||_inf``."""
    gmax = float(np.maximum.reduce(group_norms(x_k, g)))
    if gmax == 0.0:
        raise ValueError("degenerate iterate: ||G(x)||_inf = 0")
    if k == 1 or rho_prev is None:
        return 2.0 / gmax
    return min(2.0 * rho_prev, _RHO_CAP / gmax)


def weight_update(x_k, rho: float, phi: PhiSpec, g: GroupStructure) -> np.ndarray:
    """Stage weights ``w_i in d(psi*)(rho ||x_Ji||)``, componentwise in [0, 1]."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    norms = group_norms(x_k, g)
    return np.asarray(weight_from_subgradient(phi, rho * norms))


def subproblem_tolerance(prev: float | None, cfg: MscraConfig) -> float:
    """Geometric per-stage tolerance schedule with a hard floor, from ``0.1 * _EPS_LOSS``."""
    if prev is None:
        return 0.1 * _EPS_LOSS
    return max(cfg.tol_floor, cfg.tol_decay * prev)


# the SolveStats fields that a sieved stage does not add up over its rounds;
# it sums every other one (see _merged)
_NOT_SUMMED = frozenset({"converged", "stop_cause", "eps_pinf", "eps_dinf", "eps_gap", "cert_gap",
                         "sncg_max_r", "sieve_rounds", "working_set_groups", "eliminated_columns",
                         "closed_form", "history"})


def _merged(rounds, sieve_rounds: int, working_set_groups: int) -> SolveStats:
    """The stats of a stage solved in several rounds, summed as :func:`solve_stage` describes."""
    stats = replace(rounds[-1], history=[h for st in rounds for h in st.history],
                    sncg_max_r=max(st.sncg_max_r for st in rounds),
                    sieve_rounds=sieve_rounds, working_set_groups=working_set_groups)
    for f in fields(SolveStats):
        if f.name not in _NOT_SUMMED:
            setattr(stats, f.name, sum(getattr(st, f.name) for st in rounds))
    return stats


def _violators(spec: SubproblemSpec, r, mask) -> np.ndarray:
    """The groups that join the working set ``mask`` after a round with residual ``r``.

    They are the groups outside ``mask`` with ``||A_i^T r|| > omega_i``,
    at most as many as ``mask`` holds, the worst by
    ``||A_i^T r|| / omega_i`` first (a group of weight 0 ranks first).
    """
    nrm = group_norms(spec.A.T @ r, spec.g)
    out = (~mask & (nrm > spec.omega)).nonzero()[0]
    ratio = np.divide(nrm[out], spec.omega[out], out=np.full(out.size, np.inf),
                      where=spec.omega[out] > 0)
    add = np.zeros(spec.g.m, dtype=bool)
    add[out[(-ratio).argsort(kind="stable")[:np.count_nonzero(mask)]]] = True
    return add


def solve_stage(spec: SubproblemSpec, cfg: AlmConfig, warm: DualState | None, start):
    """Solve one stage subproblem, on a working set of groups when ``start`` is small.

    ``start`` masks the groups to start from.  When it covers p/8 columns
    or more, :func:`alm_solve` runs on all groups.
    Otherwise the stage sieves (adaptive sieving, Lin, Sun, Toh & Yuan
    2021): it solves on the working set ``W`` (:meth:`SubproblemSpec.restrict`),
    forms ``r = A_W x_W - b``, and adds groups outside ``W`` with
    ``||A_i^T r|| > omega_i``, solving again until there is none.  Then
    ``x`` meets the KKT conditions of the whole stage: it is 0 off ``W``,
    where ``||A_i^T r|| <= omega_i``, so the last round's tolerance
    certifies the full problem.  A round adds at most ``|W|`` groups, the
    worst by ``||A_i^T r|| / omega_i`` first, so ``W`` at most doubles
    (the working sets of Celer, Massias, Gramfort & Salmon 2018); once it
    grows past p/8 columns, the stage is solved on all groups instead.
    Every round starts from ``warm`` restricted to its ``W``, not from the
    round before, which solved a problem missing some groups: so a round
    whose ``W`` holds every group the solve on all groups ever makes
    active repeats that solve's iterates.

    Each round gathers its ``A_W`` from ``A`` (:meth:`SubproblemSpec.restrict`),
    and a narrow one computes its Gram on its first Woodbury system.
    ``W`` holds every unpenalized group, so that each round's
    :func:`alm_solve` can eliminate all of them.

    Returns ``(x, dual, stats, r)`` with ``r = Ax - b`` and ``dual`` on
    all p coordinates.  A sieved stage's stats sum its rounds' counters
    and wall times and concatenate their histories, and keep the last round's
    ``converged`` and ``stop_cause``; ``sieve_rounds`` counts its solves
    on a working set, and ``working_set_groups`` is the size of the last
    one, or m when the stage ended on all groups.  The products with
    ``A_W`` (or with the ``A'`` :func:`alm_solve` makes from it by
    eliminating the unpenalized columns), ``r``'s among them, count as
    ``working_set_products``, and
    the one ``A^T r`` of each round as a dense product; after a solve on
    all groups, ``r`` counts as one more dense product.
    """
    def columns(mask) -> int:
        return int(np.count_nonzero(spec.g.broadcast(mask)))

    limit = spec.p / _SPARSE_RATIO
    mask = None if columns(start) >= limit else np.array(start, dtype=bool)
    rounds = []
    while mask is not None:
        cols, sub = spec.restrict(mask)
        x_w, dual, stats = alm_solve(sub, cfg, warm=None if warm is None else warm.restrict(cols))
        r = sub.A @ x_w - spec.b
        stats.working_set_products += stats.dense_products + 1
        stats.dense_products = 1
        rounds.append(stats)
        add = _violators(spec, r, mask)
        if not np.logical_or.reduce(add):
            x = np.zeros(spec.p)
            x[cols] = x_w
            stats = _merged(rounds, len(rounds), int(np.count_nonzero(mask)))
            return x, dual.lifted(cols, spec.p), stats, r
        mask |= add
        if columns(mask) > limit:
            break
    x, dual, stats = alm_solve(spec, cfg, warm=warm)
    stats.dense_products += 1
    stats = _merged(rounds + [stats], len(rounds), spec.g.m)
    return x, dual, stats, spec.A @ x - spec.b


def stopping_check(curr: StageTrace, prev: StageTrace | None) -> str | None:
    """Returns a stop reason, or None to continue.

    ``"equilibrium"`` when the equilibrium residual is at most
    ``_EPS_EQUILIBRIUM``; ``"loss"`` when the loss moved by at most
    ``_EPS_LOSS`` relative to ``max(1, loss)`` since ``prev`` and the
    group sparsity by at most 1.
    """
    if curr.eq_residual <= _EPS_EQUILIBRIUM:
        return "equilibrium"
    if prev is not None:
        rel_loss = abs(curr.loss - prev.loss) / max(1.0, curr.loss)
        if rel_loss <= _EPS_LOSS and abs(curr.group_sparsity - prev.group_sparsity) <= 1:
            return "loss"
    return None


def run(A, b, g: GroupStructure, box: BoxConstraint,
        cfg: MscraConfig | None = None) -> MscraResult:
    """Run the full multi-stage loop and return the final iterate with traces.

    Raises ValueError when ``A`` or ``b`` has a non-finite entry, whatever ``cfg.nu`` is.
    """
    cfg = cfg or MscraConfig()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    Atb = _finite_Atb(A, b)
    nu = cfg.nu if cfg.nu is not None else _nu_from(Atb, n, cfg.nu_factor)
    w = np.zeros(g.m)

    lam = 1.0 / nu
    rho: float | None = None
    tol: float | None = None
    warm = None
    traces: list[StageTrace] = []
    x = np.zeros(g.p)
    start = _stage1_seed(Atb, g)
    support = None
    stop_reason = "max_stages"

    for k in range(1, cfg.max_stages + 1):
        tol = subproblem_tolerance(tol, cfg)
        omega = n * lam * (1.0 - w)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=omega, box=box)
        # from stage 2 on, start from the last support and the unpenalized groups
        if support is not None:
            start = omega == 0.0
            start[support] = True
        x, warm, stats, r = solve_stage(spec, AlmConfig(tol=tol), warm, start)
        loss = float(0.5 * (r @ r) / n)
        eq = equilibrium_residual(x, w, g)  # uses the stage-(k-1) weights
        support = group_support(x, g)
        sparsity = support.size

        if sparsity == 0:
            traces.append(StageTrace(k, x, w.copy(), rho or 0.0, lam, loss, eq, 0, stats, tol))
            stop_reason = "degenerate_zero"
            break

        rho = rho_schedule(k, x, rho, g)
        lam = rho / nu
        w_new = weight_update(x, rho, cfg.phi, g)
        trace = StageTrace(k, x, w_new, rho, lam, loss, eq, sparsity, stats, tol)
        traces.append(trace)

        if unpenalized_columns(w, g) >= n:
            reason = "interpolating"
        else:
            reason = stopping_check(trace, traces[-2] if len(traces) > 1 else None)
        if reason is not None:
            stop_reason = reason
            break
        w = w_new

    return MscraResult(x, traces, stop_reason, nu)
