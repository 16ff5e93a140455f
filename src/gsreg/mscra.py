"""Multi-stage convex relaxation outer loop.

Each stage solves one weighted l2,1 subproblem through the dual ALM,
then refreshes the per-group weights from the conjugate subgradient of
the penalty family at ``rho * ||x_Ji||``.  The penalty factor rho is
adjusted dynamically from the first-stage iterate unless a static value
is pinned for exact-penalty experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .groups import (
    BoxConstraint,
    GroupStructure,
    approx_group_zero_norm,
    equilibrium_residual,
    group_norms,
)
from .penalties import PhiSpec, weight_from_subgradient
from .wl21 import AlmConfig, SolveStats, SubproblemSpec, alm_solve


@dataclass(frozen=True)
class MscraConfig:
    phi: PhiSpec = field(default_factory=PhiSpec)
    nu: float | None = None  # None -> n / (0.1 ||A^T b||_inf)
    w0: np.ndarray | None = None
    rho_cap_numerator: float = 1e8
    static_rho: float | None = None  # pins rho instead of the dynamic schedule
    eps_gap: float = 1e-6
    eps_loss: float = 1e-2
    max_stages: int = 30
    tol_decay: float = 0.8
    tol_floor: float = 1e-5
    alm: AlmConfig = field(default_factory=AlmConfig)

    def __post_init__(self):
        if not self.max_stages > 0:
            raise ValueError(f"max_stages must be positive, got {self.max_stages}")
        if not self.tol_floor > 0:
            raise ValueError(f"tol_floor must be positive, got {self.tol_floor}")
        if not 0 < self.tol_decay <= 1:
            raise ValueError(f"tol_decay must lie in (0, 1], got {self.tol_decay}")

    @property
    def tol0(self) -> float:
        return 0.1 * self.eps_loss


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

    def to_dict(self, include_x: bool = True) -> dict:
        d = {
            "k": self.k,
            "w": self.w.tolist(),
            "rho": self.rho,
            "lambda": self.lam,
            "loss": self.loss,
            "eq_residual": self.eq_residual,
            "group_sparsity": self.group_sparsity,
            "inner": self.inner_stats.to_dict(),
        }
        if include_x:
            d["x"] = self.x.tolist()
        return d


@dataclass
class MscraResult:
    """Final iterate and stage traces.

    ``converged`` holds only when a stopping rule fired and every stage's
    ALM solve met its own tolerance (``inner_failures == 0``).
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
        return self.stop_reason != "max_stages" and self.inner_failures == 0


def default_nu(A, b, n: int | None = None, factor: float = 0.1) -> float:
    """Scaling rule making the stage-1 level ``lambda = (factor/n) ||A^T b||_inf``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = n or A.shape[0]
    scale = np.max(np.abs(A.T @ b))
    if scale == 0:
        return float(n)  # b = 0: any positive value, stage 1 returns 0
    return n / (factor * scale)


def rho_schedule(k: int, x_k, rho_prev: float | None, g: GroupStructure,
                 cap_num: float = 1e8) -> float:
    """Dynamic penalty factor: ``2/||G(x1)||_inf`` then capped doubling."""
    gmax = float(np.max(group_norms(x_k, g)))
    if gmax == 0.0:
        raise ValueError("degenerate iterate: ||G(x)||_inf = 0")
    if k == 1 or rho_prev is None:
        return 2.0 / gmax
    return min(2.0 * rho_prev, cap_num / gmax)


def weight_update(x_k, rho: float, phi: PhiSpec, g: GroupStructure) -> np.ndarray:
    """Stage weights ``w_i in d(psi*)(rho ||x_Ji||)``, componentwise in [0, 1]."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    norms = group_norms(x_k, g)
    return np.asarray(weight_from_subgradient(phi, rho * norms))


def subproblem_tolerance(prev: float | None, cfg: MscraConfig) -> float:
    """Geometric per-stage tolerance schedule with a hard floor."""
    if prev is None:
        return cfg.tol0
    return max(cfg.tol_floor, cfg.tol_decay * prev)


def stopping_check(curr: StageTrace, prev: StageTrace | None, cfg: MscraConfig) -> str | None:
    """Returns a stop reason, or None to continue."""
    if curr.eq_residual <= cfg.eps_gap:
        return "equilibrium"
    if prev is not None:
        rel_loss = abs(curr.loss - prev.loss) / max(1.0, curr.loss)
        if rel_loss <= cfg.eps_loss and abs(curr.group_sparsity - prev.group_sparsity) <= 1:
            return "loss"
    return None


def run(A, b, g: GroupStructure, box: BoxConstraint,
        cfg: MscraConfig | None = None) -> MscraResult:
    """Run the full multi-stage loop and return the final iterate with traces."""
    cfg = cfg or MscraConfig()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    nu = cfg.nu if cfg.nu is not None else default_nu(A, b, n)
    if not nu > 0:
        raise ValueError("nu must be positive")
    w = np.zeros(g.m) if cfg.w0 is None else np.asarray(cfg.w0, dtype=float).copy()
    if w.shape != (g.m,) or np.any(w < 0) or np.any(w > 1):
        raise ValueError("w0 must lie in [0, 1]^m")

    lam = 1.0 / nu
    rho: float | None = cfg.static_rho
    tol: float | None = None
    warm = None
    traces: list[StageTrace] = []
    x = np.zeros(g.p)
    stop_reason = "max_stages"

    for k in range(1, cfg.max_stages + 1):
        tol = subproblem_tolerance(tol, cfg)
        omega = n * lam * (1.0 - w)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=omega, box=box)
        x, dual, stats = alm_solve(spec, replace(cfg.alm, tol=tol), warm=warm)
        warm = dual
        r = A @ x - b
        loss = float(0.5 * (r @ r) / n)
        eq = equilibrium_residual(x, w, g)  # uses the stage-(k-1) weights
        sparsity = approx_group_zero_norm(x, g)

        if np.max(group_norms(x, g)) == 0.0:
            traces.append(StageTrace(k, x, w.copy(), rho or 0.0, lam, loss, eq, 0, stats))
            stop_reason = "degenerate_zero"
            break

        if cfg.static_rho is None:
            rho = rho_schedule(k, x, rho, g, cfg.rho_cap_numerator)
        lam = rho / nu
        w_new = weight_update(x, rho, cfg.phi, g)
        trace = StageTrace(k, x, w_new, rho, lam, loss, eq, sparsity, stats)
        traces.append(trace)

        reason = stopping_check(trace, traces[-2] if len(traces) > 1 else None, cfg)
        if reason is not None:
            stop_reason = reason
            break
        w = w_new

    return MscraResult(x, traces, stop_reason, nu)
