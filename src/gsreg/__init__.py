"""Group zero-norm regularized least squares via multi-stage convex relaxation."""

from .groups import (
    BoxConstraint,
    GroupStructure,
    contiguous_groups,
    equilibrium_residual,
    group_norms,
    group_support,
)
from .penalties import (
    CAPPED_L1,
    LQ,
    MCP,
    SCAD,
    PhiConstants,
    PhiSpec,
    phi_constants,
    phi_eval,
    psi_star_eval,
    theta_eval,
    weight_from_subgradient,
)
from .wl21 import (
    AlmConfig,
    DualState,
    SolveStats,
    SubproblemSpec,
    alm_solve,
    dual_objective,
    primal_objective,
)
from .mscra import MscraConfig, MscraResult, StageTrace, default_nu, run
from .data import (
    Instance,
    OracleResult,
    brute_force_zero_norm,
    gen_design,
    gen_observations,
    gen_signal,
    make_instance,
    metrics,
    oracle_ls,
)

__version__ = "0.1.0"
