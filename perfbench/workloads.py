"""The benchmark's workloads: fixed lists of generated instances and how each is solved.

Every workload solves the same instances in every run, so a run's work
does not depend on ``--seed``; the seed only fixes the order in which
the list is solved.  The program sees nothing but ``A``, ``b``, the
group structure, the box and the config built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gsreg import data, mscra
from gsreg.groups import BoxConstraint

# coefficient- and response-side noise scales of every instance
THETA = 0.1


@dataclass(frozen=True)
class Case:
    """One generated instance of a workload's fixed list."""

    design: str
    signal: str
    n: int
    p: int
    m: int
    r_bar: int
    alpha: float
    seed: int

    @property
    def label(self) -> str:
        return f"{self.design}/{self.signal}/n{self.n}p{self.p}m{self.m}/a{self.alpha:g}/s{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    # "gep": the default multi-stage GEP-MSCRA; "group_lasso": the
    # one-stage weighted l2,1 estimator of ``gsreg bench --mode stage1``
    estimator: str
    nu_factor: float
    # share of a solve's time in matrix-vector products, for probe.SpeedSampler
    matvec_share: float = 0.0


@dataclass
class Prepared:
    """A generated instance with its box and config, ready to solve."""

    case: Case
    inst: data.Instance
    box: BoxConstraint
    nu: float
    cfg: mscra.MscraConfig


# the large-signal acceptance-fixture cells (designs I/II x signals i/ii/iii)
_LARGE_SIGNAL = tuple(
    Case(design, signal, n=64, p=512, m=64, r_bar=6, alpha=1e5, seed=seed)
    for design in ("I", "II")
    for signal in ("i", "ii", "iii")
    for seed in (7000, 7001)
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_signal", _LARGE_SIGNAL, "gep", 0.1),
        Workload(
            "wide",
            tuple(Case("I", "i", n=512, p=4096, m=512, r_bar=6, alpha=2.0, seed=s)
                  for s in (7000, 7001)),
            "gep",
            0.1,
            matvec_share=0.5,
        ),
        Workload("group_lasso", _LARGE_SIGNAL, "group_lasso", 0.13),
    )
}


def prepare_case(workload: Workload, c: Case) -> Prepared:
    """Generate one instance with its box, ``nu`` and config."""
    inst = data.make_instance(design=c.design, signal=c.signal, n=c.n, p=c.p, m=c.m,
                              r_bar=c.r_bar, alpha=c.alpha, theta1=THETA, theta2=THETA,
                              seed=c.seed)
    box = data.default_box(inst.x_true)
    nu = mscra.default_nu(inst.A, inst.b, factor=workload.nu_factor)
    if workload.estimator == "gep":
        cfg = mscra.MscraConfig(nu=nu)
    else:
        cfg = mscra.MscraConfig(nu=nu, max_stages=1)
    return Prepared(c, inst, box, nu, cfg)


def solve(item: Prepared) -> mscra.MscraResult:
    """One solve through the public entry point, looked up at call time so a trace can wrap it."""
    return mscra.run(item.inst.A, item.inst.b, item.inst.g, item.box, item.cfg)


def solve_order(count: int, seed: int) -> np.ndarray:
    """The order in which a run solves its fixed list; it depends only on ``seed``."""
    return np.random.default_rng(seed).permutation(count)
