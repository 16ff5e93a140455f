"""Synthetic instance generation, oracle solutions and evaluation metrics.

Designs, signals and noise follow the benchmark recipes: Gaussian,
Rademacher-style sign, and row-subsampled Hadamard designs; four signal
families on a randomly chosen group support; observations perturbed by
normalized coefficient- and response-side noise.  Oracles include the
support-restricted least squares solution and an exhaustive-support
global minimizer of the group zero-norm objective for tiny instances.

All randomness flows through the counter-based Philox generator so that
instances are bit-reproducible across platforms.

A design of 4 MiB or more, such as the 512 x 4096 designs of the
benchmark's ``wide`` workload, is drawn into its own private anonymous
mapping (:func:`gen_design`), which goes back to the OS when the array
dies.  Drawn on the heap, a freed design left a hole that the next one
of the same size refilled only while no small allocation had split it,
so the peak memory of a run that regenerates its designs depended on
where the allocator had placed them.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .groups import BoxConstraint, GroupStructure, contiguous_groups, group_norms, group_support


def make_rng(seed: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, which must lie in ``[0, 2**64)``."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass
class Instance:
    A: np.ndarray
    b: np.ndarray
    g: GroupStructure
    x_true: np.ndarray | None = None
    support_true: np.ndarray | None = None  # sorted group ids
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def noise(self) -> np.ndarray:
        if self.x_true is None:
            raise ValueError("noise requires x_true")
        return self.b - self.A @ self.x_true


@dataclass
class OracleResult:
    x_ls: np.ndarray
    projected_noise: np.ndarray  # (A_S^T A_S)^{-1} A_S^T eps, on-support coords


class SingularDesignError(ValueError):
    pass


# ---------------------------------------------------------------------------
# generators


# designs of at least this many bytes get their own mapping: numpy's own
# threshold for asking for huge pages
_MAPPED_BYTES = 4 << 20


def _design_array(n: int, p: int) -> np.ndarray:
    """An empty n x p float array, over a private anonymous mapping from ``_MAPPED_BYTES`` on."""
    nbytes = n * p * np.dtype(float).itemsize
    if nbytes < _MAPPED_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty((n, p))
    # private, not mmap's default shared mapping, which gets no transparent huge pages
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray((n, p), buffer=buf)


def gen_design(kind: str, n: int, p: int, seed: int) -> np.ndarray:
    """Design matrix of kind I (Gaussian), II (signs), or III (Hadamard rows).

    A design of 4 MiB or more lies over its own private anonymous
    ``mmap``, unmapped when the array dies, so that regenerating large
    designs leaves no heap hole for a small allocation to split; a
    smaller one is an ordinary heap array.  Both are drawn in place
    (``out=``), with the same values as drawing a new array.
    """
    rng = make_rng(seed)
    if kind == "I":
        return rng.standard_normal(out=_design_array(n, p))
    if kind == "II":
        A = _design_array(n, p)
        rng.random(out=A)
        A -= 0.5
        # the sign of U - 1/2, with 0 sent to +1 (U - 1/2 is never -0.0); an
        # in-place np.sign runs several times slower on mixed signs
        return np.copysign(1.0, A, out=A)
    if kind == "III":
        if p & (p - 1) != 0 or p <= 0:
            raise ValueError("kind III requires p to be a power of two")
        if n > p:
            raise ValueError("kind III requires n <= p")
        # Sylvester doubling: H_2k = [[H_k, H_k], [H_k, -H_k]]
        H = np.ones((1, 1))
        while H.shape[0] < p:
            H = np.block([[H, H], [H, -H]])
        picks = np.sort(rng.permutation(p)[:n])
        # "clip" keeps take from buffering (every index is valid)
        return np.take(H, picks, axis=0, out=_design_array(n, p), mode="clip")
    raise ValueError(f"unknown design kind {kind!r}")


def gen_signal(kind: str, g: GroupStructure, r_bar: int, alpha: float, seed: int):
    """True coefficients with exactly ``r_bar`` nonzero groups; returns (x, support)."""
    if not 0 <= r_bar <= g.m:
        raise ValueError(f"r_bar must lie in [0, m = {g.m}], got {r_bar}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    rng = make_rng(seed)
    support = np.sort(rng.permutation(g.m)[:r_bar])
    # the support's coordinates group after group
    cols, starts, seg = g.segments(np.isin(np.arange(g.m), support))
    x = np.zeros(g.p)
    if kind == "i":
        x[cols] = alpha * rng.standard_normal(cols.size)
    elif kind == "ii":
        x[cols] = alpha * rng.random(cols.size) - 0.5
    elif kind == "iii":
        sgn = np.sign(rng.standard_normal(cols.size))
        sgn[sgn == 0] = 1.0
        x[cols] = alpha * sgn
    elif kind == "iv":
        # first half of the selected groups negative, the rest positive,
        # magnitude 1e5 / sqrt(group id) on the all-ones pattern
        mag = 1e5 / np.sqrt(support + 1)
        x[cols] = np.where(np.arange(r_bar) >= r_bar // 2, mag, -mag)[seg]
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    # the draw may produce an exactly-zero group with probability 0; regenerate
    # rather than silently break the support invariant
    zero = group_norms(x, g)[support] == 0.0
    x[cols[starts[zero]]] = alpha if alpha != 0 else 1.0
    return x, support


def gen_observations(A, x_bar, theta1: float, theta2: float, seed: int) -> np.ndarray:
    """Response ``b = A(x + t1 e1/||e1||) + t2 e2/||e2||`` with standard-normal noise."""
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        if not 0 <= theta < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {theta}")
    A = np.asarray(A, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    n, p = A.shape
    rng = make_rng(seed)
    e_coef = rng.standard_normal(p)
    e_resp = rng.standard_normal(n)
    x_pert = x_bar
    if theta1 > 0:
        x_pert = x_bar + theta1 * e_coef / np.linalg.norm(e_coef)
    b = A @ x_pert
    if theta2 > 0:
        b = b + theta2 * e_resp / np.linalg.norm(e_resp)
    return b


# make_instance draws the design, the signal and the observations from
# seed, seed + 1 and seed + 2
INSTANCE_SEEDS = 3


def make_instance(design: str, signal: str, n: int, p: int, m: int, r_bar: int,
                  alpha: float, theta1: float, theta2: float, seed: int,
                  g: GroupStructure | None = None) -> Instance:
    """One fully assembled synthetic instance with derived sub-seeds."""
    g = g or contiguous_groups(p, m)
    design_seed, signal_seed, noise_seed = range(seed, seed + INSTANCE_SEEDS)
    A = gen_design(design, n, p, design_seed)
    x_bar, support = gen_signal(signal, g, r_bar, alpha, signal_seed)
    b = gen_observations(A, x_bar, theta1, theta2, noise_seed)
    meta = {
        "design": design,
        "signal": signal,
        "n": n,
        "p": p,
        "m": m,
        "r_bar": r_bar,
        "alpha": alpha,
        "theta1": theta1,
        "theta2": theta2,
        "rng": "philox",
    }
    return Instance(A=A, b=b, g=g, x_true=x_bar, support_true=support, seed=seed, meta=meta)


def default_box(x_true) -> BoxConstraint:
    """The synthetic-benchmark radius ``R = 1000 ||x_true||_inf``."""
    scale = float(np.max(np.abs(x_true)))
    if scale == 0:
        raise ValueError("x_true is zero")
    return BoxConstraint(R=1000.0 * scale)


# ---------------------------------------------------------------------------
# oracles


def oracle_ls(inst: Instance) -> OracleResult:
    """Least squares restricted to the true group support.

    One least-squares solve on the restricted design gives the solution
    for ``b`` and the projected noise for ``eps``.  Requires the restricted
    design to have full column rank; off-support coordinates of both are
    exactly zero.
    """
    if inst.support_true is None:
        raise ValueError("oracle_ls requires a known support")
    cols = inst.g.segments(np.isin(np.arange(inst.g.m), inst.support_true))[0]
    A_s = inst.A[:, cols]
    sol, _, rank, _ = np.linalg.lstsq(A_s, np.column_stack((inst.b, inst.noise)), rcond=None)
    if rank < A_s.shape[1]:
        raise SingularDesignError("restricted design is rank deficient")
    x_ls = np.zeros(inst.g.p)
    proj_full = np.zeros(inst.g.p)
    x_ls[cols], proj_full[cols] = sol.T
    return OracleResult(x_ls, proj_full)


def _box_restricted_ls(A_s, b, R: float):
    """Least squares over the box ``[-R, R]`` (Stark & Parker's BVLS).

    From ``x = 0``, the free coordinates move towards their least-squares
    solution with the bound ones held, stopping at the first bound met on
    the way.  Then the bound coordinate whose gradient points furthest into
    the box is freed, and the move repeats.  It stops at a KKT point of this
    convex problem, its exact minimizer, or once the residual stops falling.
    """
    x = np.zeros(A_s.shape[1])
    side = np.zeros(A_s.shape[1])  # -1 / +1 at the lower / upper bound, 0 free
    cost = np.inf
    while True:
        while True:
            free = np.flatnonzero(side == 0)
            held = A_s[:, side != 0] @ x[side != 0]
            z = np.linalg.lstsq(A_s[:, free], b - held, rcond=None)[0]
            out = np.flatnonzero(np.abs(z) > R)
            if out.size == 0:
                x[free] = z
                break
            d = z - x[free]
            steps = (np.copysign(R, z[out]) - x[free][out]) / d[out]
            i = np.argmin(steps)
            x[free] = np.clip(x[free] + steps[i] * d, -R, R)
            j = free[out[i]]
            side[j] = np.sign(z[out[i]])
            x[j] = side[j] * R
        r = b - A_s @ x
        if r @ r >= cost:
            return x
        cost = r @ r
        pull = -side * (A_s.T @ r)  # > 0: freeing that coordinate lowers the residual
        j = np.argmax(pull)
        if pull[j] <= 0:
            return x
        side[j] = 0


def brute_force_zero_norm(inst: Instance, nu: float, box: BoxConstraint):
    """Certified global minimizer of the group zero-norm objective.

    Enumerates all group supports (requires m <= 16) and solves the
    box-constrained least squares on each; returns the minimizer of
    ``(nu/2n) ||Ax - b||^2 + #nonzero groups`` and its objective.  A
    least-squares solution inside the box is the box-constrained one;
    only a support whose solution leaves the box runs the BVLS solve.
    """
    m = inst.g.m
    if m > 16:
        raise ValueError("support enumeration refused for m > 16")
    n = inst.A.shape[0]
    best_obj = np.inf
    best_x = np.zeros(inst.g.p)
    bits = 1 << np.arange(m)
    for mask in range(2**m):
        x = np.zeros(inst.g.p)
        r = -inst.b
        if mask:
            cols = inst.g.segments((mask & bits) > 0)[0]
            A_s = inst.A[:, cols]
            x_s, *_ = np.linalg.lstsq(A_s, inst.b, rcond=None)
            if np.max(np.abs(x_s)) > box.R:
                x_s = _box_restricted_ls(A_s, inst.b, box.R)
            x[cols] = x_s
            r = A_s @ x_s - inst.b
        obj = nu / (2.0 * n) * (r @ r) + group_support(x, inst.g).size
        if obj < best_obj:
            best_obj = obj
            best_x = x
    return best_x, float(best_obj)


def gsparse_objective(x, inst: Instance, nu: float) -> float:
    """The group zero-norm objective of an arbitrary point, counting by ``group_support``."""
    r = inst.A @ x - inst.b
    n = inst.A.shape[0]
    return float(nu / (2.0 * n) * (r @ r) + group_support(x, inst.g).size)


# ---------------------------------------------------------------------------
# metrics


def metrics(x_out, inst: Instance) -> dict:
    """Recovery metrics of an estimate against the instance ground truth.

    A group counts as found when it has a nonzero coordinate (``group_support``).
    """
    x_out = np.asarray(x_out, dtype=float)
    if inst.x_true is None or not np.any(inst.x_true):
        raise ValueError("relative error undefined without a nonzero x_true")
    relerr = float(np.linalg.norm(x_out - inst.x_true) / np.linalg.norm(inst.x_true))
    found = set(group_support(x_out, inst.g).tolist())
    truth = set(np.asarray(inst.support_true).tolist())
    tp = len(found & truth)
    return {
        "relerr": relerr,
        "group_sparsity": len(found),
        "support_precision": tp / len(found) if found else 1.0,
        "support_recall": tp / len(truth) if truth else 1.0,
        "exact_support": found == truth,
    }
