"""End-to-end acceptance gate.

Each test prints a one-line PASS report with its wall time so the suite
doubles as a release checklist.  Numbered comments give the check and
its tolerance; the numbers match the order below:

 1. conjugate closed forms vs a fine-grid oracle        (1e-4,  < 10 s)
 2. SCAD/MCP surrogate recovery under substitution      (1e-10, < 1 s)
 3. inner dual solver vs a first-order reference        (1e-5,  < 2 min)
 4. generalized Hessian vs dense assembly and FD        (1e-10 / 1e-5)
 5. desk-scale global optimality vs brute force         (1e-6 on >= 80%)
 6. oracle coincidence with restricted least squares    (1e-4 on successes)
 7. multi-stage error reduction vs the one-stage run    (ratio <= 0.5)
 8. group-sparsity fidelity of the multi-stage output   (median gap <= 1)
 9. restricted-LS groupwise error bound                 (100/100 instances)
10. variational witness for the zero-norm               (exact, grid-optimal)
"""

import time

import numpy as np
import pytest

from gsreg.data import (
    brute_force_zero_norm,
    default_box,
    gsparse_objective,
    make_instance,
    metrics,
    oracle_ls,
)
from gsreg.groups import BoxConstraint, contiguous_groups, group_norms
from gsreg.mscra import MscraConfig, default_nu, run
from gsreg.penalties import (
    PhiSpec,
    phi_constants,
    phi_eval,
    psi_star_eval,
    theta_eval,
)
from gsreg.wl21 import (
    AlmConfig,
    DualState,
    SubproblemSpec,
    alm_solve,
    gen_hessian_apply,
    phi_kj_grad,
    primal_objective,
)

from conftest import clarke_block
from reference import fista_reference

FAMILIES = [
    PhiSpec("scad", a=3.7),
    PhiSpec("mcp", a=3.0),
    PhiSpec("capped_l1"),
    PhiSpec("lq", q=0.5, eps=1e-2),
]


def report(num, detail, t0):
    print(f"\n[criterion {num:2d}] PASS ({time.perf_counter() - t0:.1f}s) {detail}")


def test_criterion_1_conjugate_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    t_grid = np.arange(0.0, 1.0 + 1e-5, 1e-5)
    t_grid = np.minimum(t_grid, 1.0)
    worst = 0.0
    for spec in FAMILIES:
        phi_vals = np.asarray(phi_eval(spec, t_grid))
        s = rng.uniform(-20.0, 20.0, 1000)
        got = np.asarray(psi_star_eval(spec, s))
        for lo in range(0, s.size, 100):
            block = s[lo:lo + 100]
            oracle = np.max(np.outer(block, t_grid) - phi_vals, axis=1)
            err = np.max(np.abs(got[lo:lo + 100] - oracle))
            worst = max(worst, err)
            assert err < 1e-4, f"{spec.family}: conjugate off by {err}"
    report(1, f"max deviation {worst:.2e} over 4 families x 1000 points", t0)


def test_criterion_2_surrogate_recovers_scad_and_mcp():
    t0 = time.perf_counter()
    lam = 0.7

    a = 3.7
    spec = PhiSpec("scad", a=a)
    v1 = (a + 1.0) / 2.0
    s = np.arange(0.0, 2.0 * a * lam, 1e-3)
    got = lam**2 * v1 * np.asarray(theta_eval(spec, s / (lam * v1)))
    expected = np.where(
        s <= lam,
        s * lam,
        np.where(
            s <= a * lam,
            (-(s**2) + 2.0 * a * s * lam - lam**2) / (2.0 * (a - 1.0)),
            (a + 1.0) * lam**2 / 2.0,
        ),
    )
    err_scad = np.max(np.abs(got - expected))
    assert err_scad < 1e-10

    a = 3.0
    spec = PhiSpec("mcp", a=a)
    s = np.arange(0.0, 2.0 * a * lam, 1e-3)
    # nu = 2/(lam^2 a), rho = 1/lam turns Theta into the MCP with gamma = a
    got = (lam**2 * a / 2.0) * np.asarray(theta_eval(spec, s / lam))
    expected = np.where(s <= a * lam, lam * s - s**2 / (2.0 * a), a * lam**2 / 2.0)
    err_mcp = np.max(np.abs(got - expected))
    assert err_mcp < 1e-10
    report(2, f"scad {err_scad:.2e}, mcp {err_mcp:.2e} on 1e-3 grids", t0)


def test_criterion_3_inner_solver_against_reference():
    t0 = time.perf_counter()
    n, p, m = 200, 400, 50
    g = contiguous_groups(p, m)
    worst_eps, worst_rel = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        A = rng.standard_normal((n, p)) / np.sqrt(n)
        x_true = np.zeros(p)
        for i in rng.permutation(m)[: m // 2]:
            x_true[g.groups[i]] = rng.standard_normal(g.groups[i].size)
        b = A @ x_true + 0.05 * rng.standard_normal(n)
        omega = rng.uniform(0.01, 0.2, m)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=omega, box=BoxConstraint(1e4))
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-5))
        eps = max(stats.eps_pinf, stats.eps_dinf, stats.eps_gap)
        assert stats.converged and eps <= 1e-5, f"seed {seed}: eps {eps}"
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-8)
        p_alm = primal_objective(x, spec)
        p_ref = primal_objective(x_ref, spec)
        rel = abs(p_alm - p_ref) / max(1.0, abs(p_ref))
        assert rel <= 1e-5, f"seed {seed}: objective gap {rel}"
        worst_eps, worst_rel = max(worst_eps, eps), max(worst_rel, rel)
    report(3, f"20 instances, worst eps {worst_eps:.2e}, worst obj gap {worst_rel:.2e}", t0)


def test_criterion_4_generalized_hessian_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)

    # dense assembly comparison at n <= 30
    n, p, m = 25, 36, 12
    A = rng.standard_normal((n, p)) / np.sqrt(n)
    g = contiguous_groups(p, m)
    b = rng.standard_normal(n)
    omega = rng.uniform(0.0, 0.3, m)
    spec = SubproblemSpec(A=A, b=b, g=g, omega=omega, box=BoxConstraint(1e3))
    state = DualState.cold(spec, 1.7)
    state.x = rng.standard_normal(p)
    eta = 0.05 * rng.standard_normal(p)
    xi = rng.standard_normal(n)
    y = A.T @ xi + eta + state.x / state.sigma
    W = np.zeros((p, p))
    for i, idx in enumerate(g.groups):
        W[np.ix_(idx, idx)] = clarke_block(y[idx], omega[i])
    V = np.eye(n) + state.sigma * A @ (np.eye(p) - W) @ A.T
    dense_err = 0.0
    for _ in range(10):
        d = rng.standard_normal(n)
        dense_err = max(
            dense_err,
            np.max(np.abs(gen_hessian_apply(d, xi, eta, state, spec) - V @ d)),
        )
    assert dense_err < 1e-10

    # finite differences of the gradient at differentiable points
    checked = 0
    fd_worst = 0.0
    while checked < 50:
        xi = rng.standard_normal(n)
        y = A.T @ xi + eta + state.x / state.sigma
        margins = np.array(
            [abs(np.linalg.norm(y[idx]) - omega[i]) for i, idx in enumerate(g.groups)]
        )
        if np.min(margins) < 1e-3:
            continue  # too close to the projection kink to difference safely
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (
            phi_kj_grad(xi + h * d, eta, state, spec)
            - phi_kj_grad(xi - h * d, eta, state, spec)
        ) / (2.0 * h)
        hv = gen_hessian_apply(d, xi, eta, state, spec)
        rel = np.linalg.norm(hv - fd) / max(1.0, np.linalg.norm(hv))
        assert rel < 1e-5, f"point {checked}: directional derivative off by {rel}"
        fd_worst = max(fd_worst, rel)
        checked += 1
    report(4, f"dense {dense_err:.2e}, finite-difference worst {fd_worst:.2e}", t0)


def test_criterion_5_desk_scale_global_optimality():
    t0 = time.perf_counter()
    hits = 0
    worst_under = 0.0
    cfg = MscraConfig(tol_decay=0.2, tol_floor=1e-9)
    for seed in range(50):
        inst = make_instance(design="I", signal="i", n=20, p=10, m=5, r_bar=2,
                             alpha=2.0, theta1=0.05, theta2=0.05, seed=5000 + seed)
        box = default_box(inst.x_true)
        nu = default_nu(inst.A, inst.b)
        res = run(inst.A, inst.b, inst.g, box, cfg)
        obj = gsparse_objective(res.x, inst, nu)
        _, best = brute_force_zero_norm(inst, nu, box)
        under = best - obj
        worst_under = max(worst_under, under)
        assert under <= 1e-8, f"seed {seed}: output beats the certified optimum by {under}"
        if obj <= best + 1e-6:
            hits += 1
    assert hits >= 40, f"only {hits}/50 instances reached the global optimum"
    report(5, f"{hits}/50 optimal, worst undercut {worst_under:.2e}", t0)


def test_criterion_6_oracle_coincidence():
    t0 = time.perf_counter()
    successes, rels = 0, []
    for seed in range(20):
        inst = make_instance(design="I", signal="i", n=128, p=512, m=64, r_bar=6,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=6000 + seed)
        box = default_box(inst.x_true)
        res = run(inst.A, inst.b, inst.g, box, MscraConfig(tol_decay=0.2, tol_floor=1e-8))
        mm = metrics(res.x, inst)
        if mm["exact_support"]:
            successes += 1
            x_ls = oracle_ls(inst).x_ls
            rel = np.linalg.norm(res.x - x_ls) / np.linalg.norm(x_ls)
            assert rel <= 1e-4, f"seed {seed}: distance to restricted LS {rel}"
            rels.append(rel)
    assert successes >= 18, f"exact support on only {successes}/20 seeds"
    report(6, f"{successes}/20 supports exact, worst LS distance {max(rels):.2e}", t0)


@pytest.fixture(scope="module")
def reduction_runs():
    """Shared runs for criteria 7 and 8: GEP vs one-stage at n = p/8."""
    rows = []
    p, m, r_bar, n = 512, 64, 6, 64
    for design in ("I", "II"):
        for signal in ("i", "ii", "iii"):
            # the large-signal variant, where one-stage shrinkage bias dominates
            alpha = 1e5
            for seed in range(10):
                inst = make_instance(design=design, signal=signal, n=n, p=p, m=m,
                                     r_bar=r_bar, alpha=alpha, theta1=0.1,
                                     theta2=0.1, seed=7000 + seed)
                box = default_box(inst.x_true)
                gep = run(inst.A, inst.b, inst.g, box, MscraConfig())
                nu1 = default_nu(inst.A, inst.b, factor=0.13)
                one = run(inst.A, inst.b, inst.g, box, MscraConfig(nu=nu1, max_stages=1))
                rows.append(
                    {
                        "design": design,
                        "signal": signal,
                        "gep_relerr": metrics(gep.x, inst)["relerr"],
                        "one_relerr": metrics(one.x, inst)["relerr"],
                        "gep_sparsity": metrics(gep.x, inst)["group_sparsity"],
                        "one_sparsity": metrics(one.x, inst)["group_sparsity"],
                    }
                )
    return rows, r_bar


def test_criterion_7_multi_stage_error_reduction(reduction_runs):
    t0 = time.perf_counter()
    rows, _ = reduction_runs
    gep = float(np.mean([r["gep_relerr"] for r in rows]))
    one = float(np.mean([r["one_relerr"] for r in rows]))
    assert gep <= 0.5 * one, f"mean relerr {gep:.4f} vs one-stage {one:.4f}"
    report(7, f"mean relerr {gep:.4f} vs one-stage {one:.4f} (ratio {gep/one:.2f})", t0)


def test_criterion_8_group_sparsity_fidelity(reduction_runs):
    t0 = time.perf_counter()
    rows, r_bar = reduction_runs
    gep_gap = float(np.median([abs(r["gep_sparsity"] - r_bar) for r in rows]))
    one_med = float(np.median([r["one_sparsity"] for r in rows]))
    assert gep_gap <= 1.0, f"median |sparsity - r_bar| = {gep_gap}"
    assert one_med >= r_bar + 2, f"one-stage median sparsity {one_med} not inflated"
    report(8, f"gep median gap {gep_gap}, one-stage median {one_med} (r_bar {r_bar})", t0)


def test_criterion_9_restricted_ls_error_bound():
    t0 = time.perf_counter()
    worst_margin = -np.inf
    for seed in range(100):
        inst = make_instance(design="I", signal="ii", n=40, p=60, m=12, r_bar=4,
                             alpha=1.0, theta1=0.1, theta2=0.1, seed=9000 + seed)
        res = oracle_ls(inst)
        lhs = np.max(group_norms(res.x_ls - inst.x_true, inst.g))
        rhs = np.max(group_norms(res.projected_noise, inst.g))
        assert lhs <= rhs + 1e-10, f"seed {seed}: bound violated by {lhs - rhs}"
        worst_margin = max(worst_margin, lhs - rhs)
    report(9, f"100/100 instances, worst margin {worst_margin:.2e}", t0)


def test_criterion_10_variational_witness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    w_grid = np.arange(0.0, 1.0 + 1e-2, 1e-2)
    for spec in FAMILIES:
        c = phi_constants(spec)
        grid_vals = np.asarray(phi_eval(spec, w_grid))
        off_support_min = float(np.min(grid_vals))  # separable objective
        for _ in range(25):
            dim = rng.integers(1, 9)
            z = rng.standard_normal(dim) * (rng.random(dim) > 0.4)
            w = np.where(z != 0.0, 1.0, c.t_star)
            # feasibility of the witness for the coupling constraint
            # (exact up to float summation order)
            assert abs(np.abs(z).sum() - w @ np.abs(z)) <= 1e-12 * max(1.0, np.abs(z).sum())
            attained = float(np.sum(np.asarray(phi_eval(spec, w))))
            assert attained == pytest.approx(np.count_nonzero(z), abs=1e-12), (
                f"{spec.family}: witness value {attained} != ||z||_0"
            )
            # any feasible grid w has w_i = 1 on supp(z); off-support
            # coordinates are free, so the grid optimum separates coordinatewise
            n_zero = dim - np.count_nonzero(z)
            grid_best = np.count_nonzero(z) * float(phi_eval(spec, 1.0)) \
                + n_zero * off_support_min
            assert attained <= grid_best + 1e-6
    report(10, "4 families x 25 witnesses exact and grid-optimal", t0)
