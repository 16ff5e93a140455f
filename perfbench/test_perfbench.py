"""Tests of the benchmark's own checkers, tracer and headline property.

    python3 -m pytest perfbench -q

The last test runs two workloads end to end and takes about a minute.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from srcpath import use_checkout_src

use_checkout_src()

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
from gsreg import mscra, wl21  # noqa: E402
from gsreg.groups import BoxConstraint, contiguous_groups  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def test_finite_in_box():
    x = np.array([1.0, -2.0, 0.5])
    assert checks.finite_in_box(x, 2.0)
    assert not checks.finite_in_box(x, 1.5)
    assert not checks.finite_in_box(np.array([1.0, np.nan, 0.0]), 2.0)
    assert not checks.check_gep(np.array([np.inf, 0.0]), np.eye(2), np.ones(2),
                                contiguous_groups(2, 2).groups, 10.0, [0])["ok"]


def test_oracle_check_accepts_restricted_ls_and_flags_perturbed():
    rng = np.random.default_rng(0)
    n, p, m = 20, 12, 4
    groups = contiguous_groups(p, m).groups
    A = rng.standard_normal((n, p))
    x_true = np.zeros(p)
    x_true[groups[0]] = [1.0, -2.0, 3.0]
    x_true[groups[2]] = [0.5, 0.5, -1.0]
    b = A @ x_true  # noiseless: the restricted least squares is x_true itself

    exact = checks.check_gep(x_true, A, b, groups, 10.0, [0, 2])
    assert exact["ok"] and exact["exact_support"] and exact["oracle_dist"] < 1e-12

    off = x_true.copy()
    off[1] += 1e-3
    flagged = checks.check_gep(off, A, b, groups, 10.0, [0, 2])
    assert flagged["exact_support"] and not flagged["ok"]
    assert flagged["oracle_dist"] > checks.ORACLE_RTOL


def test_gap_check_accepts_block_soft_threshold_and_flags_perturbed():
    # with A = I the weighted l2,1 minimizer is groupwise shrinkage of b
    rng = np.random.default_rng(1)
    p, m = 12, 4
    groups = contiguous_groups(p, m).groups
    b = rng.standard_normal(p) * 2.0
    omega = np.full(m, 1.5)
    x = np.zeros(p)
    for i, idx in enumerate(groups):
        nrm = np.linalg.norm(b[idx])
        x[idx] = b[idx] * max(0.0, 1.0 - omega[i] / nrm)
    A = np.eye(p)

    exact = checks.check_group_lasso(x, A, b, groups, 100.0, omega)
    assert exact["ok"] and abs(exact["rel_gap"]) < 1e-12

    off = x.copy()
    off[groups[1]] += 0.2
    flagged = checks.check_group_lasso(off, A, b, groups, 100.0, omega)
    assert not flagged["ok"] and flagged["rel_gap"] > checks.GAP_RTOL


def test_gap_check_matches_solver_optimum():
    rng = np.random.default_rng(2)
    n, p, m = 30, 48, 12
    g = contiguous_groups(p, m)
    A = rng.standard_normal((n, p))
    b = A[:, :8] @ rng.standard_normal(8) + 0.1 * rng.standard_normal(n)
    omega = np.full(m, 0.3 * np.max(np.abs(A.T @ b)))
    spec = wl21.SubproblemSpec(A=A, b=b, g=g, omega=omega, box=BoxConstraint(1e4))
    x, _, _ = wl21.alm_solve(spec, wl21.AlmConfig(tol=1e-8))
    assert checks.relative_gap(x, A, b, g.groups, omega) <= 1e-6


def _tiny_traced_solve():
    rng = np.random.default_rng(3)
    n, p, m = 24, 32, 8
    g = contiguous_groups(p, m)
    A = rng.standard_normal((n, p))
    x = np.zeros(p)
    x[:8] = 3.0
    b = A @ x + 0.1 * rng.standard_normal(n)
    tracer = tracing.Tracer()
    with tracer.installed():
        mscra.run(A, b, g, BoxConstraint(1e3), mscra.MscraConfig())
    return tracer


def test_tracer_counts_repeat_and_wrappers_are_removed():
    original = (mscra.run, mscra.alm_solve, wl21.gen_hessian_apply)
    first, second = _tiny_traced_solve(), _tiny_traced_solve()
    assert (mscra.run, mscra.alm_solve, wl21.gen_hessian_apply) == original

    a, b = first.metrics(), second.metrics()
    counts = [k for k, (_, unit) in a.items() if unit in ("count", "1")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["mscra.run.calls"][0] == 1
    assert a["wl21.alm_solve.calls"][0] == a["mscra.stages"][0]
    assert a["wl21.gen_hessian_apply.calls"][0] == a["wl21.sncg.cg_iters"][0] > 0
    assert a["groups.group_norms.calls"][0] > 0
    for name in tracing.NAMES:
        assert a[f"{name}.self_s"][0] <= a[f"{name}.s"][0] + 1e-12
    # the root span's duration is all traced time below and including it
    assert a["mscra.run.s"][0] >= a["wl21.alm_solve.s"][0]


def test_speed_sampler_samples_during_block_and_restores_signal():
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with probe.SpeedSampler(matvec_share=0.5) as speed:
        while time.perf_counter() - t0 < 5 * probe.INTERVAL_S:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample at the start, then one per interval from the timer
    assert len(speed.loop_s) == len(speed.matvec_s) >= 3
    assert 0 < speed.spent_s < elapsed
    assert speed.ref_scale() > 0


def _run(workload):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_multi_stage_beats_one_stage_on_identical_instances():
    gep, one = _run("large_signal"), _run("group_lasso")
    for res in (gep, one):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] == 12
    ratio = gep["metrics"]["relerr_mean"]["value"] / one["metrics"]["relerr_mean"]["value"]
    assert ratio <= 0.5, f"relerr ratio {ratio:.3f}"
