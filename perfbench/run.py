"""Fixed-work benchmark of the gsreg solver stack.

    python3 perfbench/run.py --workload large_signal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run generates its workload's fixed list of instances (timed as
set-up), then solves the whole list in an order drawn from ``--seed``,
repeating whole rounds until ``--seconds`` have passed.  Fixed
reference kernels sample the core's speed during every solve, and the
end-to-end times are given in reference seconds (see ``probe.py``).
Every output is checked apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``; per-layer metrics from a traced
round, beside an untraced round of the same list, with ``--trace 1``).
``--workload all`` runs every workload in its own fresh process.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

from srcpath import REPO, use_checkout_src

use_checkout_src()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = REPO / "perfbench" / "out"
# generations of the whole list before the first round, so that setup_s
# is a median of several samples even when a run is a single round
SETUP_REPEATS = 5


def timed(sampler, fn, *args) -> tuple:
    """Run ``fn(*args)`` inside ``sampler``, a ``probe.SpeedSampler`` or None.

    Returns the result, its own wall time (without the sampler's kernels)
    and that time in reference seconds (None without a sampler).
    """
    t0 = time.perf_counter()
    if sampler is None:
        out = fn(*args)
        return out, time.perf_counter() - t0, None
    with sampler:
        out = fn(*args)
    own = time.perf_counter() - t0 - sampler.spent_s
    return out, own, own * sampler.ref_scale()


def prepare_list(wl, setup_times) -> list:
    """Generate the whole list; with ``setup_times``, keep each case's time in reference seconds."""
    prepared = []
    sampler = probe.SpeedSampler(wl.matvec_share) if setup_times is not None else None
    for i, case in enumerate(wl.cases):
        item, _, ref = timed(sampler, workloads.prepare_case, wl, case)
        prepared.append(item)
        if setup_times is not None:
            setup_times[i].append(ref)
    return prepared


def warm_up() -> None:
    """One tiny solve, so lazy imports and first-call costs stay out of the timing."""
    wl = workloads.Workload("warm_up", (workloads.Case("I", "i", 32, 64, 8, 2, 2.0, 1),),
                            "gep", 0.1)
    timed(probe.SpeedSampler(), workloads.solve, prepare_list(wl, None)[0])


def check(wl, item, x) -> dict:
    inst = item.inst
    groups = inst.g.groups
    if wl.estimator == "gep":
        return checks.check_gep(x, inst.A, inst.b, groups, item.box.R, inst.support_true)
    omega = [inst.A.shape[0] / item.nu] * len(groups)  # stage 1: n * (1/nu) * (1 - 0)
    return checks.check_group_lasso(x, inst.A, inst.b, groups, item.box.R, omega)


def solve_round(wl, prepared, order, setup_times=None, sample: bool = True) -> list:
    """Solve the whole list once in ``order``; one record per solve.

    Each solve's time is given as its own wall time and, if ``sample``,
    in reference seconds (see ``probe.py``).  With ``setup_times``, each
    case is generated again just before its solve, so the set-up samples
    spread over the run as the solves do.
    """
    records = []
    sampler = probe.SpeedSampler(wl.matvec_share) if sample else None
    for i in order:
        if setup_times is not None:
            prepared[i], _, prep_ref = timed(sampler, workloads.prepare_case, wl, wl.cases[i])
            setup_times[i].append(prep_ref)
        item = prepared[i]
        gc.collect()
        try:
            result, wall, ref = timed(sampler, workloads.solve, item)
        except Exception as exc:  # a failed solve is counted, the round goes on
            records.append({"case": int(i), "label": item.case.label, "wall_s": None,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        x_true = item.inst.x_true
        rec = {
            "case": int(i),
            "label": item.case.label,
            "wall_s": wall,
            "ref_s": ref,
            "relerr": float(np.linalg.norm(result.x - x_true) / np.linalg.norm(x_true)),
            "stages": result.stages,
            "stop_reason": result.stop_reason,
            "converged": result.converged,
        }
        rec["check"] = check(wl, item, result.x)
        records.append(rec)
    return records


def relerr_mean(records) -> float:
    """Mean relative error over the list, one value per case, summed in list order.

    Every round gives each case the same output, so the value is
    bit-identical whatever the solve order and the number of rounds.
    """
    per_case = {r["case"]: r["relerr"] for r in records if r["wall_s"] is not None}
    return sum(per_case[i] for i in sorted(per_case)) / len(per_case) if per_case else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    warm_up()
    tracer = tracing.Tracer() if trace else None
    count = len(wl.cases)
    setup_times = None if tracer else [[] for _ in range(count)]
    if setup_times is not None:
        for _ in range(SETUP_REPEATS - 1):
            prepare_list(wl, setup_times)
    with tracer.installed() if tracer else contextlib.nullcontext():
        prepared = prepare_list(wl, setup_times)
    order = workloads.solve_order(count, seed)

    if tracer is None:
        records = []
        start = time.perf_counter()
        while True:
            records += solve_round(wl, prepared, order, setup_times)
            if time.perf_counter() - start >= seconds:
                break
    else:
        # no speed sampling here: its kernels would run inside the spans
        plain = solve_round(wl, prepared, order, sample=False)
        with tracer.installed():
            traced = solve_round(wl, prepared, order, sample=False)
        records = plain + traced

    solved = [r for r in records if r["wall_s"] is not None]
    failed = len(records) - len(solved)
    correct = all(r["check"]["ok"] for r in solved)
    if tracer is None:
        ref = sum(r["ref_s"] for r in solved)
        metrics = {
            # solves per reference second; the plain wall-time rate is in the output file
            "solves_per_s": (len(solved) / ref if ref else 0.0, "1/s"),
            "relerr_mean": (relerr_mean(records), "1"),
            # the list's set-up time: each case's median generation time, summed, in reference seconds
            "setup_s": (sum(statistics.median(t) for t in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics()
        plain_s, traced_s = (sum(r["wall_s"] for r in rnd if r["wall_s"] is not None)
                             for rnd in (plain, traced))
        metrics["trace.untraced_s"] = (plain_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    wall = sum(r["wall_s"] for r in solved)
    wall_rate = len(solved) / wall if wall else 0.0
    stem.with_suffix(".json").write_text(
        json.dumps({**summary, "wall_solves_per_s": wall_rate, "solves": records}, indent=1))
    for r in records:
        if r["wall_s"] is None:
            print(f"{r['label']:<34} FAILED {r['error']}")
        else:
            ref = f"{r['ref_s']:8.3f} ref s" if r["ref_s"] is not None else ""
            print(f"{r['label']:<34} {r['wall_s']:8.3f} s  {ref:>14}  relerr {r['relerr']:.3e}  "
                  f"stages {r['stages']}  {'ok' if r['check']['ok'] else 'WRONG'}")
    print(f"wall-time rate {wall_rate:.4g} solves/s")
    return summary


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own fresh process; metrics prefixed by the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"[{name}] attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        summary = run_all(args.seed, args.seconds, args.trace)
    else:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
