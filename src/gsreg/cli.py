"""Command-line front end: instance generation, solves, benchmark sweeps, oracles.

Exit codes: 0 success, 1 solver-not-converged, 2 usage, config or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import io as gio
from .data import (
    INSTANCE_SEEDS,
    Instance,
    brute_force_zero_norm,
    default_box,
    gsparse_objective,
    make_instance,
    metrics,
    oracle_ls,
)
from .groups import BoxConstraint, group_support
from .mscra import MscraConfig, default_nu, run, unpenalized_columns

# cell k of a plan generates its instance from seed + CELL_SEED_STRIDE k
CELL_SEED_STRIDE = 1000

# nu factor of the one-stage group-lasso baseline that `bench` runs beside GEP-MSCRA
STAGE1_NU_FACTOR = 0.13


@dataclass(frozen=True)
class ExperimentPlan:
    """The instances of a sweep: one generated instance per cell."""

    design: str = "I"
    signals: tuple = ("i",)
    p: int = 512
    m: int = 64
    r_bar: int = 6
    betas: tuple = (8,)
    alpha: float = 2.0
    theta1: float = 0.1
    theta2: float = 0.1
    reps: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.betas or not all(1 <= beta <= self.p for beta in self.betas):
            raise ValueError(f"each beta must lie in [1, p = {self.p}], got {list(self.betas)}")
        if not 1 <= self.r_bar <= self.m:
            raise ValueError(f"r_bar must lie in [1, m = {self.m}], got {self.r_bar}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        # the last cell's instance must draw its last sub-seed below 2**64 too
        cells = len(self.signals) * len(self.betas) * self.reps
        top = 2**64 - INSTANCE_SEEDS - CELL_SEED_STRIDE * (cells - 1)
        if self.seed > top:
            raise ValueError(f"seed must be at most {top} for this plan's cells, got {self.seed}")

    def cells(self):
        """Deterministic enumeration of (signal, beta, rep, seed) cells."""
        idx = 0
        for signal in self.signals:
            for beta in self.betas:
                for rep in range(self.reps):
                    yield signal, beta, rep, self.seed + CELL_SEED_STRIDE * idx
                    idx += 1

    def instance(self, signal, beta, seed) -> Instance:
        """The generated instance of one cell, with ``n = p // beta``."""
        return make_instance(self.design, signal, self.p // beta, self.p, self.m, self.r_bar,
                             self.alpha, self.theta1, self.theta2, seed)

    def to_dict(self) -> dict:
        return asdict(self)


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


_JSON_TYPES = {float: (int, float), int: (int,), str: (str,)}


def _scalar(kind, value, name: str):
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"config key {name!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _build(cls, raw, where: str = ""):
    """Instantiate the config dataclass ``cls`` from the JSON object ``raw``.

    Every key must name a settable field, and each value must have its
    field's type; a nested dataclass field takes a nested object.
    Anything else raises ValueError naming the dotted key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config key {where.rstrip('.')!r} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        name = where + key
        if key not in hints:
            raise ValueError(f"unknown config key {name!r}")
        kind = hints[key]
        if is_dataclass(kind):
            kwargs[key] = _build(kind, value, name + ".")
        elif value is None and type(None) in typing.get_args(kind):
            kwargs[key] = None
        else:
            kind = next((k for k in typing.get_args(kind) if k is not type(None)), kind)
            kwargs[key] = _scalar(kind, value, name)
    return cls(**kwargs)


def _config_from_file(path) -> MscraConfig:
    """The ``MscraConfig`` of a ``--config`` file (a nested object for ``phi``);
    without a file every value is the default."""
    raw = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {raw!r}")
    return _build(MscraConfig, raw)


def _instance_box(inst: Instance) -> BoxConstraint:
    if inst.x_true is not None and np.any(inst.x_true):
        return default_box(inst.x_true)
    return BoxConstraint(R=2000.0)


def _solve_one(inst: Instance, cfg: MscraConfig):
    """The summary row and the result of one solve."""
    box = _instance_box(inst)
    t0 = time.perf_counter()
    result = run(inst.A, inst.b, inst.g, box, cfg)
    elapsed = time.perf_counter() - t0
    row = {
        "stages": result.stages,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "inner_failures": result.inner_failures,
        # SNCG calls over all stages that met none of their exits, those that
        # ended at SSNAL's criterion (B) on the gradient and on the Newton
        # decrement, and those that ended at a certified point
        "sncg_unmet": sum(t.inner_stats.sncg_unmet for t in result.traces),
        "sncg_early": sum(t.inner_stats.sncg_early for t in result.traces),
        "sncg_decrement": sum(t.inner_stats.sncg_decrement for t in result.traces),
        "sncg_certified": sum(t.inner_stats.sncg_certified for t in result.traces),
        # the largest certified gap over its stage's tolerance; None (an empty
        # cell) where no stage computed a certificate
        "max_cert_ratio": max((t.inner_stats.cert_gap / t.tol for t in result.traces
                               if t.inner_stats.cert_gap is not None), default=None),
        "time": elapsed,
        "nu": result.nu,
    }
    if inst.x_true is not None and np.any(inst.x_true):
        row.update(metrics(result.x, inst))
    else:
        row["group_sparsity"] = group_support(result.x, inst.g).size
    return row, result


_BENCH_KEYS = ("relerr", "group_sparsity", "time", "stages", "exact_support", "inner_failures",
               "sncg_unmet", "sncg_early", "sncg_decrement", "sncg_certified")
_BENCH_FIELDS = ["signal", "beta", "n", "rep", "seed", "plan_hash", "error"] + [
    f"{mode}_{key}" for mode in ("gep", "stage1") for key in _BENCH_KEYS]
_AGG_KEYS = {"relerr": "mean_relerr", "time": "mean_time", "group_sparsity": "mean_sparsity"}
_AGG_FIELDS = ["signal", "beta", "n", "reps", "plan_hash"] + [
    f"{mode}_{key}" for mode in ("gep", "stage1") for key in _AGG_KEYS.values()]


def _bench_cell(plan: ExperimentPlan, cfg: MscraConfig, signal, beta, rep, seed, mode) -> dict:
    """The ``bench.csv`` row of one cell: GEP-MSCRA runs ``cfg``, the
    one-stage baseline runs it with one stage at ``STAGE1_NU_FACTOR``."""
    inst = plan.instance(signal, beta, seed)
    row = {"signal": signal, "beta": beta, "n": inst.A.shape[0], "rep": rep, "seed": seed}
    configs = {"gep": cfg, "stage1": replace(cfg, max_stages=1, nu_factor=STAGE1_NU_FACTOR)}
    try:
        for name, mode_cfg in configs.items():
            if mode in (name, "both"):
                solved, _ = _solve_one(inst, mode_cfg)
                row.update({f"{name}_{key}": solved.get(key) for key in _BENCH_KEYS})
    except Exception as exc:  # record per-cell failures, keep the sweep going
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _parse_betas(text: str):
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.split(","))


def _add_plan_flags(sp):
    sp.add_argument("--design", default="I", choices=["I", "II", "III"])
    sp.add_argument("--signals", default="i", help="comma list from {i,ii,iii,iv}")
    sp.add_argument("--p", type=int, default=512)
    sp.add_argument("--m", type=int, default=64)
    sp.add_argument("--r-bar", type=int, default=6)
    sp.add_argument("--betas", default="8", help="'5:17' range or comma list; n = floor(p/beta)")
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--theta1", type=float, default=0.1)
    sp.add_argument("--theta2", type=float, default=0.1)
    sp.add_argument("--reps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out")


def _plan_from_args(args) -> ExperimentPlan:
    return ExperimentPlan(
        design=args.design,
        signals=tuple(args.signals.split(",")),
        p=args.p,
        m=args.m,
        r_bar=args.r_bar,
        betas=_parse_betas(args.betas),
        alpha=args.alpha,
        theta1=args.theta1,
        theta2=args.theta2,
        reps=args.reps,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    plan = _plan_from_args(args)
    out = Path(args.out)
    count = 0
    for signal, beta, rep, seed in plan.cells():
        inst = plan.instance(signal, beta, seed)
        gio.save_instance(out / f"{plan.design}_{signal}_b{beta}_r{rep}", inst)
        count += 1
    (out / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2))
    print(f"wrote {count} instances under {out}")
    return 0


def cmd_solve(args) -> int:
    inst = gio.load_instance(args.instance)
    cfg = _config_from_file(args.config)
    row, result = _solve_one(inst, cfg)
    out = Path(args.out or args.instance)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_traces_jsonl(out / "traces.jsonl", result.traces, include_x=args.emit_x)
    gio.write_vector(out / "x_out.f64", result.x)
    # the settings that ran, defaults and nu resolved, so that equal runs hash
    # equal; nu_factor did not run once nu is resolved
    resolved = asdict(replace(cfg, nu=result.nu))
    del resolved["nu_factor"]
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    row["seed"] = inst.seed
    row["config_hash"] = _hash(resolved)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted(row))
        writer.writeheader()
        writer.writerow(row)
    print(json.dumps(row, default=str))
    if not result.converged:
        print(f"not converged: {_failure_reason(result, inst)}", file=sys.stderr)
        return 1
    return 0


def _failure_reason(result, inst: Instance) -> str:
    reasons = []
    if result.stop_reason == "max_stages":
        reasons.append(f"no stopping rule fired in {result.stages} stages")
    if result.stop_reason == "interpolating":
        free = unpenalized_columns(result.traces[-2].w, inst.g)
        reasons.append(f"stage {result.stages} left {free} columns unpenalized, at least"
                       f" n = {inst.A.shape[0]}, so its fit interpolates b")
    causes = [t.inner_stats.stop_cause for t in result.traces]
    if "max_outer" in causes:
        reasons.append(f"{causes.count('max_outer')} of {result.stages} stage ALM solves"
                       f" hit max_outer")
    if "line_search" in causes:
        stalls = sum(t.inner_stats.sncg_stalls for t in result.traces
                     if t.inner_stats.stop_cause == "line_search")
        reasons.append(f"{causes.count('line_search')} of {result.stages} stage ALM solves"
                       f" stopped after two line searches in a row that moved nothing"
                       f" ({stalls} stalled SNCG calls)")
    return "; ".join(reasons)


def cmd_bench(args) -> int:
    plan = _plan_from_args(args)
    cfg = _config_from_file(args.config)
    # what a sweep reads: the instances and the solver settings, not where it writes
    setup = {"plan": plan.to_dict(), "config": asdict(cfg)}
    plan_hash = _hash(setup)
    rows = [_bench_cell(plan, cfg, *cell, args.mode) | {"plan_hash": plan_hash}
            for cell in plan.cells()]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(json.dumps(setup, indent=2, sort_keys=True))
    with open(out / "bench.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    # aggregate means per (signal, beta)
    groups: dict = {}
    for row in rows:
        if "error" not in row:
            groups.setdefault((row["signal"], row["beta"]), []).append(row)
    with open(out / "bench_agg.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_AGG_FIELDS)
        writer.writeheader()
        for (signal, beta), cell_rows in sorted(groups.items()):
            arow = {"signal": signal, "beta": beta, "n": cell_rows[0]["n"],
                    "reps": len(cell_rows), "plan_hash": plan_hash}
            for mode in ("gep", "stage1"):
                if f"{mode}_relerr" in cell_rows[0]:
                    for key, agg in _AGG_KEYS.items():
                        arow[f"{mode}_{agg}"] = float(np.mean([r[f"{mode}_{key}"] for r in cell_rows]))
            writer.writerow(arow)
    failures = sum("error" in r for r in rows)
    print(f"bench complete: {len(rows)} cells, {failures} failures -> {out}")
    return 0


def cmd_oracle(args) -> int:
    if args.nu is not None and not (np.isfinite(args.nu) and args.nu > 0):
        raise ValueError(f"nu must be positive and finite, got {args.nu}")
    inst = gio.load_instance(args.instance)
    report = {}
    res = oracle_ls(inst)
    report["x_ls_norm"] = float(np.linalg.norm(res.x_ls))
    nu = args.nu if args.nu is not None else default_nu(inst.A, inst.b)
    report["nu"] = nu
    if inst.g.m <= 16:
        box = _instance_box(inst)
        x_star, obj = brute_force_zero_norm(inst, nu, box)
        report["brute_force_objective"] = obj
        report["ls_objective_at_support"] = gsparse_objective(res.x_ls, inst, nu)
    else:
        report["brute_force_objective"] = None
    print(json.dumps(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsreg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate instance directories for a plan")
    _add_plan_flags(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("solve", help="solve one saved instance")
    sp.add_argument("instance")
    sp.add_argument("--config", default=None, help="JSON file of MscraConfig settings")
    sp.add_argument("--out", default=None)
    sp.add_argument("--emit-x", action="store_true", help="include x in the JSONL traces")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bench", help="benchmark sweep over a plan")
    _add_plan_flags(sp)
    sp.add_argument("--config", default=None, help="JSON file of MscraConfig settings")
    sp.add_argument("--mode", default="both", choices=["gep", "stage1", "both"])
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("oracle", help="restricted LS and brute-force oracles")
    sp.add_argument("instance")
    sp.add_argument("--nu", type=float, default=None)
    sp.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
