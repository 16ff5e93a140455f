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
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import io as gio
from .data import (
    Instance,
    brute_force_zero_norm,
    default_box,
    gsparse_objective,
    make_instance,
    metrics,
    oracle_ls,
)
from .groups import BoxConstraint
from .mscra import MscraConfig, default_nu, run
from .penalties import PhiSpec
from .wl21 import SolverStallError


@dataclass(frozen=True)
class ExperimentPlan:
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
    nu_factor: float = 0.1
    stage1_nu_factor: float = 0.13
    phi: PhiSpec = field(default_factory=PhiSpec)
    out: str = "out"

    def cells(self):
        """Deterministic enumeration of (signal, beta, rep, seed) cells."""
        idx = 0
        for signal in self.signals:
            for beta in self.betas:
                for rep in range(self.reps):
                    yield signal, beta, rep, self.seed + 1000 * idx
                    idx += 1

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "design", "p", "m", "r_bar", "alpha", "theta1", "theta2",
            "reps", "seed", "nu_factor", "stage1_nu_factor", "out")}
        d["signals"] = list(self.signals)
        d["betas"] = list(self.betas)
        d["phi"] = self.phi.to_dict()
        return d


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


_JSON_TYPES = {float: (int, float), int: (int,), str: (str,)}
_NOT_SETTABLE = {
    "w0": "it is an array; pass it through the Python API",
    "alm.tol": "each stage sets it from eps_loss, tol_decay and tol_floor",
}


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
        if name in _NOT_SETTABLE:
            raise ValueError(f"config key {name!r} is not settable: {_NOT_SETTABLE[name]}")
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


def _config_from_file(path) -> tuple[MscraConfig, float]:
    """The solver config and the ``nu`` factor of a ``--config`` file.

    The file holds ``MscraConfig`` fields (nested objects for ``phi``,
    ``alm`` and ``alm.sncg``) plus ``nu_factor``, the scale of the
    default ``nu``.  Without a file every value is the default.
    """
    raw = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {raw!r}")
    fields = dict(raw)
    nu_factor = _scalar(float, fields.pop("nu_factor", 0.1), "nu_factor")
    return _build(MscraConfig, fields), nu_factor


def _instance_box(inst: Instance) -> BoxConstraint:
    if inst.x_true is not None and np.any(inst.x_true):
        return default_box(inst.x_true)
    return BoxConstraint(R=2000.0)


def _resolve_nu(cfg: MscraConfig, inst: Instance, nu_factor: float) -> MscraConfig:
    """``cfg`` with ``nu`` set: its own value, or the default scaled by ``nu_factor``."""
    if cfg.nu is None:
        cfg = replace(cfg, nu=default_nu(inst.A, inst.b, factor=nu_factor))
    return cfg


def _solve_one(inst: Instance, cfg: MscraConfig) -> dict:
    box = _instance_box(inst)
    t0 = time.perf_counter()
    result = run(inst.A, inst.b, inst.g, box, cfg)
    elapsed = time.perf_counter() - t0
    row = {
        "stages": result.stages,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "inner_failures": result.inner_failures,
        "time": elapsed,
        "nu": result.nu,
    }
    if inst.x_true is not None and np.any(inst.x_true):
        row.update(metrics(result.x, inst))
    else:
        from .groups import approx_group_zero_norm

        row["group_sparsity"] = approx_group_zero_norm(result.x, inst.g)
    return row | {"_result": result}


def _bench_cell(plan: ExperimentPlan, signal, beta, rep, seed, mode) -> dict:
    n = plan.p // beta
    inst = make_instance(plan.design, signal, n, plan.p, plan.m, plan.r_bar,
                         plan.alpha, plan.theta1, plan.theta2, seed)
    out = {"signal": signal, "beta": beta, "rep": rep, "seed": seed, "n": n}
    try:
        if mode in ("gep", "both"):
            row = _solve_one(inst, _resolve_nu(MscraConfig(phi=plan.phi), inst, plan.nu_factor))
            row.pop("_result")
            out["gep"] = row
        if mode in ("stage1", "both"):
            cfg = MscraConfig(phi=plan.phi, max_stages=1)
            row = _solve_one(inst, _resolve_nu(cfg, inst, plan.stage1_nu_factor))
            row.pop("_result")
            out["stage1"] = row
    except Exception as exc:  # record per-cell failures, keep the sweep going
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


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
    sp.add_argument("--config", default=None, help="JSON config overriding solver settings")


def _plan_from_args(args) -> ExperimentPlan:
    phi = _config_from_file(args.config)[0].phi
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
        phi=phi,
        out=args.out,
    )


def cmd_gen(args) -> int:
    plan = _plan_from_args(args)
    out = Path(plan.out)
    count = 0
    for signal, beta, rep, seed in plan.cells():
        n = plan.p // beta
        inst = make_instance(plan.design, signal, n, plan.p, plan.m, plan.r_bar,
                             plan.alpha, plan.theta1, plan.theta2, seed)
        gio.save_instance(out / f"{plan.design}_{signal}_b{beta}_r{rep}", inst)
        count += 1
    (out / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2))
    print(f"wrote {count} instances under {out}")
    return 0


def cmd_solve(args) -> int:
    inst = gio.load_instance(args.instance)
    cfg, nu_factor = _config_from_file(args.config)
    cfg = _resolve_nu(cfg, inst, nu_factor)
    try:
        row = _solve_one(inst, cfg)
    except SolverStallError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 1
    result = row.pop("_result")
    out = Path(args.out or args.instance)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_traces_jsonl(out / "traces.jsonl", result.traces, include_x=args.emit_x)
    gio.write_vector(out / "x_out.f64", result.x)
    # the settings that ran, defaults and nu resolved, so that equal runs hash equal
    resolved = asdict(cfg)
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    row["seed"] = inst.seed
    row["config_hash"] = _hash(resolved)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted(row))
        writer.writeheader()
        writer.writerow(row)
    print(json.dumps(row, default=str))
    if not result.converged:
        print(f"not converged: {_failure_reason(result)}", file=sys.stderr)
        return 1
    return 0


def _failure_reason(result) -> str:
    reasons = []
    if result.stop_reason == "max_stages":
        reasons.append(f"no stopping rule fired in {result.stages} stages")
    if result.inner_failures:
        reasons.append(f"{result.inner_failures} of {result.stages} stage ALM solves hit max_outer")
    return "; ".join(reasons)


def cmd_bench(args) -> int:
    plan = _plan_from_args(args)
    plan_hash = _hash(plan.to_dict())
    rows = [_bench_cell(plan, *cell, args.mode) for cell in plan.cells()]

    out = Path(plan.out)
    out.mkdir(parents=True, exist_ok=True)
    fields = ["signal", "beta", "n", "rep", "seed", "plan_hash", "error"]
    for mode in ("gep", "stage1"):
        fields += [f"{mode}_relerr", f"{mode}_group_sparsity", f"{mode}_time",
                   f"{mode}_stages", f"{mode}_exact_support", f"{mode}_inner_failures"]
    with open(out / "bench.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            flat = {k: row.get(k) for k in ("signal", "beta", "n", "rep", "seed", "error")}
            flat["plan_hash"] = plan_hash
            for mode in ("gep", "stage1"):
                if mode in row:
                    for key in ("relerr", "group_sparsity", "time", "stages", "exact_support",
                                "inner_failures"):
                        flat[f"{mode}_{key}"] = row[mode].get(key)
            writer.writerow(flat)

    # aggregate means per (signal, beta)
    agg_path = out / "bench_agg.csv"
    groups: dict = {}
    for row in rows:
        if "error" in row:
            continue
        groups.setdefault((row["signal"], row["beta"]), []).append(row)
    with open(agg_path, "w", newline="") as fh:
        afields = ["signal", "beta", "n", "reps", "plan_hash"]
        for mode in ("gep", "stage1"):
            afields += [f"{mode}_mean_relerr", f"{mode}_mean_time", f"{mode}_mean_sparsity"]
        writer = csv.DictWriter(fh, fieldnames=afields, extrasaction="ignore")
        writer.writeheader()
        for (signal, beta), cell_rows in sorted(groups.items()):
            arow = {"signal": signal, "beta": beta, "n": cell_rows[0]["n"],
                    "reps": len(cell_rows), "plan_hash": plan_hash}
            for mode in ("gep", "stage1"):
                present = [r[mode] for r in cell_rows if mode in r]
                if present:
                    arow[f"{mode}_mean_relerr"] = float(np.mean([r["relerr"] for r in present]))
                    arow[f"{mode}_mean_time"] = float(np.mean([r["time"] for r in present]))
                    arow[f"{mode}_mean_sparsity"] = float(np.mean([r["group_sparsity"] for r in present]))
            writer.writerow(arow)
    failures = sum("error" in r for r in rows)
    print(f"bench complete: {len(rows)} cells, {failures} failures -> {out}")
    return 0


def cmd_oracle(args) -> int:
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
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--emit-x", action="store_true", help="include x in the JSONL traces")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bench", help="benchmark sweep over a plan")
    _add_plan_flags(sp)
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
