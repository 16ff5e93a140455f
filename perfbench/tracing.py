"""Outside-in layer trace of the gsreg solver stack.

:class:`Tracer` wraps public functions of ``gsreg.mscra``, ``gsreg.wl21``,
``gsreg.groups`` and ``gsreg.data`` in every gsreg module namespace that
holds them, so calls between the package's own functions are caught
without any tracing code inside the package.  Each call records one span
(function, start, end, parent span) in flat arrays kept in memory until
the run ends; counts are read from the values the functions return, at
the same boundaries.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs; the metric prefix is "<module>.<function>"
TRACED = (
    ("mscra", "run"),
    ("wl21", "alm_solve"),
    ("wl21", "abcd_solve"),
    ("wl21", "sncg_solve"),
    ("wl21", "gen_hessian_apply"),
    ("wl21", "phi_kj_value"),
    ("wl21", "phi_kj_grad"),
    ("wl21", "project_group_balls"),
    ("wl21", "eta_update"),
    ("wl21", "lagrangian_value"),
    ("groups", "group_norms"),
    ("data", "make_instance"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _count_run(c: Counter, result) -> None:
    c["mscra.stages"] += result.stages


def _count_alm(c: Counter, result) -> None:
    stats = result[2]
    c["wl21.alm.outer_iters"] += stats.outer_iters
    c["wl21.alm.converged"] += int(stats.converged)
    c["wl21.alm.max_outer_hits"] += int(not stats.converged)


def _count_abcd(c: Counter, result) -> None:
    c["wl21.abcd.sweeps"] += result[4]["iters"]


def _count_sncg(c: Counter, result) -> None:
    stats = result[1]
    c["wl21.sncg.newton_steps"] += stats["iters"]
    c["wl21.sncg.backtracks"] += stats["backtracks"]
    c["wl21.sncg.fallbacks"] += stats["fallbacks"]
    c["wl21.sncg.cg_iters"] += stats["cg_iters"]


_COUNTERS = {
    "mscra.run": _count_run,
    "wl21.alm_solve": _count_alm,
    "wl21.abcd_solve": _count_abcd,
    "wl21.sncg_solve": _count_sncg,
}


class Tracer:
    """Spans and counts of one traced run, with the wrappers that record them."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = Counter()
        self._stack = []

    def wrap(self, nid: int, fn):
        name_id, parent, t0s, t1s, stack = self.name_id, self.parent, self.t0, self.t1, self._stack
        counter = _COUNTERS.get(NAMES[nid])
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0s[idx] = t0
                t1s[idx] = t1
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every gsreg module namespace; restore the originals on exit."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "gsreg" or name.startswith("gsreg.")]
        swapped = []
        for nid, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"gsreg.{mod_name}"], fn_name)
            wrapper = self.wrap(nid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in swapped:
                setattr(mod, attr, original)

    def per_function(self) -> dict:
        """``calls``, ``s`` and ``self_s`` of every traced function."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(NAMES)}

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        fns = self.per_function()
        for name, (calls, total, own) in fns.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
        c = self.counts
        sweeps = c["wl21.abcd.sweeps"]
        steps, backtracks = c["wl21.sncg.newton_steps"], c["wl21.sncg.backtracks"]
        alm_calls = fns["wl21.alm_solve"][0]
        hess_calls, hess_s = fns["wl21.gen_hessian_apply"][:2]
        out.update({
            "mscra.stages": (c["mscra.stages"], "count"),
            "wl21.alm.outer_iters": (c["wl21.alm.outer_iters"], "count"),
            "wl21.alm.max_outer_hits": (c["wl21.alm.max_outer_hits"], "count"),
            "wl21.abcd.sweeps": (sweeps, "count"),
            "wl21.abcd.redo_sweeps": (fns["wl21.sncg_solve"][0] - sweeps, "count"),
            "wl21.sncg.newton_steps": (steps, "count"),
            "wl21.sncg.backtracks": (backtracks, "count"),
            "wl21.sncg.fallbacks": (c["wl21.sncg.fallbacks"], "count"),
            "wl21.sncg.cg_iters": (c["wl21.sncg.cg_iters"], "count"),
            # ratios; each base is a count above or listed beside it
            "wl21.alm.converged_ratio": (_ratio(c["wl21.alm.converged"], alm_calls), "1"),
            "wl21.sncg.trials": (steps + backtracks, "count"),
            "wl21.sncg.accept_ratio": (_ratio(steps, steps + backtracks), "1"),
            "wl21.sncg.cg_per_step": (_ratio(c["wl21.sncg.cg_iters"], steps), "1"),
            "wl21.gen_hessian_apply.us_per_call": (_ratio(1e6 * hess_s, hess_calls), "us"),
        })
        return out

    def save(self, path: Path) -> None:
        """Write the raw spans (function id, parent span, start, end) and the function names."""
        np.savez(path, names=np.array(NAMES), name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 t0=np.frombuffer(self.t0, dtype=float), t1=np.frombuffer(self.t1, dtype=float))


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
