"""The benchmark tracer's contract with the package, read from ``perfbench/tracing.py``.

The traced benchmark run wraps each ``(module, name)`` of ``TRACED`` in
the package and reads its counts from what ``mscra.run``,
``alm_solve``, ``abcd_solve`` and ``sncg_solve`` return.  These tests
load the tracer from its file, without changing it, and hold the
package to those names and shapes.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from conftest import random_subproblem
from gsreg import mscra
from gsreg.groups import BoxConstraint, contiguous_groups
from gsreg.wl21 import DualState, SolveStats, abcd_solve, alm_solve, sncg_solve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module, name in _tracing().TRACED:
        fn = getattr(importlib.import_module(f"gsreg.{module}"), name, None)
        assert callable(fn), f"gsreg.{module}.{name}"


def test_counters_read_what_the_traced_functions_return():
    tracing = _tracing()
    spec = random_subproblem(7)
    state = DualState.cold(spec, 1.0)
    result = sncg_solve(state, spec, 1e-9, 50, SolveStats())
    call = result[1]
    assert {"iters", "backtracks", "fallbacks", "cg_iters"} <= call.keys()
    abcd = abcd_solve(state, spec, 1e-9, 50, SolveStats())
    assert isinstance(abcd, tuple) and len(abcd) == 5 and abcd[4]["iters"] == 1

    rng = np.random.default_rng(3)
    A = rng.standard_normal((24, 32))
    b = A[:, :8] @ np.full(8, 3.0) + 0.1 * rng.standard_normal(24)
    results = {
        "mscra.run": mscra.run(A, b, contiguous_groups(32, 8), BoxConstraint(1e3),
                               mscra.MscraConfig()),
        "wl21.alm_solve": alm_solve(spec),
        "wl21.abcd_solve": abcd,
        "wl21.sncg_solve": result,
    }
    assert results.keys() == tracing._COUNTERS.keys()
    counts = Counter()
    for name, counter in tracing._COUNTERS.items():
        counter(counts, results[name])
    assert counts["mscra.stages"] == results["mscra.run"].stages > 0
    assert counts["wl21.alm.outer_iters"] == results["wl21.alm_solve"][2].outer_iters > 0
    assert counts["wl21.abcd.sweeps"] == 1
    assert counts["wl21.sncg.newton_steps"] == call["iters"] > 0
    assert counts["wl21.sncg.backtracks"] == call["backtracks"]
