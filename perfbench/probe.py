"""Samples how fast the core runs while a solve runs, with fixed reference kernels.

On a small shared host the speed of a core moves under the benchmark: a
fixed kernel takes from 1.0x to more than 2x its quickest time, in
episodes of tens of milliseconds to seconds, and the share of slow time
drifts over minutes.  Process CPU time stays equal to wall time, so the
process cannot see it.  A solve timed on its own therefore carries the
machine's state into the result.

``SpeedSampler`` times small fixed kernels at the start of a block and
then from a timer signal every ``INTERVAL_S`` until the block ends.  A
kernel's time over its reference time is how much slower the core runs
that kind of work at that moment.  There are two kernels, one for each
kind of work the solver does:

- ``loop_kernel``: a Python loop of small numpy calls over 64 groups of
  8 columns, between two products with a 64 x 512 matrix, shaped like
  the solver's generalized Hessian-vector product;
- ``matvec_kernel``: one product with a 16 MB matrix, like the
  matrix-vector products of the ``wide`` workload.

A workload states the share of its time that is matrix-vector work.  A
solve's own time is its wall time minus the time spent in the kernels.
Its time in reference seconds is its own time divided by the slowdown,
the share-weighted mean of the two kernels' slowdowns during the solve.
That is about what it would take on an undisturbed core of the machine
the benchmark was tuned on.  The kernels use numpy and Python alone,
never gsreg, so a change to the program cannot move them.
"""

from __future__ import annotations

import functools
import signal
import time

import numpy as np

# About each kernel's quickest time when sampled during solves, on the
# 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on.  They only set the
# scale of a reference second.
LOOP_REF_S = 0.0013
MATVEC_REF_S = 0.0012
INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 512))
_Y = _rng.standard_normal(512)
_D = _rng.standard_normal(64)
_GROUPS = [np.arange(8 * k, 8 * k + 8) for k in range(64)]


def loop_kernel() -> float:
    """Wall time of four passes of a per-group Hessian-vector-like loop, in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        v = _A.T @ _D
        u = np.zeros(512)
        for idx in _GROUPS:
            y_i = _Y[idx]
            nrm = np.linalg.norm(y_i)
            if nrm > 1.0:
                scale = 1.0 / nrm
                u[idx] = (1.0 - scale) * v[idx] + (scale / nrm**2) * y_i * (y_i @ v[idx])
        _A @ u
    return time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _big() -> tuple:
    """The 16 MB matrix of ``matvec_kernel``, made on first use only."""
    return np.random.default_rng(1).standard_normal((512, 4096)), np.ones(4096)


def matvec_kernel() -> float:
    """Wall time of one product with a 512 x 4096 matrix, in seconds."""
    big, v = _big()
    t0 = time.perf_counter()
    big @ v
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the kernels at the start and then every ``INTERVAL_S`` until the block ends.

    ``matvec_share`` is the share of the sampled work's time that is
    matrix-vector products; at 0 only the loop kernel runs.
    """

    def __init__(self, matvec_share: float = 0.0):
        self.matvec_share = matvec_share

    def __enter__(self) -> "SpeedSampler":
        self.loop_s: list = []
        self.matvec_s: list = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.loop_s.append(loop_kernel())
        if self.matvec_share:
            self.matvec_s.append(matvec_kernel())
        self.spent_s += time.perf_counter() - t0

    def ref_scale(self) -> float:
        """Reference seconds per second of the block's own time."""
        slowdown = (1.0 - self.matvec_share) * np.mean(self.loop_s) / LOOP_REF_S
        if self.matvec_share:
            slowdown += self.matvec_share * np.mean(self.matvec_s) / MATVEC_REF_S
        return float(1.0 / slowdown)
