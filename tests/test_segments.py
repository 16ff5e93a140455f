"""Segment kernels on a shuffled partition, checked against per-group loops.

The partition below is not contiguous, so every kernel has to go through
the cached permutation.  Its point ``y`` puts one group at zero weight,
one group at zero weight and zero norm, and one group exactly on the
boundary of its ball.
"""

import numpy as np
import pytest

from conftest import dense_hessian
from gsreg.groups import BoxConstraint, GroupStructure, contiguous_groups, group_norms
from gsreg.wl21 import (
    DualState,
    SubproblemSpec,
    gen_hessian_apply,
    hessian_operator,
    project_group_balls,
)
from reference import block_soft_threshold

SIZES = [3, 1, 5, 2, 4, 3, 5]
ZERO_WEIGHT, ZERO_WEIGHT_AT_ORIGIN, BOUNDARY = 0, 5, 3


def loop_group_norms(x, g):
    return np.array([np.linalg.norm(x[idx]) for idx in g.groups])


def loop_project_group_balls(y, g, omega):
    out = y.copy()
    for i, idx in enumerate(g.groups):
        nrm = np.linalg.norm(y[idx])
        if nrm > omega[i]:
            out[idx] = y[idx] * (omega[i] / nrm) if omega[i] > 0 else 0.0
    return out


def loop_block_soft_threshold(z, g, thresholds):
    out = z.copy()
    for i, idx in enumerate(g.groups):
        nrm = np.linalg.norm(z[idx])
        if nrm <= thresholds[i]:
            out[idx] = 0.0
        elif thresholds[i] > 0:
            out[idx] = z[idx] * (1.0 - thresholds[i] / nrm)
    return out


@pytest.fixture
def shuffled():
    rng = np.random.default_rng(2024)
    p = sum(SIZES)
    g = GroupStructure(p, np.split(rng.permutation(p), np.cumsum(SIZES)[:-1]))
    y = 2.0 * rng.standard_normal(p)
    omega = rng.uniform(0.5, 3.0, g.m)
    omega[ZERO_WEIGHT] = 0.0
    omega[ZERO_WEIGHT_AT_ORIGIN] = 0.0
    y[g.groups[ZERO_WEIGHT_AT_ORIGIN]] = 0.0
    y[g.groups[BOUNDARY]] = [3.0, 4.0]
    omega[BOUNDARY] = 5.0
    nrm = loop_group_norms(y, g)
    assert np.any((nrm < omega) & (omega > 0)) and np.any((nrm > omega) & (omega > 0))
    return g, y, omega


class TestLayout:
    def test_shuffled_partition_keeps_a_permutation(self, shuffled):
        g, _, _ = shuffled
        assert g.perm is not None
        assert np.array_equal(g.perm, np.concatenate(g.groups))
        assert np.array_equal(g.group_id[g.perm], np.repeat(np.arange(g.m), SIZES))
        assert g.starts.tolist() == [0, 3, 4, 9, 11, 15, 18]

    def test_contiguous_partition_has_none(self):
        assert contiguous_groups(12, 4).perm is None

    def test_cached_arrays_are_read_only(self, shuffled):
        g, _, _ = shuffled
        for arr in (g.group_id, g.starts, g.perm):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_segment_sum_and_broadcast(self, shuffled):
        g, y, _ = shuffled
        sums = np.array([y[idx].sum() for idx in g.groups])
        assert np.allclose(g.segment_sum(y), sums, rtol=1e-14, atol=1e-14)
        vals = np.arange(g.m, dtype=float)
        out = g.broadcast(vals)
        for i, idx in enumerate(g.groups):
            assert np.all(out[idx] == vals[i])

    def test_segments_of_a_subset(self, shuffled):
        g, y, _ = shuffled
        mask = np.zeros(g.m, dtype=bool)
        mask[[1, 4, 6]] = True
        cols, starts, seg = g.segments(mask)
        assert np.array_equal(cols, np.concatenate([g.groups[i] for i in (1, 4, 6)]))
        assert starts.tolist() == [0, 1, 5]
        assert seg.tolist() == [0] + [1] * 4 + [2] * 5
        empty = g.segments(np.zeros(g.m, dtype=bool))
        assert all(part.size == 0 for part in empty)

    def test_rejects_an_index_repeated_inside_a_group(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupStructure(3, [[0, 0], [1, 2]])


class TestKernels:
    def test_group_norms(self, shuffled):
        g, y, _ = shuffled
        norms = group_norms(y, g)
        assert np.allclose(norms, loop_group_norms(y, g), rtol=1e-14, atol=0)
        assert norms[BOUNDARY] == 5.0
        assert norms[ZERO_WEIGHT_AT_ORIGIN] == 0.0

    def test_project_group_balls(self, shuffled):
        g, y, omega = shuffled
        out = project_group_balls(y, g, omega)
        assert np.allclose(out, loop_project_group_balls(y, g, omega), rtol=1e-14, atol=1e-15)
        assert np.array_equal(out[g.groups[BOUNDARY]], [3.0, 4.0])
        assert np.all(out[g.groups[ZERO_WEIGHT]] == 0.0)

    def test_block_soft_threshold(self, shuffled):
        g, y, omega = shuffled
        out = block_soft_threshold(y, g, omega)
        assert np.allclose(out, loop_block_soft_threshold(y, g, omega), rtol=1e-14, atol=1e-15)
        assert np.all(out[g.groups[BOUNDARY]] == 0.0)
        assert np.array_equal(out[g.groups[ZERO_WEIGHT]], y[g.groups[ZERO_WEIGHT]])


class TestHessian:
    def _spec(self, g, omega, n=9, seed=3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, g.p)) / np.sqrt(n)
        return SubproblemSpec(A=A, b=rng.standard_normal(n), g=g, omega=omega,
                              box=BoxConstraint(1e3))

    def test_matches_dense_at_designed_point(self, shuffled):
        # xi = 0 and x = 0 make y = eta exactly, so the boundary group sits on its ball
        g, y, omega = shuffled
        spec = self._spec(g, omega)
        state = DualState.cold(spec, 3.0)
        xi = np.zeros(spec.n)
        V = dense_hessian(xi, y, state, spec)
        rng = np.random.default_rng(5)
        for _ in range(4):
            d = rng.standard_normal(spec.n)
            assert np.allclose(gen_hessian_apply(d, xi, y, state, spec), V @ d, atol=1e-12)

    def test_matches_dense_at_random_point(self, shuffled):
        g, _, omega = shuffled
        spec = self._spec(g, omega)
        rng = np.random.default_rng(6)
        state = DualState.cold(spec, 0.7)
        state.x = rng.standard_normal(spec.p)
        xi, eta = rng.standard_normal(spec.n), 0.3 * rng.standard_normal(spec.p)
        V = dense_hessian(xi, eta, state, spec)
        apply = hessian_operator(xi, eta, state, spec)
        for _ in range(4):
            d = rng.standard_normal(spec.n)
            assert np.allclose(apply(d), V @ d, atol=1e-12)

    def test_all_inside_is_identity(self, shuffled):
        g, _, _ = shuffled
        spec = self._spec(g, np.full(g.m, 1e6))
        state = DualState.cold(spec, 2.0)
        d = np.arange(spec.n, dtype=float)
        out = hessian_operator(np.zeros(spec.n), np.ones(spec.p), state, spec)(d)
        assert np.array_equal(out, d)

    def test_all_zero_weights_use_the_whole_design(self):
        g = contiguous_groups(12, 4)
        spec = self._spec(g, np.zeros(4), n=5)
        state = DualState.cold(spec, 2.0)
        d = np.linspace(-1.0, 1.0, spec.n)
        out = gen_hessian_apply(d, np.zeros(spec.n), np.zeros(spec.p), state, spec)
        assert np.allclose(out, d + 2.0 * spec.A @ (spec.A.T @ d), atol=1e-13)
