"""Segment kernels on a shuffled partition, checked against per-group loops.

The partition below is not contiguous, so every kernel has to go through
the cached permutation.  Its point ``y`` puts one group at zero weight,
one group at zero weight and zero norm, one group exactly on the
boundary of its ball, and one group inside it.  At the box radius
``CLIP_R`` the prox clips the zero-weight group and two weighted groups,
and leaves a third weighted group alone.
"""

import numpy as np
import pytest

from conftest import dense_hessian, prox_jacobian_block
from gsreg.groups import (
    BoxConstraint,
    GroupStructure,
    contiguous_groups,
    group_norms,
    group_soft_threshold,
    prox_group_box,
)
from gsreg.wl21 import (
    DualState,
    SolveStats,
    SubproblemSpec,
    _psi,
    _soft_threshold,
    gen_hessian_apply,
    newton_direction,
    project_group_balls,
)
from reference import bisection_prox, block_soft_threshold

SIZES = [3, 1, 5, 2, 4, 3, 5]
ZERO_WEIGHT, ZERO_WEIGHT_AT_ORIGIN, BOUNDARY, INSIDE = 0, 5, 3, 1
CLIP_R = 1.0


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
    assert 0 < nrm[INSIDE] < omega[INSIDE]
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

    @pytest.mark.parametrize("layout", ["contiguous", "shuffled"])
    def test_segments_are_the_wrapper_formulas_bit_for_bit(self, shuffled, layout):
        # segments calls ndarray methods; these are the np.flatnonzero,
        # np.cumsum and np.repeat formulas it replaced
        g = shuffled[0]
        if layout == "contiguous":
            g = GroupStructure(g.p, np.split(np.arange(g.p), np.cumsum(SIZES)[:-1]))
            assert g.perm is None
        single = np.zeros(g.m, dtype=bool)
        single[4] = True
        some = np.arange(g.m) % 2 == 0
        for mask in (np.zeros(g.m, dtype=bool), single, some, np.ones(g.m, dtype=bool)):
            sizes = np.fromiter(map(len, g.groups), dtype=np.intp)[mask]
            selected = mask[g.group_id]
            cols = np.flatnonzero(selected) if g.perm is None else g.perm[selected[g.perm]]
            want = (cols, np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes))
            for got, exp in zip(g.segments(mask), want):
                assert got.dtype == exp.dtype == np.intp
                assert got.tobytes() == exp.tobytes()

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

    def test_project_group_balls_is_the_scatter_form_bit_for_bit(self, shuffled):
        # the fixture has zero weights at zero and nonzero norm, and a group on
        # its ball; a weighted group at zero norm is added here
        g, y, omega = shuffled
        y = y.copy()
        y[g.groups[INSIDE]] = 0.0
        nrm = group_norms(y, g)
        outside = nrm > omega
        scale = np.ones(g.m)
        scale[outside] = omega[outside] / nrm[outside]
        want = (y * g.broadcast(scale)).tobytes()
        assert project_group_balls(y, g, omega).tobytes() == want
        assert project_group_balls(y, g, omega, nrm).tobytes() == want

    def test_block_soft_threshold(self, shuffled):
        g, y, omega = shuffled
        out = block_soft_threshold(y, g, omega)
        assert np.allclose(out, loop_block_soft_threshold(y, g, omega), rtol=1e-14, atol=1e-15)
        assert np.all(out[g.groups[BOUNDARY]] == 0.0)
        assert np.array_equal(out[g.groups[ZERO_WEIGHT]], y[g.groups[ZERO_WEIGHT]])
        assert np.array_equal(group_soft_threshold(y, g, omega, group_norms(y, g)), out)

    @pytest.mark.parametrize("layout", ["shuffled", "contiguous"])
    def test_trial_kernel_is_bitwise_the_group_kernels(self, shuffled, layout):
        # the line search's _soft_threshold skips group_norms' checks; it
        # must give the bits of group_norms and group_soft_threshold, at zero
        # weights, at zero norms with a zero and with a positive weight, on
        # the ball and inside it, through the permutation and without one
        g, y, omega = shuffled
        y = y.copy()
        y[g.groups[INSIDE]] = 0.0
        if layout == "contiguous":
            order = g.perm
            g = GroupStructure(g.p, np.split(np.arange(g.p), g.starts[1:]))
            y = y[order]
        spec = SubproblemSpec(A=np.ones((2, g.p)), b=np.zeros(2), g=g, omega=omega,
                              box=BoxConstraint(1.0))
        nrm, u, top = _soft_threshold(y, spec)
        ref_nrm = group_norms(y, g)
        ref_u = group_soft_threshold(y, g, omega, ref_nrm)
        assert nrm.tobytes() == ref_nrm.tobytes()
        assert u.tobytes() == ref_u.tobytes()
        assert top == np.max(np.abs(ref_u)) == np.abs(u).max() > 0
        assert nrm[INSIDE] == nrm[ZERO_WEIGHT_AT_ORIGIN] == 0.0 < omega[INSIDE]
        assert np.all(u[g.groups[INSIDE]] == 0.0) and np.all(u[g.groups[BOUNDARY]] == 0.0)
        assert np.array_equal(u[g.groups[ZERO_WEIGHT]], y[g.groups[ZERO_WEIGHT]])


class TestProxGroupBox:
    def test_matches_bisection_oracle(self, shuffled):
        g, y, omega = shuffled
        out = prox_group_box(y, g, omega, CLIP_R)
        ref = bisection_prox(y, g, omega, CLIP_R)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        clipped = [i for i, idx in enumerate(g.groups) if np.any(np.abs(out[idx]) == CLIP_R)]
        assert ZERO_WEIGHT in clipped and len(clipped) >= 3
        # a plain clip on the zero-weight group; zeros at the origin, on the ball, inside it
        zw = g.groups[ZERO_WEIGHT]
        assert np.array_equal(out[zw], np.clip(y[zw], -CLIP_R, CLIP_R))
        for i in (ZERO_WEIGHT_AT_ORIGIN, BOUNDARY, INSIDE):
            assert np.all(out[g.groups[i]] == 0.0)
        # a weighted group the box leaves alone keeps its block soft threshold
        shrunk = block_soft_threshold(y, g, omega)
        alone = [i for i in range(g.m) if i not in clipped and np.any(out[g.groups[i]])]
        assert any(omega[i] > 0 for i in alone)
        for i in alone:
            assert np.array_equal(out[g.groups[i]], shrunk[g.groups[i]])

    def test_without_clipping_is_block_soft_threshold(self, shuffled):
        g, y, omega = shuffled
        assert np.array_equal(prox_group_box(y, g, omega, 1e6), block_soft_threshold(y, g, omega))

    def test_given_soft_threshold_is_used_and_left_unchanged(self, shuffled):
        g, y, omega = shuffled
        nrm = group_norms(y, g)
        soft = group_soft_threshold(y, g, omega, nrm)
        kept = soft.copy()
        out = prox_group_box(y, g, omega, CLIP_R, nrm, soft)
        assert np.array_equal(out, prox_group_box(y, g, omega, CLIP_R))
        assert np.array_equal(soft, kept)

    def test_far_outside_the_box(self, shuffled):
        # trial points of a line search can land thousands of radii outside the box
        g, y, omega = shuffled
        z, R = 1e4 * y, 1e-3
        out = prox_group_box(z, g, omega, R)
        ref = bisection_prox(z, g, omega, R)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_jacobian_oracle_matches_finite_differences(self, shuffled):
        # the dense oracle the Newton tests use; every group but the one on
        # the kink of its ball, where the prox is not differentiable
        g, y, omega = shuffled
        h = 1e-7
        for i, idx in enumerate(g.groups):
            if i == BOUNDARY:
                continue
            J = prox_jacobian_block(y[idx], omega[i], CLIP_R)
            for k in range(idx.size):
                e = np.zeros(g.p)
                e[idx[k]] = h
                fd = (prox_group_box(y + e, g, omega, CLIP_R)
                      - prox_group_box(y - e, g, omega, CLIP_R))[idx] / (2 * h)
                assert np.allclose(J[:, k], fd, atol=1e-6)


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
        for _ in range(4):
            d = rng.standard_normal(spec.n)
            assert np.allclose(gen_hessian_apply(d, xi, eta, state, spec), V @ d, atol=1e-12)

    def test_all_inside_is_identity(self, shuffled):
        g, _, _ = shuffled
        spec = self._spec(g, np.full(g.m, 1e6))
        state = DualState.cold(spec, 2.0)
        d = np.arange(spec.n, dtype=float)
        out = gen_hessian_apply(d, np.zeros(spec.n), np.ones(spec.p), state, spec)
        assert np.array_equal(out, d)

    def test_all_zero_weights_use_the_whole_design(self):
        g = contiguous_groups(12, 4)
        spec = self._spec(g, np.zeros(4), n=5)
        state = DualState.cold(spec, 2.0)
        d = np.linspace(-1.0, 1.0, spec.n)
        out = gen_hessian_apply(d, np.zeros(spec.n), np.zeros(spec.p), state, spec)
        assert np.allclose(out, d + 2.0 * spec.A @ (spec.A.T @ d), atol=1e-13)


class TestNewtonDirection:
    """``newton_direction`` inverts the dense Hessian on both of its branches, box included."""

    _spec = TestHessian._spec

    def _solve(self, spec, eta, sigma, monkeypatch, seed=7):
        # xi = 0 and x = 0 make y = eta, the point the Hessian is taken at;
        # the box radius there is R / sigma, so at sigma = 1e6 the prox clips
        state = DualState.cold(spec, sigma)
        xi = np.zeros(spec.n)
        v = np.random.default_rng(seed).standard_normal(spec.n)
        V = dense_hessian(xi, eta, state, spec, R=spec.box.R / sigma)
        expected = np.linalg.solve(V, v)
        shapes = []
        solve = np.linalg.solve

        def recording(M, rhs):
            shapes.append(M.shape)
            return solve(M, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        d, r = newton_direction(v, eta, sigma, spec)
        monkeypatch.undo()
        # the prox SNCG passes on from its line search gives the same direction, bit for bit
        prox = _psi(xi, eta, sigma, spec.box.R / sigma, spec)[1]
        d_passed, r_passed = newton_direction(v, eta, sigma, spec, prox)
        assert np.array_equal(d_passed, d) and r_passed == r
        assert shapes == [(spec.n, spec.n) if r >= spec.n else (r, r)]
        # backward error of a stable solve scales with ||V|| <= 1 + sigma ||A||_F^2
        atol = 1e-13 * (1.0 + sigma * np.sum(spec.A ** 2))
        assert np.allclose(V @ d, v, rtol=0, atol=atol)
        assert np.linalg.norm(d - expected) <= 1e-8 * np.linalg.norm(expected)
        return shapes

    @pytest.mark.parametrize("sigma", [3.0, 1e6])
    def test_n_by_n_branch(self, shuffled, sigma, monkeypatch):
        # n = 5 is below |J| alone (7 coordinates even where the box clips), so r >= n
        g, y, omega = shuffled
        spec = self._spec(g, omega, n=5)
        assert self._solve(spec, y, sigma, monkeypatch) == [(5, 5)]

    @pytest.mark.parametrize("sigma", [3.0, 1e6])
    def test_woodbury_branch(self, shuffled, sigma, monkeypatch):
        # n = 40 exceeds p + m = 30, so r < n; the zero-weight groups enter with
        # c = 0 and the boundary group not at all; at sigma = 1e6 the box
        # clips, and clipped coordinates (a whole group, once) leave J.
        # p <= n, so the system is built from the spec's Gram
        g, y, omega = shuffled
        spec = self._spec(g, omega, n=40)
        (shape,) = self._solve(spec, y, sigma, monkeypatch)
        R = spec.box.R / sigma
        x = bisection_prox(y, g, omega, R)
        free = [np.count_nonzero(np.abs(x[idx]) < R) for idx in g.groups]
        outside = [omega[i] == 0.0 or np.linalg.norm(y[idx]) > omega[i]
                   for i, idx in enumerate(g.groups)]
        J = sum(free[i] for i in range(g.m) if outside[i])
        curved = sum(1 for i in range(g.m) if outside[i] and omega[i] > 0 and free[i] > 0)
        assert shape == (J + curved, J + curved) and J + curved < spec.n
        assert (J < sum(SIZES[i] for i in range(g.m) if outside[i])) == (sigma == 1e6)

    @pytest.mark.parametrize("sigma", [3.0, 1e6])
    def test_gram_and_gathered_woodbury_agree(self, shuffled, sigma, monkeypatch):
        # the narrow spec (p = 23 <= n = 40) builds its r x r system from the
        # Gram it keeps; with the Gram withheld the same system is formed
        # from the gathered A_J.  At sigma = 1e6 the box clips a whole group
        # (which leaves J) and parts of others; two groups have weight 0
        g, y, omega = shuffled
        spec = self._spec(g, omega, n=40)
        assert spec.p <= spec.n and spec._gram is None
        ((r, _),) = self._solve(spec, y, sigma, monkeypatch)
        assert np.allclose(spec._gram, spec.A.T @ spec.A, rtol=0, atol=1e-14)
        v = np.random.default_rng(8).standard_normal(spec.n)
        # each form counts one Woodbury system of its r; only the Gram's
        # makes products with A, two
        stats = SolveStats()
        d_gram, r_gram = newton_direction(v, y, sigma, spec, stats=stats)
        assert r_gram == r < spec.n
        assert stats == SolveStats(sncg_woodbury_systems=1, sncg_max_r=r, dense_products=2)
        monkeypatch.setattr(SubproblemSpec, "gram", lambda self: None)
        stats = SolveStats()
        d_gathered, r_gathered = newton_direction(v, y, sigma, spec, stats=stats)
        assert r_gathered == r
        assert stats == SolveStats(sncg_woodbury_systems=1, sncg_max_r=r)
        assert np.linalg.norm(d_gram - d_gathered) <= 1e-12 * np.linalg.norm(d_gathered)
        R = spec.box.R / sigma
        x = bisection_prox(y, g, omega, R)
        whole = [i for i, idx in enumerate(g.groups) if np.all(np.abs(x[idx]) == R)]
        assert bool(whole) == (sigma == 1e6)

    def test_wide_spec_builds_no_gram(self, shuffled, monkeypatch):
        # p = 23 > n = 20: the Woodbury system is formed from the gathered A_J
        g, y, omega = shuffled
        spec = self._spec(g, omega, n=20)
        assert spec.gram() is None
        (shape,) = self._solve(spec, y, 1e6, monkeypatch)
        assert shape[0] < spec.n and spec._gram is None

    def test_only_zero_weight_groups(self, shuffled, monkeypatch):
        # every group at weight 0: I - W = I, nothing is curved, and r = p
        g, y, _ = shuffled
        spec = self._spec(g, np.zeros(g.m), n=40)
        assert self._solve(spec, y, 2.0, monkeypatch) == [(g.p, g.p)]

    def test_empty_active_set_returns_v(self, shuffled):
        g, _, _ = shuffled
        spec = self._spec(g, np.full(g.m, 1e6))
        v = np.arange(spec.n, dtype=float)
        d, r = newton_direction(v, np.ones(spec.p), 1e6, spec)
        assert np.array_equal(d, v) and d is not v and r == 0

