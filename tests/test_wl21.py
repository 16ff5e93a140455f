import warnings

import numpy as np
import pytest

from conftest import clarke_block, dense_hessian, random_subproblem
from gsreg import wl21
from gsreg.groups import (BoxConstraint, GroupStructure, contiguous_groups, group_norms,
                          group_soft_threshold, group_support, prox_group_box)
from gsreg.wl21 import (
    AlmConfig,
    DualState,
    SolveStats,
    SubproblemSpec,
    _psi,
    _psi_floor,
    _soft_threshold,
    abcd_solve,
    alm_solve,
    eta_update,
    gen_hessian_apply,
    lagrangian_value,
    phi_kj_grad,
    phi_kj_value,
    primal_objective,
    project_group_balls,
    sncg_solve,
)
from reference import fista_reference


def _multiplier_bound(xi, state, spec, delta):
    """Criterion (B) at xi: ``delta / sqrt(sigma)`` times the multiplier step ``sigma s - x``."""
    sigma = state.sigma
    y = spec.A.T @ xi + state.x / sigma
    s = prox_group_box(y, spec.g, spec.omega, spec.box.R / sigma)
    return delta / np.sqrt(sigma) * np.linalg.norm(sigma * s - state.x)


class TestProjection:
    def test_inside_unchanged(self):
        g = contiguous_groups(4, 2)
        y = np.array([0.1, 0.1, 3.0, 4.0])
        out = project_group_balls(y, g, np.array([1.0, 10.0]))
        assert np.array_equal(out, y)

    def test_outside_rescaled(self):
        g = contiguous_groups(2, 1)
        out = project_group_balls(np.array([3.0, 4.0]), g, np.array([1.0]))
        assert np.allclose(out, [0.6, 0.8])
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_zero_radius_maps_to_zero(self):
        g = contiguous_groups(2, 1)
        out = project_group_balls(np.array([3.0, 4.0]), g, np.array([0.0]))
        assert np.array_equal(out, [0.0, 0.0])

    def test_is_nearest_point(self, rng):
        g = contiguous_groups(12, 4)
        omega = rng.uniform(0.1, 2.0, 4)
        y = 3 * rng.standard_normal(12)
        proj = project_group_balls(y, g, omega)
        dist = np.linalg.norm(proj - y)
        for _ in range(200):
            cand = proj + 0.05 * rng.standard_normal(12)
            feasible = all(
                np.linalg.norm(cand[idx]) <= omega[i] for i, idx in enumerate(g.groups)
            )
            if feasible:
                assert np.linalg.norm(cand - y) >= dist - 1e-12


class TestClarkeBlock:
    def test_identity_inside(self):
        B = clarke_block(np.array([0.1, 0.1]), 1.0)
        assert np.array_equal(B, np.eye(2))

    def test_identity_on_boundary(self):
        B = clarke_block(np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(B, np.eye(2))

    def test_zero_for_degenerate_ball(self):
        assert np.array_equal(clarke_block(np.ones(3), 0.0), np.zeros((3, 3)))

    def test_outside_matches_projection_jacobian(self, rng):
        # finite differences of the projection at a point strictly outside
        y = np.array([2.0, 1.0, -0.5])
        omega = 1.0
        B = clarke_block(y, omega)
        h = 1e-7
        proj = lambda v: v * omega / np.linalg.norm(v) if np.linalg.norm(v) > omega else v
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (proj(y + e) - proj(y - e)) / (2 * h)
            assert np.allclose(B[:, k], fd, atol=1e-6)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            clarke_block(np.ones(2), -1.0)


class TestReducedFunction:
    def test_gradient_matches_finite_difference(self, rng):
        spec = random_subproblem(3)
        state = DualState.cold(spec, 1.0)
        state.x = rng.standard_normal(spec.p)
        eta = 0.01 * rng.standard_normal(spec.p)
        xi = rng.standard_normal(spec.n)
        g = phi_kj_grad(xi, eta, state, spec)
        h = 1e-6
        for k in rng.permutation(spec.n)[:10]:
            e = np.zeros(spec.n)
            e[k] = h
            fd = (
                phi_kj_value(xi + e, eta, state, spec)
                - phi_kj_value(xi - e, eta, state, spec)
            ) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_hessian_apply_matches_dense(self, rng):
        spec = random_subproblem(4, n=20, p=30, m=10)
        state = DualState.cold(spec, 2.0)
        state.x = rng.standard_normal(spec.p)
        eta = 0.05 * rng.standard_normal(spec.p)
        xi = rng.standard_normal(spec.n)
        V = dense_hessian(xi, eta, state, spec)
        for _ in range(5):
            d = rng.standard_normal(spec.n)
            assert np.allclose(gen_hessian_apply(d, xi, eta, state, spec), V @ d, atol=1e-10)

    def test_hessian_is_positive_definite(self, rng):
        spec = random_subproblem(5, n=15, p=24, m=8)
        state = DualState.cold(spec, 1.5)
        state.x = rng.standard_normal(spec.p)
        V = dense_hessian(rng.standard_normal(spec.n), 0.01 * rng.standard_normal(spec.p), state, spec)
        assert np.min(np.linalg.eigvalsh(0.5 * (V + V.T))) >= 1.0 - 1e-10

    def _clipping_point(self, rng):
        # a small box radius, so that the prox at y = A^T xi + x/sigma clips
        spec = random_subproblem(3, R=0.05)
        state = DualState.cold(spec, 2.0)
        state.x = rng.standard_normal(spec.p)
        xi = rng.standard_normal(spec.n)
        y = spec.A.T @ xi + state.x / state.sigma
        s = _psi(xi, y, state.sigma, spec.box.R / state.sigma, spec)[1].s
        assert np.any(np.abs(s) == spec.box.R / state.sigma)
        return spec, state, xi

    def test_box_gradient_matches_finite_difference(self, rng):
        # the function SNCG minimizes, where the box clips; its gradient is b + xi + sigma A s
        spec, state, xi = self._clipping_point(rng)
        sigma, R = state.sigma, spec.box.R / state.sigma

        def value(v):
            return _psi(v, spec.A.T @ v + state.x / sigma, sigma, R, spec)[0]

        s = _psi(xi, spec.A.T @ xi + state.x / sigma, sigma, R, spec)[1].s
        g = spec.b + xi + sigma * (spec.A @ s)
        h = 1e-6
        for k in range(spec.n):
            e = np.zeros(spec.n)
            e[k] = h
            assert g[k] == pytest.approx((value(xi + e) - value(xi - e)) / (2 * h),
                                         rel=1e-6, abs=1e-6)

    def test_reduced_function_is_the_minimized_lagrangian(self, rng):
        # at the blocks abcd_solve recovers, L_sigma equals the reduced function
        # (up to the constant ||x||^2 / 2 sigma), and no nearby (eta, zeta) is lower
        spec, state, xi = self._clipping_point(rng)
        state.xi = xi
        eta, xi, zeta, x_new, _ = abcd_solve(state, spec, 1e-11, 50, SolveStats())
        assert np.any(eta)
        y = spec.A.T @ xi + state.x / state.sigma
        f, prox = _psi(xi, y, state.sigma, spec.box.R / state.sigma, spec)
        assert np.allclose(x_new, state.sigma * prox.s, rtol=0, atol=1e-12 * np.linalg.norm(x_new))
        L = lagrangian_value(xi, eta, zeta, state, spec)
        assert L + state.x @ state.x / (2 * state.sigma) == pytest.approx(f, rel=1e-12)
        assert np.all(group_norms(zeta, spec.g) <= spec.omega * (1 + 1e-12))
        for _ in range(200):
            eta_near = eta + 1e-3 * rng.standard_normal(spec.p)
            zeta_near = project_group_balls(zeta + 1e-3 * rng.standard_normal(spec.p),
                                            spec.g, spec.omega)
            assert lagrangian_value(xi, eta_near, zeta_near, state, spec) >= L - 1e-10 * abs(L)

    @pytest.mark.parametrize("sigma", [1.0, 1e3])
    @pytest.mark.parametrize("R", [1e-2, 1.0, 1e2])
    def test_clipped_soft_threshold_bounds_the_value(self, sigma, R):
        # the sigma term of psi is sigma max over the box of x^T y - ||x||^2/2 -
        # sum omega_i ||x_i||, attained at the prox, so the clipped soft
        # threshold, a point of the box, gives a lower bound; the line search's
        # floor, that bound less its margin, never refuses a trial whose exact
        # value meets the Armijo bound, the tightest of which is psi itself
        rng = np.random.default_rng(int(np.log10(sigma * R)) + 10)
        base = random_subproblem(8, n=12, p=24, m=6)
        r = R / sigma  # the box radius of the prox in sncg_solve
        spec = SubproblemSpec(A=base.A, b=base.b, g=base.g, omega=r * (1.0 + 2.0 * rng.random(6)),
                              box=BoxConstraint(R))

        def value(x, xi, y):
            inner = x @ y - 0.5 * (x @ x) - spec.omega @ group_norms(x, spec.g)
            return sigma * inner + 0.5 * (xi @ xi) + spec.b @ xi

        floors = []
        for k in range(40):
            # y mostly inside the balls, across the box, and far outside it,
            # where every coordinate clips and the bound is tight up to
            # rounding; xi keeps the terms of psi of the same order
            scale = (0.5, 2.0, 50.0, 2.0)[k % 4] * r
            xi = np.sqrt(sigma) * scale * rng.standard_normal(spec.n)
            y = scale * rng.standard_normal(spec.p)
            f, prox = _psi(xi, y, sigma, r, spec)
            assert value(prox.s, xi, y) == pytest.approx(f, rel=1e-12)
            u = group_soft_threshold(y, spec.g, spec.omega, group_norms(y, spec.g))
            assert value(np.clip(u, -r, r), xi, y) <= f + 1e-12 * abs(f)
            soft = _soft_threshold(y, spec)
            if soft[2] > r:  # sncg_solve takes a floor only outside the box
                floor = _psi_floor(xi, y, sigma, r, spec, soft)
                assert np.isfinite(floor) and not floor > f
                floors.append(floor)
        # the soft threshold leaves the box, and a floor is taken, at most points
        assert 20 <= len(floors) < 40

    def test_eta_update_minimizes_lagrangian_block(self, rng):
        spec = random_subproblem(6)
        state = DualState.cold(spec, 1.0)
        xi = rng.standard_normal(spec.n)
        zeta = 0.1 * rng.standard_normal(spec.p)
        state.x = rng.standard_normal(spec.p)
        eta = eta_update(xi, zeta, state, spec)

        def block_obj(e):
            r = spec.A.T @ xi + e - zeta
            return spec.box.R * np.abs(e).sum() + state.x @ r + 0.5 * state.sigma * (r @ r)

        best = block_obj(eta)
        for _ in range(100):
            assert block_obj(eta + 0.01 * rng.standard_normal(spec.p)) >= best - 1e-10


class TestSncg:
    def test_drives_gradient_below_tolerance(self, rng):
        spec = random_subproblem(7)
        state = DualState.cold(spec, 1.0)
        stats = SolveStats()
        xi, call = sncg_solve(state, spec, 1e-9, 50, stats)
        # the box does not clip here, so the gradient is that of the no-box function at eta = 0
        gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
        assert gnorm <= 1e-9 and call["met"] and call["gnorm"] <= 1e-9
        assert stats.sncg_iters == call["iters"] >= 1 and stats.sncg_unmet == 0

    def test_newton_systems_are_counted_by_form(self, rng, monkeypatch):
        # the active set shrinks from every group (r = p + m >= n) to a few
        spec = random_subproblem(7, n=40, omega_scale=1.0)
        state = DualState.cold(spec, 1.0)
        state.x = 0.3 * rng.standard_normal(spec.p)
        shapes = []
        solve = np.linalg.solve

        def recording(M, rhs):
            shapes.append(M.shape[0])
            return solve(M, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        stats = SolveStats()
        sncg_solve(state, spec, 1e-9, 50, stats)
        monkeypatch.undo()
        woodbury = [r for r in shapes if r < spec.n]
        assert stats.sncg_nn_systems == len(shapes) - len(woodbury) > 0
        assert stats.sncg_woodbury_systems == len(woodbury) > 0
        assert stats.sncg_max_r >= max(shapes)

    def test_fallback_takes_a_steepest_descent_step(self, monkeypatch):
        # the Newton system gives descent whenever it is solved exactly, so an
        # ascent direction is forced on the first step of the first call
        newton = wl21.newton_direction
        steps = []

        def ascent_first(v, *args, **kwargs):
            d, r = newton(v, *args, **kwargs)
            steps.append(r)
            return (-v if len(steps) == 1 else d), r  # v = -g, so -v climbs

        monkeypatch.setattr(wl21, "newton_direction", ascent_first)
        spec = random_subproblem(7)
        stats = SolveStats()
        _, call = sncg_solve(DualState.cold(spec, 1.0), spec, 1e-9, 50, stats)
        assert stats.sncg_fallbacks == call["fallbacks"] == 1
        assert call["met"] and call["gnorm"] <= 1e-9

        steps.clear()
        _, _, alm_stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert alm_stats.sncg_fallbacks == alm_stats.to_dict()["sncg_fallbacks"] == 1
        assert alm_stats.converged and alm_stats.sncg_unmet == 0

    def test_stops_at_the_multiplier_criterion(self, rng):
        # far from the multiplier's fixed point, criterion (B) ends the call
        # well above a rounding-floor target, counted as early, not as unmet
        spec = random_subproblem(7)
        state = DualState.cold(spec, 2.0)
        state.x = rng.standard_normal(spec.p)
        grad_tol = 1e-11 * (1 + np.linalg.norm(spec.b))
        stats, stats_off = SolveStats(), SolveStats()
        xi, call = sncg_solve(state, spec, grad_tol, 50, stats, delta=0.1)
        _, call_off = sncg_solve(state, spec, grad_tol, 50, stats_off)
        assert call["early"] and not call["met"] and call["gnorm"] > grad_tol
        # the box does not clip here, so the gradient is that of the no-box function at eta = 0
        gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
        assert gnorm <= _multiplier_bound(xi, state, spec, 0.1) * (1 + 1e-9)
        assert (stats.sncg_early, stats.sncg_unmet) == (1, 0)
        # without it the same call runs on to its target
        assert call_off["met"] and not call_off["early"] and stats_off.sncg_early == 0
        assert 0 < call["iters"] < call_off["iters"]

        # the ALM solve that exits this way still solves the subproblem
        spec = random_subproblem(9, n=60, p=90, m=18)
        x, _, alm_stats = alm_solve(spec, AlmConfig(tol=1e-7))
        assert alm_stats.converged and alm_stats.sncg_early > 0
        assert alm_stats.sncg_early == sum(h["sncg_early"] for h in alm_stats.history)
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-10)
        p_alm, p_ref = primal_objective(x, spec), primal_objective(x_ref, spec)
        assert abs(p_alm - p_ref) <= 1e-6 * abs(p_ref)

    def test_stops_at_the_newton_decrement(self, rng):
        # at sigma = 100 the gradient form of criterion (B) overstates the
        # subproblem gap, and the decrement form ends the call first
        spec = random_subproblem(7)
        state = DualState.cold(spec, 100.0)
        state.x = rng.standard_normal(spec.p)
        grad_tol = 1e-11 * (1 + np.linalg.norm(spec.b))
        stats, stats_off = SolveStats(), SolveStats()
        _, call = sncg_solve(state, spec, grad_tol, 50, stats, delta=0.1)
        _, call_off = sncg_solve(state, spec, grad_tol, 50, stats_off)
        assert call["decrement"] and not (call["met"] or call["early"])
        assert (stats.sncg_decrement, stats.sncg_early, stats.sncg_unmet) == (1, 0, 0)
        assert call_off["met"] and stats_off.sncg_decrement == 0
        assert 0 < call["iters"] < call_off["iters"]
        # the point before the last step: the exits do not change the steps,
        # so the call with (B) off passes through it
        xi, _ = sncg_solve(state, spec, 0.0, call["iters"] - 1, SolveStats())
        eta = np.zeros(spec.p)
        y = spec.A.T @ xi + state.x / state.sigma
        s = prox_group_box(y, spec.g, spec.omega, np.inf)
        assert np.max(np.abs(s)) < spec.box.R / state.sigma
        # the box does not clip here, so the gradient and the Newton matrix
        # are those of the no-box function at eta = 0
        grad = phi_kj_grad(xi, eta, state, spec)
        d = np.linalg.solve(dense_hessian(xi, eta, state, spec), -grad)
        bound = _multiplier_bound(xi, state, spec, 0.1)
        assert -grad @ d <= bound**2 * (1 + 1e-9)
        # where the gradient form of (B) fails
        assert np.linalg.norm(grad) > bound

        # where the step leaves a multiplier step of at most tol * sigma, the
        # call runs on past the decrement to another exit
        _, call_tol = sncg_solve(state, spec, grad_tol, 50, SolveStats(), delta=0.1, tol=1e6)
        assert not call_tol["decrement"] and call_tol["iters"] > call["iters"]

    def test_carried_product_gives_the_same_solve(self, rng):
        # handing SNCG the exact A^T xi0 saves its first dense product and
        # changes nothing else, bit for bit
        spec = random_subproblem(8)
        state = DualState.cold(spec, 2.0)
        state.x = rng.standard_normal(spec.p)
        xi0 = rng.standard_normal(spec.n)
        stats, stats_c = SolveStats(), SolveStats()
        xi, call = sncg_solve(state, spec, 1e-9, 50, stats, xi0=xi0)
        xi_c, call_c = sncg_solve(state, spec, 1e-9, 50, stats_c, xi0=xi0, At_xi0=spec.A.T @ xi0)
        assert np.array_equal(xi_c, xi) and call["iters"] > 0 and call_c == call
        assert stats_c.dense_products == stats.dense_products - 1
        stats_c.dense_products += 1
        assert stats_c == stats

    def test_monotone_descent(self, rng):
        spec = random_subproblem(8)
        state = DualState.cold(spec, 1.0)
        state.x = rng.standard_normal(spec.p)
        eta = np.zeros(spec.p)
        xi0 = rng.standard_normal(spec.n)
        f0 = phi_kj_value(xi0, eta, state, spec)
        xi, _ = sncg_solve(state, spec, 1e-8, 50, SolveStats(), xi0=xi0)
        assert phi_kj_value(xi, eta, state, spec) <= f0 + 1e-12

    def test_failed_line_search_is_a_stall(self, monkeypatch):
        # with no backtrack allowed, a refused full Newton step ends the call
        # as a counted stall at the last accepted xi; nothing is raised
        spec = random_subproblem(8, omega_scale=0.5)
        state = DualState.cold(spec, 1.0)
        state.x = np.random.default_rng(8).standard_normal(spec.p)
        monkeypatch.setattr(wl21, "_ARMIJO_MU", 0.49)
        monkeypatch.setattr(wl21, "_MAX_BACKTRACKS", 0)
        points = []  # the start, then every trial point
        psi = wl21._psi

        def recording(xi, *args):
            points.append(xi)
            return psi(xi, *args)

        monkeypatch.setattr(wl21, "_psi", recording)
        stats = SolveStats()
        xi, call = sncg_solve(state, spec, 1e-9, 50, stats)
        assert call["stalls"] == 1 and not call["met"] and call["backtracks"] == 1
        assert call["iters"] == len(points) - 2 > 0
        assert (stats.sncg_stalls, stats.sncg_unmet, stats.sncg_backtracks) == (1, 1, 1)
        # the last trial point was refused; xi is the one accepted before it
        assert np.array_equal(xi, points[-2]) and not np.array_equal(xi, points[-1])


class TestAlm:
    def test_matches_first_order_reference(self):
        spec = random_subproblem(9, n=60, p=90, m=18)
        x, state, stats = alm_solve(spec, AlmConfig(tol=1e-7))
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-10)
        assert stats.converged
        p_alm = primal_objective(x, spec)
        p_ref = primal_objective(x_ref, spec)
        assert abs(p_alm - p_ref) <= 1e-7 * max(1.0, abs(p_ref))
        assert np.linalg.norm(x - x_ref) < 1e-4

    def test_multiplier_update_identity(self, monkeypatch):
        # from a cold start at sigma_0 = 1, one outer step gives
        # x^1 = sigma_0 (A^T xi + eta - zeta), with the blocks abcd_solve returns
        spec = random_subproblem(10)
        monkeypatch.setattr(wl21, "_MAX_OUTER", 1)
        returned = []
        abcd = wl21.abcd_solve
        monkeypatch.setattr(wl21, "abcd_solve", lambda *a: returned.append(abcd(*a)) or returned[-1])
        _, state, stats = alm_solve(spec, AlmConfig(tol=0.0))
        assert stats.history[0]["sigma"] == 1.0 and len(returned) == 1
        eta, xi, zeta, x_new, _ = returned[0]
        assert np.array_equal(state.xi, xi) and np.array_equal(state.x, x_new)
        assert np.array_equal(state.x, spec.A.T @ xi + eta - zeta)

    def test_feasibility_and_gap_reported(self):
        spec = random_subproblem(11)
        _, state, stats = alm_solve(spec, AlmConfig(tol=1e-6))
        assert stats.converged
        assert max(stats.eps_pinf, stats.eps_dinf, stats.eps_gap) <= 1e-6
        assert len(stats.history) == stats.outer_iters

    def test_strong_duality_at_solution(self):
        # eps_gap is |P + D| / (1 + |P|), P the objective at the returned x and
        # D the dual value at the last outer iteration's blocks
        spec = random_subproblem(12)
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        pobj = primal_objective(x, spec)
        assert stats.eps_gap * (1.0 + abs(pobj)) == pytest.approx(0.0, abs=1e-6)

    def test_zero_weights_reduce_to_least_squares(self, rng):
        # omega = 0: the subproblem is box-constrained LS with inactive box
        n, p = 40, 20
        A = rng.standard_normal((n, p))
        x_true = rng.standard_normal(p)
        b = A @ x_true
        g = contiguous_groups(p, 5)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=np.zeros(5), box=BoxConstraint(1e3))
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged
        assert np.linalg.norm(x - x_true) < 1e-4

    def test_huge_weights_give_zero(self, rng):
        spec = random_subproblem(13)
        big = SubproblemSpec(
            A=spec.A, b=spec.b, g=spec.g,
            omega=np.full(spec.g.m, 1e4), box=spec.box,
        )
        x, _, stats = alm_solve(big, AlmConfig(tol=1e-8))
        assert stats.converged
        assert np.max(np.abs(x)) < 1e-8

    def test_sncg_counters_roll_up(self, monkeypatch):
        calls, systems = [], []
        sncg, newton = wl21.sncg_solve, wl21.newton_direction

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, certify=False):
            # a zero gradient tolerance lies below every rounding floor, so with
            # both forms of criterion (B) off each call stalls
            xi, s = sncg(state, spec, 0.0, max_iter, stats, xi0=xi0, At_xi0=At_xi0, tol=tol,
                         certify=certify)
            calls.append(s)
            return xi, s

        def sizes(*args, **kwargs):
            d, r = newton(*args, **kwargs)
            systems.append(r)
            return d, r

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        monkeypatch.setattr(wl21, "newton_direction", sizes)
        spec = random_subproblem(16, omega_scale=0.5)
        # mu near 1/2 makes the Armijo test turn down some full Newton steps
        monkeypatch.setattr(wl21, "_ARMIJO_MU", 0.49)
        _, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        # the ALM's totals are the sums of the per-call records the benchmark tracer reads
        assert set(calls[0]) == {"iters", "backtracks", "fallbacks", "stalls", "cg_iters",
                                 "met", "early", "decrement", "certified", "gnorm"}
        assert stats.sncg_iters == sum(s["iters"] for s in calls)
        assert stats.sncg_fallbacks == sum(s["fallbacks"] for s in calls)
        assert stats.sncg_backtracks == sum(s["backtracks"] for s in calls) > 0
        assert stats.sncg_stalls == sum(s["stalls"] for s in calls) > 0
        assert stats.sncg_unmet == sum(not s["met"] for s in calls) > 0
        assert stats.sncg_early == sum(s["early"] for s in calls) == 0
        assert stats.sncg_decrement == sum(s["decrement"] for s in calls) == 0
        assert all(s["cg_iters"] == 0 for s in calls)
        # and each Newton system is counted once, by its r
        assert stats.sncg_nn_systems == sum(r >= spec.n for r in systems)
        assert stats.sncg_woodbury_systems == sum(0 < r < spec.n for r in systems)
        assert stats.sncg_max_r == max(systems) > 0
        d = stats.to_dict()
        assert (d["sncg_fallbacks"], d["sncg_backtracks"], d["sncg_stalls"]) == (
            stats.sncg_fallbacks, stats.sncg_backtracks, stats.sncg_stalls)
        assert (d["sncg_nn_systems"], d["sncg_woodbury_systems"], d["sncg_max_r"]) == (
            stats.sncg_nn_systems, stats.sncg_woodbury_systems, stats.sncg_max_r)

    def test_sncg_ends_at_the_rounding_floor(self, monkeypatch):
        # On this instance the Armijo test used to compare function values
        # closer than their rounding error: calls ran all max_iter steps with
        # 20-30 backtracks each while the gradient stayed above grad_tol.
        calls = []
        sncg = wl21.sncg_solve

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, certify=False, floor=False):
            xi, s = sncg(state, spec, 0.0 if floor else grad_tol, max_iter, stats, xi0=xi0,
                         At_xi0=At_xi0, delta=0.0 if floor else delta, tol=tol, certify=certify)
            gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
            calls.append((s, gnorm, grad_tol, _multiplier_bound(xi, state, spec, delta)))
            return xi, s

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        spec = random_subproblem(16, omega_scale=0.5)
        _, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.sncg_stalls == stats.sncg_unmet == 0
        # each call ends at its target or at either form of criterion (B),
        # none at max_iter
        max_iter = wl21._SNCG_MAX_ITER
        assert all(s["iters"] < max_iter for s, _, _, _ in calls)
        assert all(gnorm <= tol for s, gnorm, tol, _ in calls if s["met"])
        early = [(gnorm, bound) for s, gnorm, _, bound in calls if s["early"]]
        assert stats.sncg_early == len(early) > 0
        assert all(gnorm <= bound * (1 + 1e-6) for gnorm, bound in early)
        assert stats.sncg_decrement == sum(s["decrement"] for s, _, _, _ in calls)
        assert all(s["met"] + s["early"] + s["decrement"] == 1 for s, _, _, _ in calls)
        assert stats.sncg_backtracks < stats.sncg_iters

        # with criterion (B) off, below the floor each call ends in a stall, not at max_iter
        calls.clear()
        monkeypatch.setattr(wl21, "sncg_solve", lambda *a, **k: recording(*a, **k, floor=True))
        _, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.sncg_stalls == len(calls) > 0 and stats.sncg_early == 0
        assert all(s["stalls"] == 1 and s["iters"] < max_iter for s, _, _, _ in calls)

    def test_sigma_grows_until_converged(self, monkeypatch):
        # sigma grows by 5 after an iteration whose eps_dinf kept more than
        # half of its previous value, and by 1.3 otherwise
        spec = random_subproblem(17)
        monkeypatch.setattr(wl21, "_SIGMA_MAX", 50.0)
        _, _, stats = alm_solve(spec, AlmConfig(tol=1e-9))
        hist = stats.history
        assert stats.converged and hist[0]["sigma"] == 1.0
        assert not hist[0]["stalled"]
        for prev, curr in zip(hist, hist[1:]):
            assert curr["stalled"] == (curr["eps_dinf"] > 0.5 * prev["eps_dinf"])
            growth = 5.0 if prev["stalled"] else 1.3
            assert curr["sigma"] == pytest.approx(min(growth * prev["sigma"], 50.0), rel=1e-12)
        stalled = [h["stalled"] for h in hist[:-1]]
        assert any(stalled) and not all(stalled)
        assert hist[-1]["sigma"] == 50.0

    def test_unmet_sncg_calls_are_counted(self, monkeypatch):
        calls = []
        sncg = wl21.sncg_solve

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, certify=False):
            xi, s = sncg(state, spec, grad_tol, max_iter, stats, xi0=xi0, At_xi0=At_xi0,
                         delta=delta, tol=tol, certify=certify)
            gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
            calls.append((s, gnorm, grad_tol))
            return xi, s

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        spec = random_subproblem(16)
        monkeypatch.setattr(wl21, "_SNCG_MAX_ITER", 1)
        _, _, stats = alm_solve(spec)
        unmet = [(s, gnorm, tol) for s, gnorm, tol in calls
                 if not (s["met"] or s["early"] or s["decrement"])]
        assert stats.sncg_unmet == stats.to_dict()["sncg_unmet"] == len(unmet) > 0
        assert stats.sncg_stalls == 0
        # an unmet call ran its one step and ended above its target
        assert all(s["iters"] == 1 and gnorm > tol for s, gnorm, tol in unmet)
        assert all(s["met"] or s["early"] for s, _, _ in calls if s["iters"] == 0)
        # eps_pinf is the gradient norm each call ended at, over 1 + ||b||
        bnorm = 1.0 + np.linalg.norm(spec.b)
        assert [h["eps_pinf"] for h in stats.history] == [s["gnorm"] / bnorm for s, _, _ in calls]
        assert all(gnorm == pytest.approx(s["gnorm"], rel=1e-6) for s, gnorm, _ in unmet)
        # each history entry carries its call's record and target
        assert [(h["sncg_iters"], h["sncg_backtracks"], h["sncg_met"], h["sncg_early"],
                 h["sncg_decrement"], h["sncg_gnorm"], h["sncg_target"])
                for h in stats.history] == [
            (s["iters"], s["backtracks"], s["met"], s["early"], s["decrement"], s["gnorm"], tol)
            for s, _, tol in calls]

    def test_alm_solve_does_not_stop_on_a_decrement_exit(self):
        # a call that ends at the decrement leaves eps_dinf above tol, so the
        # solve runs on; here the last call would end at the decrement if
        # that exit were taken wherever the decrement meets criterion (B)
        spec = random_subproblem(11)
        cfg = AlmConfig()
        x, _, stats = alm_solve(spec, cfg)
        ends = [h for h in stats.history if h["sncg_decrement"]]
        assert stats.converged and stats.sncg_decrement == len(ends) > 0
        assert all(h["eps_dinf"] > cfg.tol for h in ends)
        assert stats.history[-1]["sncg_met"] or stats.history[-1]["sncg_early"]
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-10)
        p_alm, p_ref = primal_objective(x, spec), primal_objective(x_ref, spec)
        assert abs(p_alm - p_ref) <= 1e-6 * abs(p_ref)

    @staticmethod
    def _scaled_subproblem(omega0=None, duplicate=False):
        # b and omega scaled by 1e3 scale x by 1e3, and with it the absolute
        # eps_dinf, so that the residual test is the last to pass
        spec = random_subproblem(9, R=1e8)
        omega = 1e3 * spec.omega
        if omega0 is not None:
            omega[0] = omega0
        A = spec.A.copy()
        if duplicate:
            A[:, 1] = A[:, 0]  # a repeated column in group 0
        return SubproblemSpec(A=A, b=1e3 * spec.b, g=spec.g, omega=omega, box=spec.box)

    def test_stops_on_a_certified_duality_gap(self):
        spec = self._scaled_subproblem()
        cfg = AlmConfig(tol=1e-6)
        x, _, stats = alm_solve(spec, cfg)
        last = stats.history[-1]
        assert stats.converged and stats.stop_cause == "converged"
        assert last["eps_dinf"] > cfg.tol and last["eps_pinf"] <= cfg.tol
        assert stats.cert_gap == last["cert_gap"] <= cfg.tol
        # the dual point of the returned x, computed here group by group
        r = spec.A @ x - spec.b
        corr = np.array([np.linalg.norm(spec.A[:, J].T @ r) for J in spec.g.groups])
        theta = min(1.0, np.min(spec.omega / corr)) * r
        p_x = (0.5 * r @ r + sum(w * np.linalg.norm(x[J])
                                 for w, J in zip(spec.omega, spec.g.groups))) / spec.n
        d_theta = (-0.5 * theta @ theta - spec.b @ theta) / spec.n
        assert stats.cert_gap == pytest.approx((p_x - d_theta) / p_x, rel=1e-12)
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-6)
        p_ref = primal_objective(x_ref, spec)
        assert abs(primal_objective(x, spec) - p_ref) <= stats.cert_gap * p_x

    def test_an_unpenalized_group_keeps_the_residual_test(self):
        # a repeated column makes A_F rank-deficient, so the unpenalized group
        # is not eliminated and stays in the problem
        spec = self._scaled_subproblem(omega0=0.0, duplicate=True)
        cfg = AlmConfig(tol=1e-6)
        _, _, stats = alm_solve(spec, cfg)
        assert stats.converged and stats.cert_gap is None and stats.eliminated_columns == 0
        assert all(h["cert_gap"] is None for h in stats.history)
        assert max(stats.eps_pinf, stats.eps_dinf, stats.eps_gap) <= cfg.tol

    def test_warm_start_converges_faster(self):
        spec = random_subproblem(14, n=50, p=80, m=16)
        x1, state, stats_cold = alm_solve(spec, AlmConfig(tol=1e-6))
        _, _, stats_warm = alm_solve(spec, AlmConfig(tol=1e-6), warm=state)
        assert stats_warm.converged
        assert stats_warm.outer_iters <= stats_cold.outer_iters

    def test_warm_xi_is_scaled_into_the_new_balls(self, monkeypatch):
        spec = random_subproblem(14, n=50, p=80, m=16)
        _, warm, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        # smaller weights, as in the next stage of the multi-stage loop, and
        # one unpenalized group of 5 columns, which is eliminated: the ALM runs
        # on the n - 5 rows of U^T A_P, with U^T xi as its warm xi
        omega = 0.1 * spec.omega
        omega[0] = 0.0
        small = SubproblemSpec(A=spec.A, b=spec.b, g=spec.g, omega=omega, box=spec.box)
        xi_warm = warm.xi.copy()
        handed, calls = [], []
        alm, sncg = wl21._alm, wl21.sncg_solve

        def recording_alm(spec, tol, warm, certify=False):
            handed.append(warm.xi)
            return alm(spec, tol, warm, certify)

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, certify=False, unscaled=False):
            if unscaled and not calls:
                xi0 = handed[-1]  # the first call starts at the warm xi the ALM was handed
            calls.append((spec, xi0))
            return sncg(state, spec, grad_tol, max_iter, stats, xi0=xi0, At_xi0=At_xi0,
                        delta=delta, tol=tol, certify=certify)

        monkeypatch.setattr(wl21, "_alm", recording_alm)
        monkeypatch.setattr(wl21, "sncg_solve", recording)
        x, _, stats = alm_solve(small, AlmConfig(tol=1e-8), warm=warm)
        assert stats.converged and stats.eliminated_columns == 5
        assert np.array_equal(warm.xi, xi_warm)
        sub, start = calls[0]
        assert sub.A.shape == (45, 75) and handed[0].shape == (45,) and np.all(sub.omega > 0)
        # the warm xi lies outside the new balls, and the first call starts
        # from it scaled into them
        assert np.any(group_norms(sub.A.T @ handed[0], sub.g) > sub.omega)
        first = group_norms(sub.A.T @ start, sub.g)
        assert np.all(first <= sub.omega * (1 + 1e-12))
        assert np.any(np.isclose(first, sub.omega, rtol=1e-12, atol=0))

        # the subproblem is strongly convex in xi: the unscaled start ends at the same x
        calls.clear()
        monkeypatch.setattr(wl21, "sncg_solve", lambda *a, **k: recording(*a, **k, unscaled=True))
        x_unscaled, _, stats = alm_solve(small, AlmConfig(tol=1e-8), warm=warm)
        assert stats.converged and np.array_equal(calls[0][1], handed[-1])
        assert np.linalg.norm(x - x_unscaled) <= 1e-8 * np.linalg.norm(x_unscaled)

    @pytest.mark.parametrize("sigma_max", [1e6, 500.0], ids=["ratio", "capped"])
    def test_warm_sigma_starts_at_the_multiplier_over_the_weights(self, sigma_max, monkeypatch):
        spec = random_subproblem(14, n=50, p=80, m=16)
        _, warm, _ = alm_solve(spec, AlmConfig(tol=1e-6))
        # much smaller weights: ||x||_inf / max omega lies above the warm sigma
        small = SubproblemSpec(A=spec.A, b=spec.b, g=spec.g, omega=0.01 * spec.omega,
                               box=spec.box)
        ratio = np.max(np.abs(warm.x)) / np.max(small.omega)
        assert ratio > max(warm.sigma, 1.0) and ratio > 500.0
        monkeypatch.setattr(wl21, "_SIGMA_MAX", sigma_max)
        _, _, stats = alm_solve(small, AlmConfig(tol=1e-6), warm=warm)
        assert stats.converged
        assert stats.history[0]["sigma"] == min(max(warm.sigma, 1.0, ratio), sigma_max)

    def test_warm_solve_with_every_weight_zero_keeps_its_sigma(self, monkeypatch):
        # p > n: the unpenalized columns are not eliminated, and no ratio is taken
        spec = random_subproblem(14, n=50, p=80, m=16)
        _, warm, _ = alm_solve(spec, AlmConfig(tol=1e-6))
        free = SubproblemSpec(A=spec.A, b=spec.b, g=spec.g, omega=np.zeros(spec.g.m),
                              box=spec.box)
        low = DualState(warm.xi, warm.x, 0.5)
        monkeypatch.setattr(wl21, "_MAX_OUTER", 3)
        for start, expected in ((warm, warm.sigma), (low, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, _, stats = alm_solve(free, AlmConfig(tol=1e-6), warm=start)
            assert stats.eliminated_columns == 0
            assert stats.history[0]["sigma"] == expected

    def test_group_sparsity_in_solution(self):
        # moderately large weights should zero out entire groups exactly
        spec = random_subproblem(15, omega_scale=0.5)
        x, _, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        norms = group_norms(x, spec.g)
        assert np.any(norms == 0.0)

    def test_solution_is_zero_off_the_prox_support(self):
        # the multiplier is sigma times the prox up to rounding: where the
        # prox is 0, -state.x holds only rounding residue, which x drops
        spec = random_subproblem(15, omega_scale=0.5)
        x, state, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        full = np.clip(-state.x, -spec.box.R, spec.box.R)
        on = np.isin(spec.g.group_id, group_support(x, spec.g))
        assert np.array_equal(x[on], full[on])
        assert np.all(x[~on] == 0.0) and np.any(full[~on] != 0.0)
        assert np.all(np.abs(full[~on]) < 1e-9 * np.max(np.abs(x)))

    @pytest.mark.parametrize("seed", [12345, 1, 2, 3, 4, 5])
    def test_active_box_is_respected(self, seed):
        # tiny radius forces the box active; solution stays feasible.  With a
        # block descent over eta these took up to 200 outer iterations
        # (seed 4 stopped there unconverged)
        rng = np.random.default_rng(seed)
        n, p = 30, 12
        A = rng.standard_normal((n, p))
        b = A @ np.full(p, 5.0)
        g = contiguous_groups(p, 4)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=np.full(4, 0.01), box=BoxConstraint(1.0))
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.outer_iters <= 10
        assert np.max(np.abs(x)) <= 1.0 + 1e-8
        assert np.any(np.abs(x) == 1.0)  # the box binds
        # compare against projected gradient on the box-constrained problem
        x_pg = np.zeros(p)
        L = np.linalg.svd(A, compute_uv=False)[0] ** 2
        G, c = A.T @ A / L, A.T @ b / L  # the gradient step is x - (G x - c)
        for _ in range(20000):
            x_pg = np.clip(x_pg - (G @ x_pg - c), -1.0, 1.0)
        # omega is tiny so the LS part dominates; objectives agree to the
        # solver's relative tolerance on this badly scaled instance
        p_alm, p_ref = primal_objective(x, spec), primal_objective(x_pg, spec)
        assert p_alm <= p_ref + 1e-6 * (1.0 + abs(p_ref))


class TestElimination:
    @staticmethod
    def _with_free_groups(free, seed=19):
        spec = random_subproblem(seed, n=60, p=90, m=18)
        omega = spec.omega.copy()
        omega[free] = 0.0
        return SubproblemSpec(A=spec.A, b=spec.b, g=spec.g, omega=omega, box=spec.box)

    @pytest.mark.parametrize("free", [[3], [3, 11]], ids=["one", "two"])
    def test_matches_the_reference_within_its_certified_gap(self, free):
        spec = self._with_free_groups(free)
        cols_F = spec.g.segments(spec.omega == 0.0)[0]
        x, state, stats = alm_solve(spec, AlmConfig(tol=1e-7))
        assert stats.converged and stats.eliminated_columns == cols_F.size == 5 * len(free)
        # the residual test may pass first; the certificate is computed all the same
        assert not stats.closed_form and stats.cert_gap is not None
        x_ref, _ = fista_reference(spec, grad_map_tol=1e-10)
        p_x = primal_objective(x, spec)
        assert abs(p_x - primal_objective(x_ref, spec)) <= stats.cert_gap * p_x
        # the multiplier on the eliminated columns is -x_F
        assert np.array_equal(state.x[cols_F], -x[cols_F])
        # x_F minimizes over F exactly: A_F^T (Ax - b) = 0 up to rounding
        r = spec.A @ x - spec.b
        A_F = spec.A[:, cols_F]
        assert np.linalg.norm(A_F.T @ r) <= 1e-10 * np.linalg.norm(spec.b)
        # p > n: the ALM ran on the n - k rows orthogonal to range(A_F), so the
        # xi it returns, lifted to n rows, is orthogonal to A_F up to rounding
        assert state.xi.shape == (spec.n,)
        assert (np.linalg.norm(A_F.T @ state.xi)
                <= 1e-13 * np.linalg.norm(A_F, 2) * np.linalg.norm(state.xi))

    def test_warm_start_from_an_eliminated_solve(self):
        # the next stage's weights: another group unpenalized, the others smaller
        spec = self._with_free_groups([3])
        _, warm, _ = alm_solve(spec, AlmConfig(tol=1e-7))
        nxt = self._with_free_groups([3, 11])
        nxt = SubproblemSpec(A=nxt.A, b=nxt.b, g=nxt.g, omega=0.5 * nxt.omega, box=nxt.box)
        x, _, stats = alm_solve(nxt, AlmConfig(tol=1e-7), warm=warm)
        x_cold, _, _ = alm_solve(nxt, AlmConfig(tol=1e-7))
        assert stats.converged and stats.eliminated_columns == 10
        assert np.linalg.norm(x - x_cold) <= 1e-5 * np.linalg.norm(x_cold)

    def test_all_groups_unpenalized_is_the_least_squares_in_closed_form(self, rng):
        n, p = 40, 20
        A = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        g = contiguous_groups(p, 5)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=np.zeros(5), box=BoxConstraint(1e3))
        x, state, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(x, x_ls, rtol=0, atol=1e-12 * np.linalg.norm(x_ls))
        assert stats.converged and stats.closed_form and stats.stop_cause == "converged"
        assert stats.outer_iters == stats.sncg_iters == stats.dense_products == 0
        assert stats.eliminated_columns == p and stats.history == []
        # the optimal dual point is the residual
        assert np.allclose(state.xi, A @ x - b, rtol=0, atol=1e-12 * np.linalg.norm(b))
        assert np.array_equal(state.x, -x)

    @pytest.mark.parametrize("response", ["consistent", "residual", "random"])
    @pytest.mark.parametrize("log_cond", range(11))
    def test_closed_form_matches_lstsq_at_every_condition(self, log_cond, response,
                                                          monkeypatch):
        # A = U diag(s) V^T with singular values log-spaced from 1 to
        # 10^-log_cond.  b is A x_true, A x_true plus a residual orthogonal to
        # range(A), or random, whose least squares grows like the condition
        # number; the box holds all of them
        rng = np.random.default_rng(log_cond)
        n, p = 64, 24
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((p, p)))
        A = (U[:, :p] * np.logspace(0, -log_cond, p)) @ V.T
        if response == "random":
            b = rng.standard_normal(n)
        else:
            b = A @ rng.standard_normal(p)
            if response == "residual":
                b += U[:, p:] @ rng.standard_normal(n - p)
        g = contiguous_groups(p, 6)
        spec = SubproblemSpec(A=A, b=b, g=g, omega=np.zeros(6), box=BoxConstraint(1e12))
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
        x, state, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.stop_cause == "converged" and stats.closed_form
        assert stats.outer_iters == 0 and stats.eliminated_columns == p
        assert np.array_equal(state.xi, A @ x - b) and np.array_equal(state.x, -x)
        # two backward-stable solvers agree to about eps times the condition
        # number, and to 1e-9 up to 10^5.5
        x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        bound = max(1e-9, 10 * np.finfo(float).eps * 10.0**log_cond)
        assert np.linalg.norm(x - x_ls) <= bound * np.linalg.norm(x_ls)
        # the refinement step from the Gram settles up to 10^5 on a consistent
        # b and 10^3 otherwise; from 10^7 and 10^4 the QR of A takes over,
        # also at 10^8, where the Gram's Cholesky would still succeed.  The
        # consistent b at 10^6 sits at the settle bound and may go either way
        if log_cond <= (5 if response == "consistent" else 3):
            assert not qr_calls
        if log_cond >= (7 if response == "consistent" else 4):
            assert len(qr_calls) == 1

    @pytest.mark.parametrize("column", ["repeated", "zero"])
    def test_rank_deficient_least_squares_takes_the_full_solve(self, column, rng):
        # a repeated column leaves the Gram's LU a tiny pivot, a zero column an
        # exactly singular one; either way the QR's rank test fails
        n, p = 40, 20
        A = rng.standard_normal((n, p))
        A[:, 5] = A[:, 2] if column == "repeated" else 0.0
        b = rng.standard_normal(n)
        spec = SubproblemSpec(A=A, b=b, g=contiguous_groups(p, 5), omega=np.zeros(5),
                              box=BoxConstraint(1e3))
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and not stats.closed_form
        assert stats.outer_iters > 0 and stats.eliminated_columns == 0
        x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ x_ls - b) + 1e-8 * np.linalg.norm(b)

    def test_closed_form_reads_the_gram_and_no_qr(self, rng, monkeypatch):
        n, p = 40, 20
        spec = SubproblemSpec(A=rng.standard_normal((n, p)), b=rng.standard_normal(n),
                              g=contiguous_groups(p, 5), omega=np.zeros(5), box=BoxConstraint(1e3))

        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        built = []
        gram = SubproblemSpec.gram

        def counted(self):
            if self._gram is None:
                built.append(1)
            return gram(self)

        monkeypatch.setattr(SubproblemSpec, "gram", counted)
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        x_again, _, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.closed_form and np.array_equal(x, x_again)
        # the Gram is built once and kept with the instance
        assert built == [1] and np.array_equal(spec._gram, spec.A.T @ spec.A)

    def test_an_eliminated_problem_whose_box_binds_stops_on_the_residual_test(self, rng):
        # orthonormal columns: x_F = 0.5 whatever x_P, while the box of radius 1
        # clips x_P at 1 against its least squares 5.  The certificate drops
        # the box, so it cannot pass there; the residual test stops the solve
        n, p = 40, 20
        A, _ = np.linalg.qr(rng.standard_normal((n, p)))
        x_true = np.full(p, 5.0)
        x_true[:4] = 0.5
        g = contiguous_groups(p, 5)
        omega = np.full(5, 0.01)
        omega[0] = 0.0
        spec = SubproblemSpec(A=A, b=A @ x_true, g=g, omega=omega, box=BoxConstraint(1.0))
        cfg = AlmConfig(tol=1e-8)
        x, _, stats = alm_solve(spec, cfg)
        assert stats.converged and stats.eliminated_columns == 4
        assert np.any(np.abs(x) == 1.0)  # the box binds
        assert stats.cert_gap > cfg.tol
        assert max(stats.eps_pinf, stats.eps_dinf, stats.eps_gap) <= cfg.tol
        assert np.allclose(x[:4], 0.5, rtol=0, atol=1e-12)
        assert np.allclose(x[4:], 1.0, rtol=0, atol=1e-8)

    def test_unpenalized_columns_outside_the_box_take_the_full_solve(self, rng):
        # the least squares over group 0 puts x_F near 5, outside the box of radius 1
        n, p = 40, 20
        A = rng.standard_normal((n, p))
        b = A @ np.full(p, 5.0)
        g = contiguous_groups(p, 5)
        omega = np.full(5, 0.01)
        omega[0] = 0.0
        spec = SubproblemSpec(A=A, b=b, g=g, omega=omega, box=BoxConstraint(1.0))
        x, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.eliminated_columns == 0 and stats.cert_gap is None
        assert np.max(np.abs(x)) <= 1.0 and np.any(np.abs(x) == 1.0)  # the box binds


class TestPrimalNewton:
    @staticmethod
    def _both_paths(spec, cfg, monkeypatch):
        """``alm_solve`` as it runs, and with the primal Newton turned off: the ALM alone."""
        solved = alm_solve(spec, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(wl21, "_primal_newton", lambda *args: None)
            alone = alm_solve(spec, cfg)
        return solved, alone

    @staticmethod
    def _assert_fell_back(solved, alone):
        # the ALM ran as if the primal Newton had not been tried: the same
        # point, state and path, bit for bit
        (x, state, stats), (x_alm, state_alm, stats_alm) = solved, alone
        assert np.array_equal(x, x_alm)
        assert np.array_equal(state.xi, state_alm.xi) and np.array_equal(state.x, state_alm.x)
        assert state.sigma == state_alm.sigma
        assert stats.outer_iters == stats_alm.outer_iters > 0
        assert stats.history == stats_alm.history
        assert (stats.converged, stats.cert_gap) == (stats_alm.converged, stats_alm.cert_gap)
        assert stats_alm.primal_steps == stats_alm.primal_backtracks == 0

    def test_a_narrow_problem_is_certified_on_the_primal_path(self, monkeypatch):
        spec = random_subproblem(5, n=60, p=30, m=6)
        cfg = AlmConfig(tol=1e-8)
        (x, state, stats), (x_alm, _, stats_alm) = self._both_paths(spec, cfg, monkeypatch)
        assert stats.converged and stats.stop_cause == "converged"
        assert stats.outer_iters == stats.sncg_iters == 0 and stats.history == []
        assert stats.primal_steps > 0 and stats.cert_gap <= cfg.tol
        # A^T b, then Ax - b and A^T r for the certificate
        assert stats.dense_products == 3
        assert np.array_equal(state.x, -x)
        assert np.allclose(state.xi, spec.A @ x - spec.b, rtol=0,
                           atol=1e-12 * np.linalg.norm(spec.b))
        # P(x) - P* >= ||A (x - x*)||^2 / 2n bounds how far each point is
        n = spec.n
        reach = [np.sqrt(2 * n * st.cert_gap * primal_objective(z, spec))
                 for z, st in ((x, stats), (x_alm, stats_alm))]
        assert stats_alm.converged and stats_alm.cert_gap <= cfg.tol
        assert np.linalg.norm(spec.A @ (x - x_alm)) <= sum(reach)

    def test_a_binding_box_falls_back_to_the_alm(self, monkeypatch):
        # the unconstrained optimum has entries near 5, outside the box of radius 1
        spec = random_subproblem(5, n=60, p=30, m=6)
        spec = SubproblemSpec(A=spec.A, b=spec.A @ np.full(spec.p, 5.0), g=spec.g,
                              omega=spec.omega, box=BoxConstraint(1.0))
        solved, alone = self._both_paths(spec, AlmConfig(tol=1e-8), monkeypatch)
        self._assert_fell_back(solved, alone)
        assert np.any(np.abs(solved[0]) == 1.0)  # the box binds
        # the attempt's steps are counted, and its A^T b, but no certificate
        assert solved[2].primal_steps > 0
        assert solved[2].dense_products == alone[2].dense_products + 1

    def test_a_rank_deficient_working_set_falls_back_to_the_alm(self, monkeypatch):
        # a zero column in a group that breaks the KKT conditions at 0: the
        # cold start's least squares on G_KK meets an exactly zero pivot
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 12))
        A[:, 11] = 0.0
        b = A @ np.r_[np.zeros(8), np.full(4, 2.0)] + 0.1 * rng.standard_normal(40)
        spec = SubproblemSpec(A=A, b=b, g=contiguous_groups(12, 3), omega=np.full(3, 1.0),
                              box=BoxConstraint(1e3))
        raised = []
        solve = np.linalg.solve

        def recording(M, v):
            try:
                return solve(M, v)
            except np.linalg.LinAlgError:
                raised.append(M.shape)
                raise

        monkeypatch.setattr(wl21.np.linalg, "solve", recording)
        solved, alone = self._both_paths(spec, AlmConfig(tol=1e-8), monkeypatch)
        assert raised
        self._assert_fell_back(solved, alone)
        # the cold start's least squares raised: no step, and only A^T b
        assert solved[2].primal_steps == 0 and solved[2].converged
        assert solved[2].dense_products == alone[2].dense_products + 1


class TestAbcd:
    def test_stops_at_its_fixed_point(self):
        # from the xi it returned, with the same multiplier, a second call
        # takes no Newton step and returns the same blocks
        spec = random_subproblem(11)
        _, state, stats = alm_solve(spec, AlmConfig(tol=1e-6))
        assert stats.converged
        sncg_tol = 1e-11 * (1 + np.linalg.norm(spec.b))
        first = abcd_solve(state, spec, sncg_tol, 50, SolveStats())
        assert first[4]["iters"] == 1 and first[4]["sncg"]["met"]
        state.xi = first[1]
        stats = SolveStats()
        again = abcd_solve(state, spec, sncg_tol, 50, stats)
        assert again[4]["sncg"]["iters"] == 0 == stats.sncg_iters
        # given no A^T xi, SNCG makes it and its gradient's A s; then the call's exact A^T xi
        assert stats.dense_products == 3
        for before, after in zip(first[:4], again[:4]):
            assert np.array_equal(before, after)


class TestRestrict:
    @pytest.mark.parametrize("scattered", [False, True], ids=["contiguous", "scattered"])
    def test_keeps_the_weights_box_and_response(self, scattered, rng):
        spec = random_subproblem(5)
        if scattered:
            # groups scattered over the columns
            g = GroupStructure(spec.p, np.split(rng.permutation(spec.p), spec.g.m))
            spec = SubproblemSpec(A=spec.A, b=spec.b, g=g, omega=spec.omega, box=spec.box)
        mask = np.zeros(spec.g.m, dtype=bool)
        mask[[2, 5, 7]] = True
        cols, sub = spec.restrict(mask)
        assert np.array_equal(cols, spec.g.segments(mask)[0])
        assert np.array_equal(sub.A, spec.A[:, cols]) and sub.A.flags.c_contiguous
        assert np.array_equal(sub.omega, spec.omega[mask])
        assert sub.box == spec.box and np.array_equal(sub.b, spec.b)
        assert sub.g.m == 3 and sub.p == cols.size
        # narrow (12 columns, n = 30): it computes its own Gram when first asked
        assert sub._gram is None and np.array_equal(sub.gram(), sub.A.T @ sub.A)

    def test_state_is_restricted_and_lifted_back(self, rng):
        spec = random_subproblem(5)
        mask = np.zeros(spec.g.m, dtype=bool)
        mask[[0, 9]] = True
        cols, _ = spec.restrict(mask)
        state = DualState(rng.standard_normal(spec.n), rng.standard_normal(spec.p), sigma=3.0)
        small = state.restrict(cols)
        assert np.array_equal(small.x, state.x[cols]) and small.sigma == 3.0
        back = small.lifted(cols, spec.p)
        off = np.ones(spec.p, dtype=bool)
        off[cols] = False
        assert np.array_equal(back.x[cols], state.x[cols]) and not back.x[off].any()
        assert np.array_equal(back.xi, state.xi) and back.sigma == 3.0


class TestSpecValidation:
    @pytest.mark.parametrize("tol", [np.nan, -1e-6, np.inf], ids=["nan", "negative", "inf"])
    def test_alm_config_rejects_a_tol_that_cannot_stop_a_solve(self, tol):
        # a NaN or negative tol ran all _MAX_OUTER outer iterations to
        # max_outer, and an infinite one reported converged after one
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            AlmConfig(tol=tol)
        assert AlmConfig(tol=0.0).tol == 0.0

    def test_dimension_checks(self, rng):
        A = rng.standard_normal((5, 6))
        g = contiguous_groups(6, 2)
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(4), g=g, omega=np.ones(2), box=BoxConstraint(1.0))
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(5), g=g, omega=np.ones(3), box=BoxConstraint(1.0))
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(5), g=g, omega=-np.ones(2), box=BoxConstraint(1.0))

    def test_rejects_a_nan_weight(self):
        # np.any(omega < 0) is False for NaN: this instance was accepted, and
        # its ALM solve reported converged after 7 outer iterations
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 12))
        b = rng.standard_normal(20)
        omega = np.array([0.1, np.nan, 0.1, 0.1])
        with pytest.raises(ValueError, match="omega must be nonnegative"):
            SubproblemSpec(A=A, b=b, g=contiguous_groups(12, 4), omega=omega,
                           box=BoxConstraint(10.0))
