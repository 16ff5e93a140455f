import numpy as np
import pytest

from conftest import clarke_block, dense_hessian, random_subproblem
from gsreg.groups import (BoxConstraint, GroupStructure, contiguous_groups, group_norms,
                          group_support, prox_group_box)
from gsreg.wl21 import (
    AlmConfig,
    DualState,
    SolveStats,
    SubproblemSpec,
    _psi,
    abcd_solve,
    alm_solve,
    dual_objective,
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
        blocks = DualState(eta, xi, zeta, state.x, state.sigma)
        L = lagrangian_value(blocks, spec)
        assert L + state.x @ state.x / (2 * state.sigma) == pytest.approx(f, rel=1e-12)
        assert np.all(group_norms(zeta, spec.g) <= spec.omega * (1 + 1e-12))
        for _ in range(200):
            blocks.eta = eta + 1e-3 * rng.standard_normal(spec.p)
            blocks.zeta = project_group_balls(zeta + 1e-3 * rng.standard_normal(spec.p),
                                              spec.g, spec.omega)
            assert lagrangian_value(blocks, spec) >= L - 1e-10 * abs(L)

    def test_eta_update_minimizes_lagrangian_block(self, rng):
        spec = random_subproblem(6)
        state = DualState.cold(spec, 1.0)
        state.xi = rng.standard_normal(spec.n)
        state.zeta = 0.1 * rng.standard_normal(spec.p)
        state.x = rng.standard_normal(spec.p)
        eta = eta_update(state, spec)

        def block_obj(e):
            r = spec.A.T @ state.xi + e - state.zeta
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
        import gsreg.wl21 as wl21

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
        import gsreg.wl21 as wl21

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

    def test_multiplier_update_identity(self):
        # from a cold start at sigma_0 = 1, one outer step gives
        # x^1 = sigma_0 (A^T xi + eta - zeta)
        spec = random_subproblem(10)
        _, state, stats = alm_solve(spec, AlmConfig(max_outer=1, tol=0.0))
        assert stats.history[0]["sigma"] == 1.0
        resid = spec.A.T @ state.xi + state.eta - state.zeta
        assert np.array_equal(state.x, resid)

    def test_feasibility_and_gap_reported(self):
        spec = random_subproblem(11)
        _, state, stats = alm_solve(spec, AlmConfig(tol=1e-6))
        assert stats.converged
        assert max(stats.eps_pinf, stats.eps_dinf, stats.eps_gap) <= 1e-6
        assert len(stats.history) == stats.outer_iters

    def test_strong_duality_at_solution(self):
        spec = random_subproblem(12)
        x, state, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        assert primal_objective(x, spec) + dual_objective(state, spec) == pytest.approx(
            0.0, abs=1e-6
        )

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
        import gsreg.wl21 as wl21

        calls, systems = [], []
        sncg, newton = wl21.sncg_solve, wl21.newton_direction

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0):
            # a zero gradient tolerance lies below every rounding floor, so with
            # both forms of criterion (B) off each call stalls
            xi, s = sncg(state, spec, 0.0, max_iter, stats, xi0=xi0, At_xi0=At_xi0, tol=tol)
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
                                 "met", "early", "decrement", "gnorm"}
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
        import gsreg.wl21 as wl21

        calls = []
        sncg = wl21.sncg_solve

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, floor=False):
            xi, s = sncg(state, spec, 0.0 if floor else grad_tol, max_iter, stats, xi0=xi0,
                         At_xi0=At_xi0, delta=0.0 if floor else delta, tol=tol)
            gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
            calls.append((s, gnorm, grad_tol, _multiplier_bound(xi, state, spec, delta)))
            return xi, s

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        spec = random_subproblem(16, omega_scale=0.5)
        _, _, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.sncg_stalls == stats.sncg_unmet == 0
        # each call ends at its target or at either form of criterion (B),
        # none at max_iter
        max_iter = AlmConfig().sncg_max_iter
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

    def test_sigma_grows_until_converged(self):
        # sigma grows by 5 after an iteration whose eps_dinf kept more than
        # half of its previous value, and by 1.3 otherwise
        spec = random_subproblem(17)
        cfg = AlmConfig(tol=1e-9, sigma_max=50.0)
        _, _, stats = alm_solve(spec, cfg)
        hist = stats.history
        assert stats.converged and hist[0]["sigma"] == 1.0
        assert not hist[0]["stalled"]
        for prev, curr in zip(hist, hist[1:]):
            assert curr["stalled"] == (curr["eps_dinf"] > 0.5 * prev["eps_dinf"])
            growth = 5.0 if prev["stalled"] else 1.3
            assert curr["sigma"] == pytest.approx(min(growth * prev["sigma"], cfg.sigma_max),
                                                  rel=1e-12)
        stalled = [h["stalled"] for h in hist[:-1]]
        assert any(stalled) and not all(stalled)
        assert hist[-1]["sigma"] == cfg.sigma_max

    def test_unmet_sncg_calls_are_counted(self, monkeypatch):
        import gsreg.wl21 as wl21

        calls = []
        sncg = wl21.sncg_solve

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0):
            xi, s = sncg(state, spec, grad_tol, max_iter, stats, xi0=xi0, At_xi0=At_xi0,
                         delta=delta, tol=tol)
            gnorm = np.linalg.norm(phi_kj_grad(xi, np.zeros(spec.p), state, spec))
            calls.append((s, gnorm, grad_tol))
            return xi, s

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        spec = random_subproblem(16)
        _, _, stats = alm_solve(spec, AlmConfig(sncg_max_iter=1))
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

    def test_warm_start_converges_faster(self):
        spec = random_subproblem(14, n=50, p=80, m=16)
        x1, state, stats_cold = alm_solve(spec, AlmConfig(tol=1e-6))
        _, _, stats_warm = alm_solve(spec, AlmConfig(tol=1e-6), warm=state)
        assert stats_warm.converged
        assert stats_warm.outer_iters <= stats_cold.outer_iters

    def test_warm_xi_is_scaled_into_the_new_balls(self, monkeypatch):
        import gsreg.wl21 as wl21

        spec = random_subproblem(14, n=50, p=80, m=16)
        _, warm, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        # smaller weights, as in the next stage of the multi-stage loop, and
        # one unpenalized group: the warm xi lies outside the new balls
        omega = 0.1 * spec.omega
        omega[0] = 0.0
        small = SubproblemSpec(A=spec.A, b=spec.b, g=spec.g, omega=omega, box=spec.box)
        pen = omega > 0
        assert np.any((group_norms(spec.A.T @ warm.xi, spec.g) > omega)[pen])
        xi_warm = warm.xi.copy()
        starts = []
        sncg = wl21.sncg_solve

        def recording(state, spec, grad_tol, max_iter, stats, xi0=None, At_xi0=None, delta=0.0,
                      tol=0.0, unscaled=False):
            if unscaled and not starts:
                xi0 = xi_warm  # the first call starts where the warm solve ended
            starts.append(xi0)
            return sncg(state, spec, grad_tol, max_iter, stats, xi0=xi0, At_xi0=At_xi0,
                        delta=delta, tol=tol)

        monkeypatch.setattr(wl21, "sncg_solve", recording)
        x, _, stats = alm_solve(small, AlmConfig(tol=1e-8), warm=warm)
        assert stats.converged and np.array_equal(warm.xi, xi_warm)
        first = group_norms(small.A.T @ starts[0], small.g)
        assert np.all(first[pen] <= omega[pen] * (1 + 1e-12))
        assert np.any(np.isclose(first[pen], omega[pen], rtol=1e-12, atol=0))

        # the subproblem is strongly convex in xi: the unscaled start ends at the same x
        starts.clear()
        monkeypatch.setattr(wl21, "sncg_solve", lambda *a, **k: recording(*a, **k, unscaled=True))
        x_unscaled, _, stats = alm_solve(small, AlmConfig(tol=1e-8), warm=warm)
        assert stats.converged and np.array_equal(starts[0], xi_warm)
        assert np.linalg.norm(x - x_unscaled) <= 1e-8 * np.linalg.norm(x_unscaled)

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
        x, state, stats = alm_solve(spec, AlmConfig(tol=1e-8))
        assert stats.converged and stats.outer_iters <= 10
        assert np.max(np.abs(x)) <= 1.0 + 1e-8
        assert np.any(state.eta)  # the box binds
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
        cols, sub = spec.restrict(mask)
        state = DualState(*(rng.standard_normal(k) for k in (spec.p, spec.n, spec.p, spec.p)),
                          sigma=3.0)
        small = state.restrict(cols)
        assert small.x.shape == (sub.p,) and small.sigma == 3.0
        back = small.lifted(cols, spec.p)
        off = np.ones(spec.p, dtype=bool)
        off[cols] = False
        for before, after in ((state.eta, back.eta), (state.zeta, back.zeta), (state.x, back.x)):
            assert np.array_equal(after[cols], before[cols]) and not after[off].any()
        assert np.array_equal(back.xi, state.xi) and back.sigma == 3.0


class TestSpecValidation:
    def test_dimension_checks(self, rng):
        A = rng.standard_normal((5, 6))
        g = contiguous_groups(6, 2)
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(4), g=g, omega=np.ones(2), box=BoxConstraint(1.0))
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(5), g=g, omega=np.ones(3), box=BoxConstraint(1.0))
        with pytest.raises(ValueError):
            SubproblemSpec(A=A, b=np.zeros(5), g=g, omega=-np.ones(2), box=BoxConstraint(1.0))

    @pytest.mark.parametrize("cls, field, value", [
        (AlmConfig, "max_outer", 0), (AlmConfig, "sncg_max_iter", 0),
        # sigma starts at 1; sigma_max 0 divided by zero, and -1 never stopped
        (AlmConfig, "sigma_max", 0.0), (AlmConfig, "sigma_max", -1.0),
        (AlmConfig, "sigma_max", 0.5), (AlmConfig, "sigma_max", float("inf")),
        (AlmConfig, "sigma_max", float("nan")),
    ])
    def test_config_ranges(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})
        AlmConfig(sigma_max=1.0)
