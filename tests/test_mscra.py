from dataclasses import replace

import numpy as np
import pytest

from gsreg.data import make_instance, metrics, default_box
from gsreg import mscra
from gsreg.groups import BoxConstraint, contiguous_groups, group_norms, group_support
from gsreg.mscra import (
    MscraConfig,
    default_nu,
    rho_schedule,
    run,
    solve_stage,
    stopping_check,
    subproblem_tolerance,
    unpenalized_columns,
    weight_update,
)
from gsreg.penalties import PhiSpec, psi_star_eval, weight_from_subgradient

# the per-stage counts pinned below depend on the rounding of the numpy
# build's BLAS and LAPACK, not only on the code, so a failure names the build
_PINNED_ON = f"counts pinned on numpy 2.4.6; this run has numpy {np.__version__}"


class TestDefaultNu:
    def test_formula(self, rng):
        A = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        nu = default_nu(A, b)
        assert nu == pytest.approx(10 / (0.1 * np.max(np.abs(A.T @ b))))

    def test_custom_factor(self, rng):
        A = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        assert default_nu(A, b, factor=0.13) == pytest.approx(
            10 / (0.13 * np.max(np.abs(A.T @ b)))
        )

    def test_zero_response(self):
        assert default_nu(np.ones((4, 3)), np.zeros(4)) == 4.0


class TestRhoSchedule:
    def test_first_stage(self):
        g = contiguous_groups(4, 2)
        x = np.array([3.0, 4.0, 0.0, 0.0])  # max group norm 5
        assert rho_schedule(1, x, None, g) == pytest.approx(2.0 / 5.0)

    def test_doubling_below_cap(self):
        g = contiguous_groups(4, 2)
        x = np.array([3.0, 4.0, 0.0, 0.0])
        assert rho_schedule(2, x, 0.4, g) == pytest.approx(0.8)

    def test_cap_binds(self):
        g = contiguous_groups(4, 2)
        x = np.array([3.0, 4.0, 0.0, 0.0])
        rho_prev = 1e8
        assert rho_schedule(3, x, rho_prev, g) == pytest.approx(1e8 / 5.0)

    def test_degenerate_zero_iterate(self):
        g = contiguous_groups(4, 2)
        with pytest.raises(ValueError, match="degenerate"):
            rho_schedule(1, np.zeros(4), None, g)


class TestWeightUpdate:
    def test_matches_scalar_rule(self, rng):
        g = contiguous_groups(12, 4)
        x = rng.standard_normal(12)
        phi = PhiSpec()
        rho = 0.7
        w = weight_update(x, rho, phi, g)
        norms = group_norms(x, g)
        expected = [weight_from_subgradient(phi, rho * v) for v in norms]
        assert np.allclose(w, expected)

    def test_grid_optimality(self, rng):
        # each weight maximizes  s*t - phi(t)  over [0, 1] at s = rho ||x_Ji||
        from gsreg.penalties import phi_eval

        g = contiguous_groups(8, 4)
        x = rng.standard_normal(8)
        for phi in [PhiSpec("scad"), PhiSpec("mcp", a=3.0), PhiSpec("capped_l1"),
                    PhiSpec("lq")]:
            w = weight_update(x, 1.3, phi, g)
            t_grid = np.linspace(0, 1, 2001)
            vals = np.asarray(phi_eval(phi, t_grid))
            for i, idx in enumerate(g.groups):
                s = 1.3 * np.linalg.norm(x[idx])
                attained = s * w[i] - phi_eval(phi, w[i])
                assert attained >= np.max(s * t_grid - vals) - 1e-6

    def test_conjugate_value_attained(self, rng):
        g = contiguous_groups(6, 3)
        x = rng.standard_normal(6)
        phi = PhiSpec("mcp", a=3.0)
        w = weight_update(x, 2.0, phi, g)
        from gsreg.penalties import phi_eval

        for i, idx in enumerate(g.groups):
            s = 2.0 * np.linalg.norm(x[idx])
            assert s * w[i] - phi_eval(phi, w[i]) == pytest.approx(
                psi_star_eval(phi, s), abs=1e-10
            )

    def test_rejects_nonpositive_rho(self):
        g = contiguous_groups(4, 2)
        with pytest.raises(ValueError):
            weight_update(np.ones(4), 0.0, PhiSpec(), g)


class TestToleranceSchedule:
    def test_initial_and_decay(self):
        cfg = MscraConfig()
        t0 = subproblem_tolerance(None, cfg)
        assert t0 == pytest.approx(1e-3)  # 0.1 * _EPS_LOSS
        t1 = subproblem_tolerance(t0, cfg)
        assert t1 == pytest.approx(8e-4)

    def test_floor(self):
        cfg = MscraConfig()
        assert subproblem_tolerance(1e-5, cfg) == 1e-5
        assert subproblem_tolerance(1.2e-5, cfg) == 1e-5

    @pytest.mark.parametrize("field, value", [
        ("max_stages", 0), ("tol_floor", 0.0), ("tol_floor", -1.0),
        ("tol_decay", 0.0), ("tol_decay", 1.5),
        ("nu_factor", 0.0), ("nu_factor", -0.1), ("nu_factor", float("inf")),
        ("nu_factor", float("nan")),
        ("nu", 0.0), ("nu", -1.0), ("nu", float("inf")), ("nu", float("nan")),
        ("tol_floor", float("inf")),
    ])
    def test_config_ranges(self, field, value):
        with pytest.raises(ValueError, match=field):
            MscraConfig(**{field: value})
        MscraConfig(tol_decay=1.0)


class TestStopping:
    def _trace(self, eq, loss, sparsity):
        from gsreg.mscra import StageTrace
        from gsreg.wl21 import SolveStats

        return StageTrace(1, np.zeros(2), np.zeros(1), 1.0, 1.0, loss, eq, sparsity, SolveStats(),
                          1e-3)

    def test_equilibrium_stop(self):
        assert stopping_check(self._trace(1e-7, 1.0, 3), None) == "equilibrium"

    def test_loss_stop_requires_stable_sparsity(self):
        prev = self._trace(1.0, 1.0, 5)
        assert stopping_check(self._trace(1.0, 1.0, 5), prev) == "loss"
        assert stopping_check(self._trace(1.0, 1.0, 6), prev) == "loss"
        assert stopping_check(self._trace(1.0, 1.0, 8), prev) is None

    def test_no_stop_when_loss_moves(self):
        prev = self._trace(1.0, 2.0, 5)
        assert stopping_check(self._trace(1.0, 1.0, 5), prev) is None


class TestRun:
    def test_zero_response_returns_zero(self):
        g = contiguous_groups(6, 3)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 6))
        res = run(A, np.zeros(8), g, BoxConstraint(1.0))
        assert np.array_equal(res.x, np.zeros(6))
        assert res.stop_reason == "degenerate_zero"

    def test_noiseless_easy_recovery(self):
        inst = make_instance(design="I", signal="iii", n=64, p=128, m=16, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=3)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        mm = metrics(res.x, inst)
        assert res.converged
        assert mm["exact_support"]
        assert mm["relerr"] < 1e-5

    def test_traces_follow_schedules(self):
        inst = make_instance(design="I", signal="i", n=64, p=128, m=16, r_bar=3,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=5)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        tr = res.traces
        assert tr[0].lam == pytest.approx(tr[0].rho / res.nu)
        # stage-1 rho is 2 / max group norm of the stage-1 iterate
        assert tr[0].rho == pytest.approx(2.0 / np.max(group_norms(tr[0].x, inst.g)))
        for prev, curr in zip(tr, tr[1:]):
            cap = 1e8 / np.max(group_norms(curr.x, inst.g))
            assert curr.rho == pytest.approx(min(2 * prev.rho, cap))
            assert np.all(curr.w >= 0) and np.all(curr.w <= 1)

    def test_max_stages_truncation(self):
        inst = make_instance(design="I", signal="ii", n=48, p=96, m=12, r_bar=3,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=7)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true),
                  MscraConfig(max_stages=1))
        assert res.stages == 1

    def test_stage1_equals_plain_l21(self):
        # stage 1 runs at w = 0: the unweighted l2,1 problem at lambda = 1/nu
        from gsreg.wl21 import AlmConfig, SubproblemSpec, alm_solve

        inst = make_instance(design="I", signal="i", n=48, p=96, m=12, r_bar=3,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=8)
        box = default_box(inst.x_true)
        cfg = MscraConfig(max_stages=1)
        res = run(inst.A, inst.b, inst.g, box, cfg)
        n = inst.A.shape[0]
        omega = np.full(inst.g.m, n / res.nu)
        spec = SubproblemSpec(A=inst.A, b=inst.b, g=inst.g, omega=omega, box=box)
        x_ref, _, _ = alm_solve(spec, AlmConfig(tol=1e-8))
        assert np.linalg.norm(res.x - x_ref) <= 1e-3 * max(1.0, np.linalg.norm(x_ref))

    def test_interpolating_stage_is_not_converged(self, monkeypatch):
        # stage 4 of this large-signal run leaves 10 groups of 8 columns at
        # weight 1: 80 unpenalized columns for n = 64, so it fits b exactly,
        # its equilibrium residual is 0, and relerr is 0.92
        import gsreg.groups as groups

        box_roots = groups._box_roots
        root_calls = []

        def counted(*args):
            root_calls.append(1)
            return box_roots(*args)

        monkeypatch.setattr(groups, "_box_roots", counted)
        inst = make_instance(design="I", signal="ii", n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=7001)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert res.stop_reason == "interpolating" and not res.converged
        assert res.stages == 4 and res.inner_failures == 0
        assert unpenalized_columns(res.traces[-2].w, inst.g) == 80
        assert [unpenalized_columns(t.w, inst.g) for t in res.traces[:-2]] == [8, 40]
        assert metrics(res.x, inst)["relerr"] > 0.9
        # the path of every stage: outer iterations, Newton steps, backtracks.
        # Stages 2 and 3 eliminate their 8 and 40 unpenalized columns; stage 4's
        # 80 are at least n, so it is solved as given.  The line-search trials
        # of its high-sigma SNCG calls that overshoot the box are each refused
        # on the line search's floor, so no box roots are solved
        assert [(t.inner_stats.outer_iters, t.inner_stats.sncg_iters,
                 t.inner_stats.sncg_backtracks) for t in res.traces] == [
            (3, 15, 17), (8, 25, 20), (3, 15, 52), (2, 2, 0)], _PINNED_ON
        assert [t.inner_stats.eliminated_columns for t in res.traces] == [0, 8, 40, 0]
        assert not root_calls

    @staticmethod
    def _converged_large_signal_run(scale=None):
        """The I/iii/7000 large-signal run, with ``b`` multiplied entrywise by ``scale``."""
        inst = make_instance(design="I", signal="iii", n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=7000)
        b = inst.b if scale is None else inst.b * scale
        return inst, run(inst.A, b, inst.g, default_box(inst.x_true), MscraConfig())

    @staticmethod
    def _path(res):
        return [(t.inner_stats.outer_iters, t.inner_stats.sncg_iters,
                 t.inner_stats.sncg_backtracks) for t in res.traces]

    def test_converged_large_signal_path(self):
        # the path of every stage of a large-signal run that finds the exact
        # support: outer iterations, Newton steps, backtracks.  Stages 2-4
        # eliminate 16, 40 and 48 columns and run their ALM on the remaining
        # 48, 24 and 16 rows, so stage 3's Newton systems are mostly n x n.
        # The path is stable: a 1-ulp change of b leaves it as it is (see
        # test_converged_large_signal_path_survives_a_1ulp_change_of_b), and so
        # does copying W = [sqrt(c_i) A_{J_i} y_i] of newton_direction into C
        # order before its BLAS products
        inst, res = self._converged_large_signal_run()
        assert res.stop_reason == "equilibrium" and res.converged
        assert metrics(res.x, inst)["exact_support"]
        assert self._path(res) == [(3, 13, 14), (7, 23, 23), (5, 41, 82), (1, 1, 0)], _PINNED_ON
        assert [t.inner_stats.eliminated_columns for t in res.traces] == [0, 16, 40, 48]
        assert [(t.inner_stats.sncg_nn_systems, t.inner_stats.sncg_woodbury_systems)
                for t in res.traces] == [(11, 1), (22, 1), (34, 7), (0, 0)], _PINNED_ON

    @pytest.mark.parametrize("seed", [123, 124, 125])
    def test_converged_large_signal_path_survives_a_1ulp_change_of_b(self, seed):
        # b * (1 +- 2^-52), the signs drawn from the seed: every stage takes the
        # same outer iterations, Newton steps and backtracks, stage 3 too, whose
        # last two Newton solves run at sigma 9.7e5 and 1e6
        inst, res = self._converged_large_signal_run()
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=inst.b.size)
        _, moved = self._converged_large_signal_run(1.0 + signs * 2.0**-52)
        assert self._path(moved) == self._path(res)

    def test_eliminated_solves_return_xi_off_the_range_of_A_F(self, monkeypatch):
        # each eliminated stage lifts its xi from the n - k rows of U^T A_P, so
        # A_F^T xi holds only the rounding of the QR, whatever sigma reached
        solves = []
        alm_solve = mscra.alm_solve

        def recording(spec, cfg=None, warm=None):
            out = alm_solve(spec, cfg, warm)
            solves.append((spec, out[1], out[2]))
            return out

        monkeypatch.setattr(mscra, "alm_solve", recording)
        self._converged_large_signal_run()
        eliminated = [(spec, state) for spec, state, stats in solves
                      if stats.eliminated_columns and not stats.closed_form]
        assert len(eliminated) == 3
        for spec, state in eliminated:
            A_F = spec.A[:, spec.g.segments(spec.omega == 0.0)[0]]
            assert (np.linalg.norm(A_F.T @ state.xi)
                    <= 1e-13 * np.linalg.norm(A_F, 2) * np.linalg.norm(state.xi))

    def test_rejects_nonpositive_nu(self):
        g = contiguous_groups(6, 3)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 6))
        b = rng.standard_normal(8)
        with pytest.raises(ValueError):
            run(A, b, g, BoxConstraint(1.0), MscraConfig(nu=-1.0))

    @pytest.mark.parametrize("nu", [None, 1.0])
    @pytest.mark.parametrize("where", ["nan_in_b", "inf_in_A"])
    def test_rejects_non_finite_data(self, where, nu):
        # one A^T b shows a NaN or inf in either; its warning does not mask the error
        g = contiguous_groups(6, 3)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 6))
        b = rng.standard_normal(8)
        if where == "nan_in_b":
            b[3] = np.nan
        else:
            A[5, 4] = np.inf
        with pytest.raises(ValueError, match="A and b must be finite"):
            run(A, b, g, BoxConstraint(1.0), MscraConfig(nu=nu))
        with pytest.raises(ValueError, match="A and b must be finite"):
            default_nu(A, b)

    @pytest.mark.parametrize("family", ["scad", "mcp", "capped_l1", "lq"])
    def test_all_families_recover_support(self, family):
        inst = make_instance(design="I", signal="iii", n=80, p=128, m=16, r_bar=3,
                             alpha=1.0, theta1=0.05, theta2=0.05, seed=11)
        phi = PhiSpec(family, a=3.0 if family == "mcp" else 3.7)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig(phi=phi))
        mm = metrics(res.x, inst)
        assert mm["exact_support"], f"{family} missed the support"

    def test_inner_failures_make_the_run_unconverged(self, monkeypatch):
        from gsreg import wl21

        inst = make_instance(design="I", signal="i", n=48, p=96, m=12, r_bar=3,
                             alpha=2.0, theta1=0.1, theta2=0.1, seed=9)
        monkeypatch.setattr(wl21, "_MAX_OUTER", 1)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert res.stop_reason != "max_stages"
        assert res.inner_failures == sum(not t.inner_stats.converged for t in res.traces) > 0
        assert not res.converged


class TestSigmaRule:
    def test_large_signal_stages_converge(self):
        # stages 1 and 2 of this instance stopped at max_outer=200 while
        # sigma was held back after the gap stalled
        inst = make_instance(design="II", signal="i", n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=7000)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert res.inner_failures == 0
        assert res.converged
        for tr in res.traces:
            assert tr.inner_stats.converged, f"stage {tr.k}"
            sigma = [h["sigma"] for h in tr.inner_stats.history]
            assert all(b >= a for a, b in zip(sigma, sigma[1:])), f"stage {tr.k}"
        # sigma grows fast while the multiplier stalls: stage 2 took 36 outer
        # iterations under a fixed growth factor of 1.3
        assert res.traces[1].inner_stats.outer_iters < 20


class TestExactSupport:
    def test_large_signal_answer_has_six_nonzero_groups(self):
        # all 64 groups came back nonzero when the answer was the plain
        # negated multiplier: 58 of them rounding residue below 6e-11
        inst = make_instance(design="I", signal="i", n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=7000)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert group_support(res.x, inst.g).size == 6
        assert res.traces[-1].group_sparsity == 6


class TestWarmStart:
    @pytest.mark.parametrize("seed", [7000, 7001])
    def test_stage_two_starts_near_the_stage_one_support(self, seed, monkeypatch):
        # the weights fall by about 2/||G(x^1)||_inf after stage 1.  Stage 2's
        # working set is narrow, so the primal Newton solves it from the
        # stage-1 state, in 4 (seed 7000) and 6 (seed 7001) steps.  The ALM
        # keeps its own bound from the same state: from the unscaled stage-1
        # xi most groups started active, and its first SNCG call took 12
        # (seed 7000) and 16 (seed 7001) Newton steps
        from gsreg import wl21

        inst = make_instance("I", "i", n=128, p=1024, m=128, r_bar=6, alpha=2.0,
                             theta1=0.1, theta2=0.1, seed=seed)
        stages = []  # the arguments of each solve_stage call
        stage = mscra.solve_stage
        monkeypatch.setattr(mscra, "solve_stage", lambda *args: stages.append(args) or stage(*args))
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert res.converged and res.stages >= 2
        s = res.traces[1].inner_stats
        assert (s.sieve_rounds, s.outer_iters, s.sncg_iters) == (1, 0, 0)
        assert (s.primal_steps, s.primal_backtracks) == {7000: (4, 0), 7001: (6, 1)}[seed], _PINNED_ON
        assert s.converged and s.cert_gap <= res.traces[1].tol
        err = np.linalg.norm(res.x - inst.x_true) / np.linalg.norm(inst.x_true)
        relerr = {7000: 0.005026759491266874, 7001: 0.0044457004194008}[seed]
        assert err == pytest.approx(relerr, rel=1e-9)
        monkeypatch.setattr(wl21, "_primal_newton", lambda *args: None)
        _, _, alm, _ = stage(*stages[1])
        assert alm.outer_iters > 0 and alm.primal_steps == 0
        assert alm.history[0]["sncg_iters"] <= 8


def _certified(stats) -> int:
    """The outer iterations of a solve that computed a certified duality gap."""
    return sum(h["cert_gap"] is not None for h in stats.history)


def _alm_products(stats, warm: bool) -> int:
    """The products with ``A`` of an ALM solve, as :func:`gsreg.wl21.alm_solve` counts them.

    One ``A^T xi`` for its first SNCG call and, from a warm start, the
    warm ``xi``'s ball scaling; per outer iteration the gradient's ``A s``
    at its SNCG start, the exact ``A^T xi`` and the residual's ``A x``; per
    certified duality gap ``A^T r``; per Newton step ``A^T d`` and the
    gradient's ``A s`` at the accepted point; and one ``A^T v`` and one
    ``A u`` per r x r Newton system built from a Gram.
    """
    return (2 * stats.sncg_iters + 3 * stats.outer_iters + 2 * stats.sncg_woodbury_systems
            + _certified(stats) + (stats.outer_iters > 0) * (1 + warm))


class TestProductCounts:
    @pytest.mark.parametrize("seed", [7000, 7001])
    def test_products_with_a_on_a_wide_instance(self, seed, monkeypatch):
        # every stage sieves: its only product with all of A is the A^T r of
        # each round's KKT check.  The rest are with A_W, or with the A' that
        # alm_solve makes from it by eliminating the unpenalized columns: per
        # round r = A_W x_W - b and, unless every group of W is unpenalized
        # and the round is a least squares in closed form with no product,
        # the products of its solve.  A_W has fewer than p/8 = n columns, so
        # each such round first tries the primal Newton, at A^T b, A x - b
        # and A^T r (see _alm_products for the ALM's); only a spec with
        # p <= n ever keeps a Gram
        from gsreg.wl21 import AlmConfig, SubproblemSpec

        inst = make_instance("I", "i", n=128, p=1024, m=128, r_bar=6, alpha=2.0,
                             theta1=0.1, theta2=0.1, seed=seed)
        box = default_box(inst.x_true)
        grams = []  # (p <= n, a Gram came back) for each call
        rounds = []  # (the products of each round's solve, its stats, warm or not)
        gram, alm = SubproblemSpec.gram, mscra.alm_solve

        def recording(self):
            G = gram(self)
            grams.append((self.p <= self.n, G is not None))
            return G

        def solving(spec, cfg, warm=None):
            out = alm(spec, cfg, warm=warm)
            rounds.append((out[2].dense_products, out[2], warm is not None))
            return out

        monkeypatch.setattr(SubproblemSpec, "gram", recording)
        monkeypatch.setattr(mscra, "alm_solve", solving)
        res = run(inst.A, inst.b, inst.g, box, MscraConfig())
        monkeypatch.undo()
        assert res.converged and res.stages >= 2
        assert (True, True) in grams and all(narrow == built for narrow, built in grams)
        # stage 2 eliminates its unpenalized columns; the last stage's working
        # set is unpenalized, and its one round is solved in closed form
        assert res.traces[1].inner_stats.eliminated_columns > 0
        assert res.traces[-1].inner_stats.closed_form
        assert len(rounds) == sum(t.inner_stats.sieve_rounds for t in res.traces)
        for products, s, warm in rounds:
            # every round not in closed form is certified on the primal path
            assert s.closed_form or (s.outer_iters == 0 and s.primal_steps > 0)
            assert products == _alm_products(s, warm) + 3 * (not s.closed_form)
        for t in res.traces:
            s = t.inner_stats
            assert s.sieve_rounds >= 1 and s.dense_products == s.sieve_rounds
            # a closed-form stage here has one round, the one so solved
            assert not s.closed_form or s.sieve_rounds == 1
            own = rounds[:s.sieve_rounds]
            del rounds[:s.sieve_rounds]
            assert s.working_set_products == sum(products for products, _, _ in own) + s.sieve_rounds
        # stage 1's problem on all groups: the same products, each with all of
        # A, plus r = Ax - b; the design is wide, so no Newton system uses a
        # Gram and the primal Newton is not tried
        n = inst.A.shape[0]
        spec = SubproblemSpec(A=inst.A, b=inst.b, g=inst.g, omega=np.full(inst.g.m, n / res.nu),
                              box=box)
        tol = subproblem_tolerance(None, MscraConfig())
        _, _, s, _ = solve_stage(spec, AlmConfig(tol=tol), None, np.ones(inst.g.m, dtype=bool))
        assert s.sieve_rounds == 0 and s.working_set_groups == inst.g.m
        assert s.working_set_products == 0 and s.primal_steps == 0
        assert _certified(s) > 0
        assert s.dense_products == 2 * s.sncg_iters + 3 * s.outer_iters + _certified(s) + 2


class TestPrimalNewton:
    @pytest.mark.parametrize("seed", [7000, 7001])
    def test_narrow_rounds_agree_with_the_alm_within_their_gaps(self, seed, monkeypatch):
        # every sieve round of this run is narrow (p_W <= n); each one not in
        # closed form is solved again from the same warm state by the ALM
        # alone.  Both points are certified within the stage's tol, and with
        # P(x) - P* >= ||A (x - x*)||^2 / 2n their fits are each within
        # sqrt(2n gap P) of the optimal one
        from gsreg import wl21
        from gsreg.wl21 import primal_objective

        inst = make_instance("I", "i", n=128, p=1024, m=128, r_bar=6, alpha=2.0,
                             theta1=0.1, theta2=0.1, seed=seed)
        calls = []
        alm = mscra.alm_solve
        monkeypatch.setattr(mscra, "alm_solve",
                            lambda spec, cfg, warm=None: calls.append((spec, cfg, warm))
                            or alm(spec, cfg, warm=warm))
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        monkeypatch.undo()
        assert res.converged
        narrow = [(spec, cfg, warm) for spec, cfg, warm in calls
                  if spec.p <= spec.n and np.logical_or.reduce(spec.omega > 0)]
        assert len(narrow) >= res.stages - 1
        for spec, cfg, warm in narrow:
            x, _, stats = alm(spec, cfg, warm)
            with monkeypatch.context() as patch:
                patch.setattr(wl21, "_primal_newton", lambda *args: None)
                x_alm, _, stats_alm = alm(spec, cfg, warm)
            assert stats.outer_iters == 0 and stats.primal_steps > 0
            assert stats_alm.outer_iters > 0 and stats_alm.primal_steps == 0
            reach = 0.0
            for z, st in ((x, stats), (x_alm, stats_alm)):
                assert st.converged and st.cert_gap <= cfg.tol
                reach += np.sqrt(2 * spec.n * max(st.cert_gap, 0.0) * primal_objective(z, spec))
            fit = np.linalg.norm(spec.A @ x)
            assert np.linalg.norm(spec.A @ (x - x_alm)) <= reach + 1e-12 * fit


class TestSieve:
    @staticmethod
    def _instance():
        return make_instance("I", "i", n=128, p=1024, m=128, r_bar=6, alpha=2.0,
                             theta1=0.1, theta2=0.1, seed=7000)

    @staticmethod
    def _assert_matches_all_groups(sieved, inst, box, monkeypatch):
        # no working set is below p / p columns: every stage runs on all groups
        monkeypatch.setattr(mscra, "_SPARSE_RATIO", inst.g.p)
        full = run(inst.A, inst.b, inst.g, box, MscraConfig())
        assert all(t.inner_stats.sieve_rounds == 0 for t in full.traces)
        assert all(t.inner_stats.working_set_groups == inst.g.m for t in full.traces)
        assert full.stages == sieved.stages and full.stop_reason == sieved.stop_reason
        for a, b in zip(sieved.traces, full.traces):
            assert np.array_equal(group_support(a.x, inst.g), group_support(b.x, inst.g))
        assert np.linalg.norm(sieved.x - full.x) <= 1e-9 * np.linalg.norm(full.x)

    def test_sieved_run_matches_the_run_on_all_groups(self, monkeypatch):
        inst = self._instance()
        box = default_box(inst.x_true)
        sieved = run(inst.A, inst.b, inst.g, box, MscraConfig())
        assert sieved.stages >= 2
        for t in sieved.traces:
            s = t.inner_stats
            assert s.sieve_rounds >= 1 and s.working_set_groups < inst.g.m
            assert len(s.history) == s.outer_iters
            assert t.to_dict()["inner"]["sieve_rounds"] == s.sieve_rounds
        self._assert_matches_all_groups(sieved, inst, box, monkeypatch)

    def test_a_seed_missing_true_groups_reaches_the_all_groups_support(self, monkeypatch):
        # a stage-1 seed of 2 groups holds at most 2 of the 6 true ones
        inst = self._instance()
        box = default_box(inst.x_true)
        monkeypatch.setattr(mscra, "_SPARSE_RATIO", 2)
        seed = mscra._stage1_seed(inst.A.T @ inst.b, inst.g)
        assert np.count_nonzero(seed) == 2
        assert not seed[group_support(inst.x_true, inst.g)].all()
        sieved = run(inst.A, inst.b, inst.g, box, MscraConfig())
        s = sieved.traces[0].inner_stats
        assert s.sieve_rounds >= 2 and s.working_set_groups < inst.g.m
        self._assert_matches_all_groups(sieved, inst, box, monkeypatch)

    def test_rounds_sum_every_field_but_the_declared_ones(self):
        # a counter added to SolveStats is summed over the rounds without an edit to mscra
        from dataclasses import fields

        from gsreg.wl21 import SolveStats

        rounds = [SolveStats(converged=k == 1, stop_cause=f"round {k}", eps_gap=k,
                             sncg_max_r=9 - k, history=[{"round": k}]) for k in range(2)]
        summed = [f.name for f in fields(SolveStats) if f.name not in mscra._NOT_SUMMED]
        assert {"outer_iters", "wall_time", "dense_products", "sncg_unmet"} <= set(summed)
        for k, stats in enumerate(rounds):
            for name in summed:
                setattr(stats, name, k + 1)
        merged = mscra._merged(rounds, 2, 7)
        assert all(getattr(merged, name) == 3 for name in summed)
        assert (merged.converged, merged.stop_cause, merged.eps_gap) == (True, "round 1", 1)
        assert (merged.sncg_max_r, merged.sieve_rounds, merged.working_set_groups) == (9, 2, 7)
        assert merged.history == [{"round": 0}, {"round": 1}]

    def test_a_stage_of_one_solve_has_the_stats_merged_gives(self, monkeypatch):
        # solve_stage merges the stats of every stage; merged, the stats of a
        # stage of one solve are that solve's with the sieve's two fields set
        from gsreg.wl21 import AlmConfig, SubproblemSpec

        inst = self._instance()
        m, n = inst.g.m, inst.A.shape[0]
        omega = np.full(m, n / default_nu(inst.A, inst.b))
        spec = SubproblemSpec(A=inst.A, b=inst.b, g=inst.g, omega=omega,
                              box=default_box(inst.x_true))
        solves, masks = [], []
        alm_solve, restrict = mscra.alm_solve, SubproblemSpec.restrict

        def recording(*args, **kwargs):
            out = alm_solve(*args, **kwargs)
            solves.append(out[2])
            return out

        monkeypatch.setattr(mscra, "alm_solve", recording)
        monkeypatch.setattr(SubproblemSpec, "restrict",
                            lambda self, mask: masks.append(mask.copy()) or restrict(self, mask))
        cfg = AlmConfig(tol=1e-6)
        start = np.zeros(m, dtype=bool)
        start[group_support(inst.x_true, inst.g)] = True
        _, _, grown, _ = solve_stage(spec, cfg, None, start)
        assert grown.sieve_rounds == len(solves) == 2
        assert grown.outer_iters == sum(s.outer_iters for s in solves)
        W = masks[-1]
        for start, rounds, groups in ((W, 1, np.count_nonzero(W)), (np.ones(m, dtype=bool), 0, m)):
            solves.clear()
            _, _, stats, _ = solve_stage(spec, cfg, None, start)
            assert len(solves) == 1
            assert (stats.sieve_rounds, stats.working_set_groups) == (rounds, groups)
            assert stats == replace(solves[0], sieve_rounds=rounds, working_set_groups=groups)

    def test_a_working_set_missing_a_true_group_grows(self, monkeypatch):
        # stage 1's problem, started from the true support less one group
        from gsreg.wl21 import AlmConfig, SubproblemSpec, alm_solve

        inst = self._instance()
        n = inst.A.shape[0]
        omega = np.full(inst.g.m, n / default_nu(inst.A, inst.b))
        spec = SubproblemSpec(A=inst.A, b=inst.b, g=inst.g, omega=omega,
                              box=default_box(inst.x_true))
        true = group_support(inst.x_true, inst.g)
        start = np.zeros(inst.g.m, dtype=bool)
        start[true[1:]] = True
        masks = []
        restrict = SubproblemSpec.restrict
        monkeypatch.setattr(SubproblemSpec, "restrict",
                            lambda self, mask: masks.append(mask.copy()) or restrict(self, mask))
        cfg = AlmConfig(tol=1e-6)
        x, _, stats, r = solve_stage(spec, cfg, None, start)
        W = masks[-1]
        assert not x[~inst.g.broadcast(W)].any()
        assert stats.converged and stats.sieve_rounds == len(masks) >= 2
        # a round adds at most as many groups as its working set holds
        sizes = [np.count_nonzero(mask) for mask in masks]
        assert all(b <= 2 * a for a, b in zip(sizes, sizes[1:]))
        assert all(b[a].all() for a, b in zip(masks, masks[1:]))
        assert W[true[0]] and stats.working_set_groups == np.count_nonzero(W)
        assert np.allclose(r, inst.A @ x - inst.b, rtol=0, atol=1e-9 * np.linalg.norm(inst.b))
        assert np.max(group_norms(inst.A.T @ r, inst.g)[~W] / omega[~W]) <= 1
        x_full, _, _ = alm_solve(spec, cfg)
        assert np.array_equal(group_support(x, inst.g), group_support(x_full, inst.g))
        assert np.linalg.norm(x - x_full) <= 1e-4 * np.linalg.norm(x_full)


class TestSncgTolerance:
    @pytest.mark.parametrize("design, signal, seed", [
        ("I", "i", 7001), ("I", "ii", 7001), ("II", "ii", 7000),
    ])
    def test_large_signal_stages_do_not_cycle(self, design, signal, seed):
        # with ||b|| near 5e6, an SNCG target of 1e-3 * tol * ||b|| left xi
        # loose enough that eps_gap cycled at sigma_max and one stage of each
        # of these instances stopped at max_outer=200
        inst = make_instance(design=design, signal=signal, n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=seed)
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), MscraConfig())
        assert res.inner_failures == 0
        assert max(t.inner_stats.outer_iters for t in res.traces) < 100


class TestCertifiedStages:
    # the large-signal cells of TestExactSupport, TestSigmaRule, TestSncgTolerance
    # and the interpolating run of TestRun
    @pytest.mark.parametrize("design, signal, seed", [
        ("I", "i", 7000), ("II", "i", 7000), ("I", "i", 7001), ("I", "ii", 7001),
        ("II", "ii", 7000),
    ])
    def test_every_converged_stage_is_certified(self, design, signal, seed):
        # every stage solves a problem whose weights are all positive, after
        # alm_solve eliminates the unpenalized columns, and each that
        # converged carries a certified gap within its tolerance; only an
        # interpolating stage, with at least n unpenalized columns, has none
        inst = make_instance(design=design, signal=signal, n=64, p=512, m=64, r_bar=6,
                             alpha=1e5, theta1=0.1, theta2=0.1, seed=seed)
        cfg = MscraConfig()
        res = run(inst.A, inst.b, inst.g, default_box(inst.x_true), cfg)
        tol, w = None, np.zeros(inst.g.m)
        for t in res.traces:
            tol = subproblem_tolerance(tol, cfg)
            s = t.inner_stats
            assert s.converged, f"stage {t.k}"
            if unpenalized_columns(w, inst.g) >= inst.A.shape[0]:
                assert res.stop_reason == "interpolating" and t is res.traces[-1]
                assert s.eliminated_columns == 0 and s.cert_gap is None
            else:
                assert s.eliminated_columns == unpenalized_columns(w, inst.g), f"stage {t.k}"
                assert s.cert_gap is not None and s.cert_gap <= tol, f"stage {t.k}"
            w = t.w
        assert any(t.inner_stats.eliminated_columns for t in res.traces)
