import numpy as np
import pytest

from gsreg.penalties import (
    CAPPED_L1,
    LQ,
    MCP,
    SCAD,
    PhiSpec,
    phi_constants,
    phi_eval,
    psi_star_eval,
    theta_eval,
    weight_from_subgradient,
)

ALL_SPECS = [
    PhiSpec(SCAD, a=3.7),
    PhiSpec(MCP, a=3.0),
    PhiSpec(CAPPED_L1),
    PhiSpec(LQ, q=0.5, eps=1e-2),
]

IDS = [s.family for s in ALL_SPECS]


def grid_conjugate(spec, s, step=1e-5):
    """Brute-force conjugate of phi restricted to [0, 1] on a fine t-grid."""
    t = np.arange(0.0, 1.0 + step, step)
    t = np.minimum(t, 1.0)
    vals = np.asarray(phi_eval(spec, t))
    return np.max(np.outer(np.atleast_1d(s), t) - vals, axis=1)


class TestPhiSpec:
    def test_defaults(self):
        spec = PhiSpec()
        assert spec.family == SCAD
        assert spec.a == 3.7

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            PhiSpec("elastic_net")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PhiSpec(SCAD, a=1.0)
        with pytest.raises(ValueError):
            PhiSpec(MCP, a=0.0)
        with pytest.raises(ValueError):
            PhiSpec(LQ, q=1.0)
        with pytest.raises(ValueError):
            PhiSpec(LQ, eps=0.5)

    @pytest.mark.parametrize("family", [SCAD, MCP])
    def test_rejects_infinite_a(self, family):
        # an infinite a made every stage weight NaN
        with pytest.raises(ValueError, match=f"{family} requires a finite a"):
            PhiSpec(family, a=float("inf"))


class TestPhiEval:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_normalized_at_one(self, spec):
        assert phi_eval(spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_minimum_zero_at_t_star(self, spec):
        c = phi_constants(spec)
        assert phi_eval(spec, c.t_star) == pytest.approx(0.0, abs=1e-12)
        t = np.linspace(0, 1, 1001)
        assert np.min(phi_eval(spec, t)) >= -1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_convex_on_unit_interval(self, spec):
        t = np.linspace(0, 1, 501)
        v = np.asarray(phi_eval(spec, t))
        mid = 0.5 * (v[:-2] + v[2:])
        assert np.all(v[1:-1] <= mid + 1e-10)

    def test_lq_domain_error(self):
        spec = PhiSpec(LQ, eps=1e-2)
        with pytest.raises(ValueError, match="dom"):
            phi_eval(spec, 1.5)

    def test_rejects_nan_and_negative(self):
        # np.any(t > 1 + eps) is False for NaN, which came back as a NaN value,
        # and varphi extends below 0, where phi(-1) read 0.149 for SCAD
        for spec in (PhiSpec(), PhiSpec(LQ)):
            for t in (-1.0, -1e-300, np.nan, [0.5, np.nan], [0.5, -0.5]):
                with pytest.raises(ValueError, match="t must be nonnegative"):
                    phi_eval(spec, t)


class TestPhiConstants:
    def test_scad_values(self):
        c = phi_constants(PhiSpec(SCAD, a=3.7))
        assert c.t_star == 0.0

    def test_mcp_values(self):
        c = phi_constants(PhiSpec(MCP, a=3.0))
        assert c.t_star == pytest.approx(1.0 / 3.0)

    def test_capped_l1_values(self):
        c = phi_constants(PhiSpec(CAPPED_L1))
        assert c.t_star == 0.0


class TestConjugate:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_matches_grid_oracle(self, spec, rng):
        s = rng.uniform(-20, 20, 200)
        expected = grid_conjugate(spec, s)
        got = np.asarray(psi_star_eval(spec, s))
        assert np.max(np.abs(got - expected)) < 1e-4

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_fenchel_young_inequality(self, spec, rng):
        s = rng.uniform(-10, 10, 100)
        t = rng.uniform(0, 1, 100)
        lhs = s * t
        rhs = np.asarray(phi_eval(spec, t)) + np.asarray(psi_star_eval(spec, s))
        assert np.all(lhs <= rhs + 1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_convex_and_nondecreasing_region(self, spec):
        s = np.linspace(-5, 20, 2001)
        v = np.asarray(psi_star_eval(spec, s))
        mid = 0.5 * (v[:-2] + v[2:])
        assert np.all(v[1:-1] <= mid + 1e-10)  # convexity
        assert np.all(np.diff(v) >= -1e-12)  # nondecreasing (argmax t >= 0)

    def test_rejects_nan(self):
        # the conjugate is defined at every real s, so only NaN is refused
        for s in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="s must not be NaN"):
                psi_star_eval(PhiSpec(), s)
        assert psi_star_eval(PhiSpec(), -1.0) == 0.0

    def test_capped_l1_closed_form(self):
        spec = PhiSpec(CAPPED_L1)
        assert psi_star_eval(spec, 0.5) == 0.0
        assert psi_star_eval(spec, 1.0) == 0.0
        assert psi_star_eval(spec, 3.0) == pytest.approx(2.0)

    def test_scad_closed_form_positive_branches(self):
        # varphi(1) = (a+1)/2; branch edges at 1/varphi(1) and a/varphi(1)
        a = 3.7
        spec = PhiSpec(SCAD, a=a)
        v1 = (a + 1) / 2
        assert psi_star_eval(spec, 0.5 / v1) == pytest.approx(0.0, abs=1e-15)
        s = 2.0 / v1
        assert psi_star_eval(spec, s) == pytest.approx((v1 * s - 1) ** 2 / (2 * (a - 1) * v1))
        s = 2 * a / v1
        assert psi_star_eval(spec, s) == pytest.approx(s - (a + 1) / (2 * v1))


class TestWeights:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_range_and_monotone(self, spec):
        s = np.linspace(0, 50, 501)
        w = np.asarray(weight_from_subgradient(spec, s))
        assert np.all(w >= 0) and np.all(w <= 1)
        assert np.all(np.diff(w) >= -1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_zero_at_origin_one_at_infinity(self, spec):
        c = phi_constants(spec)
        assert weight_from_subgradient(spec, 0.0) == pytest.approx(c.t_star, abs=1e-12)
        assert weight_from_subgradient(spec, 1e6) == 1.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_is_a_subgradient_of_the_conjugate(self, spec, rng):
        # psi*(s') >= psi*(s) + w (s' - s) for the selected w
        s = rng.uniform(0, 10, 50)
        w = np.asarray(weight_from_subgradient(spec, s))
        for sp in rng.uniform(-5, 15, 20):
            lhs = np.asarray(psi_star_eval(spec, sp))
            rhs = np.asarray(psi_star_eval(spec, s)) + w * (sp - s)
            assert np.all(lhs >= rhs - 1e-9)

    def test_rejects_negative(self):
        # np.any(s < 0) is False for NaN, which came back as a NaN weight
        for s in (-1.0, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="s must be nonnegative"):
                weight_from_subgradient(PhiSpec(), s)

    def test_scad_matches_piecewise_rule(self):
        # w = 0 below the first kink, affine ramp, then 1
        a = 3.7
        spec = PhiSpec(SCAD, a=a)
        v1 = (a + 1) / 2
        assert weight_from_subgradient(spec, 0.5 / v1) == 0.0
        s = 2.0 / v1
        assert weight_from_subgradient(spec, s) == pytest.approx((v1 * s - 1) / (a - 1))
        assert weight_from_subgradient(spec, (a + 1) / v1) == 1.0


class TestTheta:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_concave_nondecreasing(self, spec):
        s = np.linspace(0, 30, 3001)
        v = np.asarray(theta_eval(spec, s))
        mid = 0.5 * (v[:-2] + v[2:])
        assert np.all(v[1:-1] >= mid - 1e-10)
        assert np.all(np.diff(v) >= -1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
    def test_linear_near_zero(self, spec):
        # theta(s) = s while the conjugate is flat at its minimum value
        c = phi_constants(spec)
        s = 1e-9
        assert theta_eval(spec, s) == pytest.approx(s * (1 - c.t_star), rel=1e-6)

    def test_rejects_negative(self):
        for s in (-0.1, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="s must be nonnegative"):
                theta_eval(PhiSpec(), s)
