import gc
import hashlib
import mmap
import weakref

import numpy as np
import pytest

from gsreg.data import (
    SingularDesignError,
    _box_restricted_ls,
    brute_force_zero_norm,
    default_box,
    gen_design,
    gen_observations,
    gen_signal,
    gsparse_objective,
    make_instance,
    make_rng,
    metrics,
    oracle_ls,
)
from gsreg.groups import BoxConstraint, GroupStructure, contiguous_groups, group_norms


class TestGenDesign:
    def test_gaussian_shape_and_determinism(self):
        A = gen_design("I", 20, 30, seed=1)
        assert A.shape == (20, 30)
        assert np.array_equal(A, gen_design("I", 20, 30, seed=1))
        assert not np.array_equal(A, gen_design("I", 20, 30, seed=2))

    def test_sign_design_entries(self):
        A = gen_design("II", 50, 40, seed=3)
        assert set(np.unique(A)) <= {-1.0, 1.0}

    def test_hadamard_rows_orthogonal(self):
        A = gen_design("III", 16, 32, seed=4)
        # rows of a Hadamard matrix are mutually orthogonal with norm sqrt(p)
        G = A @ A.T
        assert np.allclose(G, 32 * np.eye(16))

    def test_hadamard_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            gen_design("III", 8, 12, seed=0)

    def test_hadamard_requires_n_le_p(self):
        with pytest.raises(ValueError, match="n <= p"):
            gen_design("III", 64, 32, seed=0)

    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    def test_a_mapped_design_equals_the_heap_draw(self, kind):
        # 512 x 1024 doubles are exactly 4 MiB, the smallest design drawn into a mapping
        n, p = 512, 1024
        rng = make_rng(5)
        if kind == "I":
            expected = rng.standard_normal((n, p))
        elif kind == "II":
            expected = np.sign(rng.random((n, p)) - 0.5)
            expected[expected == 0] = 1.0
        else:
            # Sylvester's Hadamard matrix: H_ij = (-1)^popcount(i & j)
            picks = np.sort(rng.permutation(p)[:n])
            both = picks[:, None] & np.arange(p)
            parity = sum((both >> k) & 1 for k in range(p.bit_length())) % 2
            expected = 1.0 - 2.0 * parity
        A = gen_design(kind, n, p, seed=5)
        assert isinstance(A.base, mmap.mmap)
        assert np.array_equal(A, expected)

    def test_a_mapped_design_is_unmapped_with_its_array(self):
        A = gen_design("I", 512, 1024, seed=5)
        root = A
        while isinstance(root, np.ndarray):
            root = root.base
        assert isinstance(root, mmap.mmap) and A.flags.writeable
        ref = weakref.ref(root)
        del A, root
        gc.collect()
        assert ref() is None

    def test_a_small_design_owns_its_data(self):
        A = gen_design("II", 64, 512, seed=5)
        assert A.base is None and A.flags.owndata

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_design("IV", 4, 4, seed=0)


class TestGenSignal:
    def test_support_size(self):
        g = contiguous_groups(40, 10)
        for kind in ["i", "ii", "iii", "iv"]:
            x, support = gen_signal(kind, g, r_bar=4, alpha=1.0, seed=5)
            assert support.size == 4
            norms = group_norms(x, g)
            assert np.count_nonzero(norms) == 4
            assert np.all(norms[support] > 0)

    def test_type_iii_entries_are_signs(self):
        g = contiguous_groups(20, 5)
        x, support = gen_signal("iii", g, r_bar=2, alpha=2.0, seed=6)
        on = np.concatenate([g.groups[i] for i in support])
        assert set(np.unique(np.abs(x[on]))) == {2.0}

    def test_type_iv_magnitudes_and_signs(self):
        g = contiguous_groups(40, 10)
        x, support = gen_signal("iv", g, r_bar=5, alpha=1.0, seed=7)
        half = 5 // 2
        for pos, i in enumerate(support):
            vals = x[g.groups[i]]
            expected = 1e5 / np.sqrt(i + 1)
            assert np.allclose(np.abs(vals), expected)
            assert np.all(vals < 0) if pos < half else np.all(vals > 0)

    def test_r_bar_too_large(self):
        g = contiguous_groups(10, 5)
        with pytest.raises(ValueError):
            gen_signal("i", g, r_bar=6, alpha=1.0, seed=0)

    @pytest.mark.parametrize("r_bar", [-1, -3])
    def test_r_bar_negative(self, r_bar):
        # a negative r_bar once sliced the permutation from the end and drew
        # m + r_bar groups
        g = contiguous_groups(16, 8)
        with pytest.raises(ValueError, match=r"r_bar must lie in \[0, m = 8\]"):
            gen_signal("i", g, r_bar=r_bar, alpha=1.0, seed=0)

    def test_r_bar_zero_is_the_zero_signal(self):
        x, support = gen_signal("i", contiguous_groups(16, 8), r_bar=0, alpha=1.0, seed=0)
        assert not x.any() and support.size == 0

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            gen_signal("i", contiguous_groups(10, 5), r_bar=2, alpha=alpha, seed=0)

    def test_determinism(self):
        g = contiguous_groups(30, 6)
        x1, s1 = gen_signal("ii", g, r_bar=3, alpha=1.5, seed=8)
        x2, s2 = gen_signal("ii", g, r_bar=3, alpha=1.5, seed=8)
        assert np.array_equal(x1, x2)
        assert np.array_equal(s1, s2)


class TestGenObservations:
    def test_noiseless(self, rng):
        A = rng.standard_normal((10, 6))
        x = rng.standard_normal(6)
        b = gen_observations(A, x, 0.0, 0.0, seed=9)
        assert np.allclose(b, A @ x)

    def test_noise_norms(self, rng):
        A = rng.standard_normal((10, 6))
        x = rng.standard_normal(6)
        b = gen_observations(A, x, 0.0, 0.3, seed=10)
        assert np.linalg.norm(b - A @ x) == pytest.approx(0.3)

    def test_coefficient_noise_enters_through_design(self, rng):
        A = rng.standard_normal((10, 6))
        x = rng.standard_normal(6)
        b = gen_observations(A, x, 0.2, 0.0, seed=11)
        # b = A(x + delta) with ||delta|| = 0.2
        delta, *_ = np.linalg.lstsq(A, b - A @ x, rcond=None)
        assert np.linalg.norm(delta) == pytest.approx(0.2, rel=1e-6)

    def test_rejects_negative_scales(self, rng):
        A = rng.standard_normal((4, 3))
        with pytest.raises(ValueError):
            gen_observations(A, np.zeros(3), -0.1, 0.0, seed=0)

    @pytest.mark.parametrize("theta1, theta2", [
        (float("nan"), 0.1), (0.1, float("nan")), (float("inf"), 0.1), (0.1, float("inf")),
    ])
    def test_rejects_non_finite_scales(self, rng, theta1, theta2):
        # a NaN scale once failed the theta < 0 test and gave the noise-free b
        A = rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match="theta[12] must be nonnegative and finite"):
            gen_observations(A, np.zeros(3), theta1, theta2, seed=0)


class TestMakeRng:
    @pytest.mark.parametrize("seed", [-1, -5, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            make_rng(seed)

    def test_accepts_the_ends_of_the_64_bit_range(self):
        make_rng(0)
        make_rng(2**64 - 1)


class TestMakeInstance:
    def test_bitwise_reproducible(self):
        kw = dict(design="I", signal="i", n=20, p=40, m=8, r_bar=3,
                  alpha=1.0, theta1=0.1, theta2=0.1, seed=12)
        a, b = make_instance(**kw), make_instance(**kw)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_true, b.x_true)

    def test_meta_records_parameters(self):
        inst = make_instance(design="II", signal="iii", n=16, p=32, m=8, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=13)
        assert inst.meta["design"] == "II"
        assert inst.meta["rng"] == "philox"
        assert inst.seed == 13

    def test_default_box_rule(self):
        inst = make_instance(design="I", signal="iii", n=16, p=32, m=8, r_bar=2,
                             alpha=2.0, theta1=0.0, theta2=0.0, seed=14)
        assert default_box(inst.x_true).R == pytest.approx(2000.0)

    def test_default_box_rejects_zero(self):
        with pytest.raises(ValueError):
            default_box(np.zeros(4))


class TestOracleLs:
    def test_optimality_on_support(self):
        inst = make_instance(design="I", signal="i", n=40, p=60, m=12, r_bar=4,
                             alpha=1.0, theta1=0.05, theta2=0.05, seed=15)
        res = oracle_ls(inst)
        # the residual gradient vanishes on the true support groups
        grad = inst.A.T @ (inst.A @ res.x_ls - inst.b) / inst.A.shape[0]
        grad_groups = group_norms(grad, inst.g)
        rel = np.max(grad_groups[inst.support_true]) / max(1e-30, np.max(grad_groups))
        assert rel < 1e-10

    def test_off_support_is_zero(self):
        inst = make_instance(design="I", signal="ii", n=30, p=50, m=10, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.1, seed=16)
        res = oracle_ls(inst)
        off = np.setdiff1d(np.arange(inst.g.m), inst.support_true)
        assert np.all(group_norms(res.x_ls, inst.g)[off] == 0)

    def test_noiseless_recovers_truth(self):
        inst = make_instance(design="I", signal="i", n=30, p=50, m=10, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=17)
        res = oracle_ls(inst)
        assert np.linalg.norm(res.x_ls - inst.x_true) < 1e-10

    def test_matches_qr_solution(self):
        inst = make_instance(design="I", signal="i", n=40, p=60, m=12, r_bar=4,
                             alpha=1.0, theta1=0.1, theta2=0.1, seed=18)
        res = oracle_ls(inst)
        cols = np.concatenate([inst.g.groups[i] for i in inst.support_true])
        Q, R = np.linalg.qr(inst.A[:, cols])
        x_qr = np.linalg.solve(R, Q.T @ inst.b)
        assert np.allclose(res.x_ls[cols], x_qr, atol=1e-10)

    def test_rank_deficient_raises(self):
        inst = make_instance(design="I", signal="i", n=40, p=60, m=12, r_bar=4,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=19)
        # duplicate a column inside a support group to break the rank
        cols = inst.g.groups[inst.support_true[0]]
        inst.A[:, cols[1]] = inst.A[:, cols[0]]
        with pytest.raises(SingularDesignError):
            oracle_ls(inst)

    def test_projected_noise_bounds_ls_error(self):
        inst = make_instance(design="I", signal="ii", n=50, p=60, m=12, r_bar=4,
                             alpha=1.0, theta1=0.1, theta2=0.1, seed=20)
        res = oracle_ls(inst)
        lhs = np.max(group_norms(res.x_ls - inst.x_true, inst.g))
        rhs = np.max(group_norms(res.projected_noise, inst.g))
        assert lhs <= rhs + 1e-10


class TestBruteForce:
    def test_refuses_large_m(self):
        inst = make_instance(design="I", signal="i", n=30, p=40, m=20, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=21)
        with pytest.raises(ValueError, match="m > 16"):
            brute_force_zero_norm(inst, 1.0, BoxConstraint(10.0))

    def test_b_zero_gives_zero(self):
        inst = make_instance(design="I", signal="i", n=10, p=8, m=4, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=22)
        inst.b[:] = 0.0
        x, obj = brute_force_zero_norm(inst, 1.0, BoxConstraint(10.0))
        assert np.array_equal(x, np.zeros(8))
        assert obj == 0.0

    def test_tiny_nu_gives_zero(self):
        inst = make_instance(design="I", signal="i", n=10, p=8, m=4, r_bar=2,
                             alpha=1.0, theta1=0.0, theta2=0.05, seed=23)
        x, obj = brute_force_zero_norm(inst, 1e-8, BoxConstraint(10.0))
        assert np.array_equal(x, np.zeros(8))
        assert obj < 1.0

    def test_noiseless_large_nu_finds_truth(self):
        inst = make_instance(design="I", signal="i", n=20, p=8, m=4, r_bar=1,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=24)
        x, obj = brute_force_zero_norm(inst, 1e6, BoxConstraint(100.0))
        assert obj == pytest.approx(1.0, abs=1e-6)
        found = set(np.flatnonzero(group_norms(x, inst.g) > 1e-10))
        assert found == set(inst.support_true.tolist())

    def test_box_binds_when_least_squares_leaves_it(self, rng):
        inst = make_instance(design="I", signal="i", n=20, p=10, m=5, r_bar=2,
                             alpha=1.0, theta1=0.05, theta2=0.05, seed=27)
        inst.b *= 1e7
        box = BoxConstraint(1e6)
        nu = 1.0
        x, best = brute_force_zero_norm(inst, nu, box)
        assert np.max(np.abs(x)) == box.R
        for _ in range(50):
            y = rng.uniform(-box.R, box.R, 10)
            assert gsparse_objective(y, inst, nu) >= best - 1e-8

    def test_objective_is_a_lower_bound(self, rng):
        inst = make_instance(design="I", signal="ii", n=20, p=10, m=5, r_bar=2,
                             alpha=1.0, theta1=0.05, theta2=0.05, seed=25)
        box = BoxConstraint(100.0)
        nu = 50.0
        _, best = brute_force_zero_norm(inst, nu, box)
        for _ in range(50):
            x = rng.uniform(-1, 1, 10)
            assert gsparse_objective(x, inst, nu) >= best - 1e-8


class TestBoxRestrictedLs:
    def test_orthonormal_columns_clip_the_least_squares(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        b = 10.0 * rng.standard_normal(12)
        x = _box_restricted_ls(Q, b, 1.0)
        assert np.allclose(x, np.clip(Q.T @ b, -1.0, 1.0), atol=1e-12)

    def test_inside_the_box_is_least_squares(self, rng):
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        x = _box_restricted_ls(A, b, 2.0 * np.max(np.abs(x_ls)))
        assert np.allclose(x, x_ls, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(12, 5), (6, 6), (4, 9)])
    def test_kkt_conditions(self, rng, n, k):
        A = rng.standard_normal((n, k))
        b = 100.0 * rng.standard_normal(n)
        R = 1.0
        x = _box_restricted_ls(A, b, R)
        assert np.max(np.abs(x)) <= R
        grad = A.T @ (A @ x - b)
        at_bound = np.abs(x) == R
        assert at_bound.any()
        scale = np.linalg.norm(A) * np.linalg.norm(A @ x - b)
        # free coordinates are stationary; bound ones are pushed outwards
        assert np.all(np.abs(grad[~at_bound]) <= 1e-10 * scale)
        assert np.all(-np.sign(x[at_bound]) * grad[at_bound] >= -1e-10 * scale)


class TestMetrics:
    def _inst(self):
        return make_instance(design="I", signal="i", n=20, p=40, m=8, r_bar=3,
                             alpha=1.0, theta1=0.0, theta2=0.0, seed=26)

    def test_perfect_recovery(self):
        inst = self._inst()
        mm = metrics(inst.x_true, inst)
        assert mm["relerr"] == 0.0
        assert mm["exact_support"]
        assert mm["support_precision"] == 1.0
        assert mm["support_recall"] == 1.0

    def test_zero_estimate(self):
        inst = self._inst()
        mm = metrics(np.zeros(40), inst)
        assert mm["relerr"] == 1.0
        assert mm["support_recall"] == 0.0
        assert not mm["exact_support"]

    def test_scaled_perturbation(self):
        inst = self._inst()
        delta = np.zeros(40)
        delta[0] = 0.01 * np.linalg.norm(inst.x_true)
        mm = metrics(inst.x_true + delta, inst)
        assert mm["relerr"] == pytest.approx(0.01)

    def test_zero_truth_rejected(self):
        inst = self._inst()
        inst.x_true = np.zeros(40)
        with pytest.raises(ValueError):
            metrics(np.ones(40), inst)


def digest(*arrays) -> str:
    """sha256 of the arrays' bytes, integers as little-endian int64 and the rest as float64."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype("<i8" if a.dtype.kind in "iu" else "<f8").tobytes())
    return h.hexdigest()


class TestGeneratorPins:
    """The generator's outputs, bit for bit, as sha256 digests of a fixed set of calls."""

    INSTANCES = {
        ("I", "i"): "0c4611a75db430636841dec6c314369ee5c4f92ca31d3f9d6777c00cccaea2f6",
        ("I", "ii"): "22401e1005c8c156579ce57aa5bbd1d33544ae3c490cd7a2a0af741802b2712f",
        ("I", "iii"): "04ddccfcdfd5d51d1ad703642e9c8a4755329670c0f7c66b514a8b9ebd0e16ce",
        ("I", "iv"): "508922009f3578d61b25dab3c4a6ed32be04b017f0c2aa21abc7d6458f173fe2",
        ("II", "i"): "0cbc16e39ec0a3c6e8f87d69883c4716d89c3a091bc759be82d60428ab83d724",
        ("II", "ii"): "5cde27748f0c58b27d4c861372d96f07a0549e592c2cdf1a9fd3f6a730ff2108",
        ("II", "iii"): "aac2d220afa5a23523dcacd1a3bc52760bdab919e25988a6282bb4c5ccfab07e",
        ("II", "iv"): "743402a042092f687d4caec48613805b9edd2a10a7d7c83082b12a524908d0a1",
        ("III", "i"): "6f1d472dd4365226a3536f09b4742a5c39c9c99dc44c58ac0f2df4a47bd011e3",
        ("III", "ii"): "a36508a5a417a0f4c2ebecfa1af67057539c687e7881f6f49e7b948bc62b2bcd",
        ("III", "iii"): "1307733d1ef199d9466af9dfed86e4e4dd2ef8306d1e349acbd8517c99e9fbb0",
        ("III", "iv"): "f0ce12749f8afebc5ec782f1004eb63a25cb4a070bff83980851255023b3b211",
    }
    SHUFFLED = {
        "i": "f15f183bf9b58efaebd6a396395154b53d0c67e59ed41895d39c151d3009ddf0",
        "ii": "d22b856dc42f55f72ccbd55fcb47f24a21e64bca11a04a0b7c36832569af6b66",
        "iii": "d254bbfcbcab018694b81d858e291192be160755f306a12659702cc2136c0984",
        "iv": "265ac0959b22af647d8173a54e9fbf4f4597cb7506a487186d649aa939ae1944",
    }
    # at alpha = 0 every drawn group of kinds i and iii is zero and is regenerated
    ZERO_ALPHA = {
        "i": "1634a0d96996030ca8c3c582d1de1bd5ca5fedf76efca190608dd6e5eb780582",
        "iii": "1634a0d96996030ca8c3c582d1de1bd5ca5fedf76efca190608dd6e5eb780582",
    }

    @staticmethod
    def _shuffled() -> GroupStructure:
        rng = np.random.default_rng(31)
        return GroupStructure(30, np.split(rng.permutation(30), [4, 5, 11, 14, 20, 23, 27]))

    @pytest.mark.parametrize("design, signal", sorted(INSTANCES))
    def test_make_instance(self, design, signal):
        inst = make_instance(design, signal, n=16, p=64, m=16, r_bar=5, alpha=2.0,
                             theta1=0.1, theta2=0.1, seed=41)
        got = digest(inst.A, inst.b, inst.x_true, inst.support_true)
        assert got == self.INSTANCES[design, signal]

    @pytest.mark.parametrize("signal", sorted(SHUFFLED))
    def test_gen_signal_on_a_shuffled_partition(self, signal):
        x, support = gen_signal(signal, self._shuffled(), 5, 1.5, seed=43)
        assert digest(x, support) == self.SHUFFLED[signal]

    @pytest.mark.parametrize("signal", sorted(ZERO_ALPHA))
    def test_gen_signal_regenerates_zero_groups(self, signal):
        g = self._shuffled()
        x, support = gen_signal(signal, g, 5, 0.0, seed=47)
        # each regenerated group is 1 at its first listed coordinate, 0 elsewhere
        assert np.array_equal(np.flatnonzero(x), np.sort([g.groups[i][0] for i in support]))
        assert digest(x, support) == self.ZERO_ALPHA[signal]
