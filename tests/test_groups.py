import json

import numpy as np
import pytest

from gsreg.groups import (
    BoxConstraint,
    GroupStructure,
    contiguous_groups,
    equilibrium_residual,
    group_norms,
    group_support,
)


class TestGroupStructure:
    def test_valid_partition(self):
        g = GroupStructure(6, [[0, 1], [2, 3, 4], [5]])
        assert g.p == 6
        assert g.m == 3
        assert [idx.size for idx in g.groups] == [2, 3, 1]

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            GroupStructure(3, [[0, 1, 2], []])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupStructure(4, [[0, 1], [1, 2, 3]])

    def test_rejects_uncovered_coordinate(self):
        with pytest.raises(ValueError, match="belongs to no group"):
            GroupStructure(4, [[0, 1], [3]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GroupStructure(3, [[0, 1], [2, 3]])

    def test_json_roundtrip_is_one_based(self):
        g = GroupStructure(4, [[0, 2], [1, 3]])
        obj = json.loads(g.to_json())
        assert obj["p"] == 4
        assert obj["groups"] == [[1, 3], [2, 4]]
        assert GroupStructure.from_json(g.to_json()) == g

    def test_equality(self):
        a = contiguous_groups(10, 5)
        b = contiguous_groups(10, 5)
        c = contiguous_groups(10, 2)
        assert a == b
        assert a != c


class TestSubset:
    def test_subset_matches_segments_on_a_shuffled_partition(self):
        rng = np.random.default_rng(3)
        g = GroupStructure(20, np.split(rng.permutation(20), [3, 4, 9, 11, 16]))
        assert g.perm is not None
        mask = np.array([True, False, True, True, False, True])
        cols, sub = g.subset(mask)
        seg_cols, starts, _ = g.segments(mask)
        assert np.array_equal(cols, seg_cols)
        assert sub.p == cols.size and sub.m == 4 and sub.perm is None
        assert np.array_equal(sub.starts, starts)
        assert [cols[idx].tolist() for idx in sub.groups] == [
            g.groups[i].tolist() for i in np.flatnonzero(mask)]
        x = rng.standard_normal(20)
        assert np.allclose(group_norms(x[cols], sub), group_norms(x, g)[mask],
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("parent", ["contiguous", "shuffled"])
    @pytest.mark.parametrize("picked", [[0, 2, 3, 5], [1, 4], [5], [0, 1, 2, 3, 4, 5]])
    def test_subset_is_the_validated_structure(self, parent, picked):
        # subset builds its structure from the segments alone; it must be the
        # one the validating constructor builds from the selected groups
        sizes = [3, 1, 5, 2, 5, 4]
        coords = np.arange(20)
        if parent == "shuffled":
            coords = np.random.default_rng(3).permutation(20)
        g = GroupStructure(20, np.split(coords, np.cumsum(sizes)[:-1]))
        assert (g.perm is None) == (parent == "contiguous")
        mask = np.isin(np.arange(g.m), picked)
        cols, sub = g.subset(mask)
        ref = GroupStructure(cols.size, np.split(np.arange(cols.size),
                                                 np.cumsum([sizes[i] for i in picked])[:-1]))
        assert sub == ref and sub.p == ref.p and sub.m == ref.m and sub.perm is None
        assert len(sub.groups) == len(ref.groups)
        assert all(np.array_equal(a, b) for a, b in zip(sub.groups, ref.groups))
        for name in ("group_id", "starts"):
            assert np.array_equal(getattr(sub, name), getattr(ref, name))
            assert getattr(sub, name).dtype == getattr(ref, name).dtype
            assert not getattr(sub, name).flags.writeable
        inner = np.arange(len(picked)) % 2 == 0
        for a, b in zip(sub.segments(inner), ref.segments(inner)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert sub.to_json() == ref.to_json()
        assert GroupStructure.from_json(sub.to_json()) == sub
        assert [cols[idx].tolist() for idx in sub.groups] == [g.groups[i].tolist() for i in picked]

    def test_subset_of_no_group_is_refused(self):
        with pytest.raises(ValueError, match="no group"):
            contiguous_groups(6, 3).subset(np.zeros(3, dtype=bool))


class TestContiguousGroups:
    def test_even_split(self):
        g = contiguous_groups(12, 4)
        assert all(idx.size == 3 for idx in g.groups)

    def test_uneven_split_covers_everything(self):
        g = contiguous_groups(11, 4)
        assert sum(idx.size for idx in g.groups) == 11

    def test_single_group(self):
        g = contiguous_groups(5, 1)
        assert g.groups[0].tolist() == [0, 1, 2, 3, 4]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            contiguous_groups(3, 4)
        with pytest.raises(ValueError):
            contiguous_groups(3, 0)


class TestNorms:
    def test_group_norms_values(self):
        g = GroupStructure(4, [[0, 1], [2, 3]])
        x = np.array([3.0, 4.0, 0.0, 1.0])
        assert np.allclose(group_norms(x, g), [5.0, 1.0])

    def test_dimension_mismatch(self):
        g = contiguous_groups(4, 2)
        with pytest.raises(ValueError):
            group_norms(np.ones(5), g)

    def test_support_counts_every_nonzero_coordinate(self):
        g = contiguous_groups(4, 4)
        x = np.array([1.0, 1e-300, 0.0, -0.0])
        assert group_norms(x, g)[1] == 0.0  # the square underflows
        assert group_support(x, g).tolist() == [0, 1]
        with pytest.raises(ValueError):
            group_support(np.ones(5), g)


class TestEquilibriumResidual:
    def test_zero_when_w_is_one_on_support(self):
        g = contiguous_groups(4, 2)
        x = np.array([1.0, 2.0, 0.0, 0.0])
        assert equilibrium_residual(x, [1.0, 0.0], g) == 0.0

    def test_positive_otherwise(self):
        g = contiguous_groups(4, 2)
        x = np.array([3.0, 4.0, 0.0, 0.0])
        assert equilibrium_residual(x, [0.5, 1.0], g) == pytest.approx(2.5)

    def test_rejects_w_outside_unit_box(self):
        # np.any(w < 0) or np.any(w > 1) is False for NaN: the NaN weight
        # was accepted, and the residual came back NaN
        g = contiguous_groups(4, 2)
        for w in ([1.5, 0.0], [-0.5, 0.0], [np.nan, 0.5]):
            with pytest.raises(ValueError, match=r"w must lie in \[0, 1\]\^m"):
                equilibrium_residual(np.ones(4), w, g)


class TestBox:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            BoxConstraint(0.0)
        with pytest.raises(ValueError):
            BoxConstraint(-1.0)
