"""Group-structured vector algebra shared by all solver components.

A group structure partitions the coordinates ``{0..p-1}`` into ``m``
disjoint, nonempty index sets.  Everything downstream (the weighted
l2,1 solver, the multi-stage outer loop, the benchmark oracles) works
groupwise, so the structure caches the index lists, a coordinate-to-group
lookup and the segment layout that turns every per-group reduction into
one vectorized call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BoxConstraint:
    """The l-infinity ball ``{x : ||x||_inf <= R}`` with radius ``R > 0``."""

    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"box radius must be positive, got {self.R}")


class GroupStructure:
    """An ordered partition of ``{0..p-1}`` into ``m`` nonempty groups.

    Groups are stored 0-based internally; the JSON wire format uses
    1-based coordinate indices.  Instances are immutable and safe to
    share across concurrent solves.

    Group operations run as segment kernels: the coordinates are laid out
    group after group (``perm`` maps that contiguous order back to
    coordinates, and is ``None`` when the groups already are contiguous
    blocks in order), so a per-group sum is one ``np.add.reduceat`` over
    ``starts`` and a per-group value reaches its coordinates through
    ``group_id``.
    """

    def __init__(self, p: int, groups):
        groups = tuple(np.asarray(idx, dtype=np.intp).reshape(-1) for idx in groups)
        if p <= 0:
            raise ValueError("ambient dimension p must be positive")
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        if np.any(sizes == 0):
            raise ValueError(f"group {int(np.flatnonzero(sizes == 0)[0])} is empty")
        order = np.concatenate(groups) if groups else np.zeros(0, dtype=np.intp)
        owner = np.repeat(np.arange(len(groups)), sizes)  # group of each entry of order
        bad = (order < 0) | (order >= p)
        if np.any(bad):
            raise ValueError(f"group {int(owner[bad][0])} has indices outside [0, {p})")
        by_coord = np.argsort(order, kind="stable")
        repeated = order[by_coord[1:]] == order[by_coord[:-1]]
        if np.any(repeated):
            gid = int(owner[by_coord[1:][repeated]].min())
            raise ValueError(f"group {gid} overlaps an earlier group")
        if order.size < p:
            missing = int(np.flatnonzero(np.bincount(order, minlength=p) == 0)[0])
            raise ValueError(f"coordinate {missing} belongs to no group")
        group_id = np.empty(p, dtype=np.intp)
        group_id[order] = owner
        self.p = int(p)
        self.groups = groups
        self.group_id = group_id
        self.starts = np.cumsum(sizes) - sizes
        self.perm = None if np.array_equal(order, np.arange(p)) else order
        self._sizes = sizes
        for arr in (self.group_id, self.starts, self.perm, self._sizes):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.groups)

    def group_of(self, j: int) -> int:
        """Group id containing coordinate ``j`` (O(1) lookup)."""
        return int(self.group_id[j])

    def sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def segment_sum(self, v) -> np.ndarray:
        """Per-group sums of the per-coordinate vector ``v``."""
        v = np.asarray(v, dtype=float)
        return np.add.reduceat(v if self.perm is None else v[self.perm], self.starts)

    def broadcast(self, vals) -> np.ndarray:
        """Per-coordinate copy of the per-group values ``vals``."""
        return np.asarray(vals)[self.group_id]

    def segments(self, mask):
        """The coordinates of the groups selected by ``mask`` as contiguous segments.

        Returns ``(cols, starts, seg)``: the selected coordinates group
        after group, where each selected group's run starts in ``cols``,
        and the rank among the selected groups of each entry of ``cols``.
        """
        mask = np.asarray(mask, dtype=bool)
        sizes = self._sizes[mask]
        selected = mask[self.group_id]
        cols = np.flatnonzero(selected) if self.perm is None else self.perm[selected[self.perm]]
        return cols, np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)

    def __eq__(self, other):
        return (
            isinstance(other, GroupStructure)
            and self.p == other.p
            and np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._order(), other._order())
        )

    def _order(self) -> np.ndarray:
        return np.arange(self.p) if self.perm is None else self.perm

    def __repr__(self):
        return f"GroupStructure(p={self.p}, m={self.m})"

    # -- JSON wire format: {"p": int, "groups": [[1-based ints, ...], ...]} --

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "groups": [(np.asarray(idx) + 1).tolist() for idx in self.groups]}
        )

    @classmethod
    def from_json(cls, text: str) -> "GroupStructure":
        obj = json.loads(text)
        groups = [np.asarray(idx, dtype=np.intp) - 1 for idx in obj["groups"]]
        return cls(int(obj["p"]), groups)


def contiguous_groups(p: int, m: int) -> GroupStructure:
    """Split ``{0..p-1}`` into ``m`` contiguous blocks of near-equal size."""
    if not 1 <= m <= p:
        raise ValueError("need 1 <= m <= p")
    bounds = np.linspace(0, p, m + 1).astype(np.intp)
    return GroupStructure(p, np.split(np.arange(p), bounds[1:-1]))


def _check_dim(x: np.ndarray, g: GroupStructure) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (g.p,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.p},)")
    return x


def group_norms(x, g: GroupStructure) -> np.ndarray:
    """Per-group Euclidean norms, the map G(x)."""
    x = _check_dim(x, g)
    return np.sqrt(g.segment_sum(x * x))


def l21_norm(x, g: GroupStructure, weights=None) -> float:
    """Weighted sum of group norms; unit weights when omitted."""
    norms = group_norms(x, g)
    if weights is None:
        return float(norms.sum())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (g.m,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({g.m},)")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    return float(weights @ norms)


def approx_group_zero_norm(x, g: GroupStructure, tol: float = 1e-6) -> int:
    """Number of groups with norm strictly above ``tol``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return int(np.count_nonzero(group_norms(x, g) > tol))


def equilibrium_residual(x, w, g: GroupStructure) -> float:
    """The complementarity measure ``<e - w, G(x)>``; zero certifies local optimality."""
    w = np.asarray(w, dtype=float)
    if w.shape != (g.m,):
        raise ValueError(f"w has shape {w.shape}, expected ({g.m},)")
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("w must lie in [0, 1]^m")
    return float((1.0 - w) @ group_norms(x, g))


def project_box(x, box: BoxConstraint) -> np.ndarray:
    """Componentwise clamp onto the l-infinity ball."""
    return np.clip(np.asarray(x, dtype=float), -box.R, box.R)
