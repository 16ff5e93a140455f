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
from dataclasses import dataclass

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
        perm = None if np.array_equal(order, np.arange(p)) else order
        self._set(p, sizes, group_id, np.cumsum(sizes) - sizes, perm, groups)

    def _set(self, p: int, sizes, group_id, starts, perm, groups=None) -> None:
        self.p = int(p)
        self.group_id = group_id
        self.starts = starts
        self.perm = perm
        self._sizes = sizes
        self._groups = groups
        for arr in (group_id, starts, perm, sizes):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self._sizes.size

    @property
    def groups(self) -> tuple:
        """The 0-based coordinates of each group, group after group."""
        if self._groups is None:
            self._groups = tuple(np.split(self._order(), self.starts[1:]))
        return self._groups

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

    def subset(self, mask):
        """The groups selected by ``mask`` as a structure of their own.

        Returns ``(cols, sub)``: ``cols`` from :meth:`segments`, and the
        structure on ``0..len(cols)-1`` whose group k is the k-th selected
        group, with its coordinate j standing for coordinate ``cols[j]``
        here, so that ``x[cols]`` is a vector of ``sub``.  ``sub`` equals
        the structure the constructor builds from those groups, but comes
        from the segments alone, with no validation and no per-group
        array; its :attr:`groups` are derived when first read.
        """
        mask = np.asarray(mask, dtype=bool)
        cols, starts, seg = self.segments(mask)
        if not cols.size:
            raise ValueError("mask selects no group")
        sub = GroupStructure.__new__(GroupStructure)
        sub._set(cols.size, self._sizes[mask], seg, starts, None)
        return cols, sub

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
        """The structure of :meth:`to_json`'s text; raises ValueError on any other shape."""
        obj = json.loads(text)
        groups = obj.get("groups") if isinstance(obj, dict) else None
        if not (isinstance(groups, list) and _is_int(obj.get("p"))
                and all(isinstance(idx, list) and all(map(_is_int, idx)) for idx in groups)):
            raise ValueError('expected an object with an integer "p" and a list of'
                             ' integer lists under "groups"')
        return cls(obj["p"], [np.asarray(idx, dtype=np.intp) - 1 for idx in groups])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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


# cap on the safeguarded Newton steps of _box_roots; each step that is not
# a Newton step halves the bracket, so 100 exhaust double precision
_ROOT_MAX_ITER = 100


def _box_roots(a, starts, seg, omega, nrm, R: float) -> np.ndarray:
    """Root ``t`` of ``t ||min(a_i / (1 + t), R)|| = omega_i`` on each segment ``a_i >= 0``.

    The left side increases in ``t``.  Clipping only shrinks the norm, so
    the unclipped root ``omega/(||a_i|| - omega)`` is a lower bound, and
    so is ``omega`` over the clipped norm there, where Newton starts.  At
    ``max(a_i)/R - 1`` nothing clips and the left side is at least
    ``omega``: an upper bound.  A Newton step that leaves the bracket is
    replaced by bisection.
    """

    def norms(t):
        u = a / (1.0 + t[seg])
        free = u < R
        v = np.where(free, u, R)
        return (np.sqrt(np.add.reduceat(v * v, starts)),
                np.add.reduceat(np.where(free, u * u, 0.0), starts))

    lo = omega / norms(omega / (nrm - omega))[0]
    hi = np.maximum.reduceat(a, starts) / R - 1.0
    t = lo
    for _ in range(_ROOT_MAX_ITER):
        N, U = norms(t)
        G = t * N - omega
        lo = np.where(G < 0, t, lo)
        hi = np.where(G > 0, t, hi)
        # d/dt (t N) = N + t dN/dt, with dN/dt = -U / ((1 + t) N)
        newton = t - G / (N - t * U / ((1.0 + t) * N))
        step = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.all(np.abs(step - t) <= 4 * np.finfo(float).eps * t)
        t = step
        if done:
            break
    return t


def group_soft_threshold(z, g: GroupStructure, omega, nrm) -> np.ndarray:
    """Block soft threshold ``z_i (1 - omega_i/||z_i||)^+`` of ``z``, whose group norms are ``nrm``.

    It is the prox of ``sum_i omega_i ||x_i||`` at ``z``, and the prox of
    :func:`prox_group_box` on every group where it stays in the box.
    """
    scale = 1.0 - np.divide(omega, nrm, out=np.ones(g.m), where=nrm > omega)
    return z * scale[g.group_id]


def prox_group_box(z, g: GroupStructure, omega, R: float, nrm=None, soft=None) -> np.ndarray:
    """Prox of ``p(x) = sum_i omega_i ||x_i|| + delta_{||x||_inf <= R}(x)`` at ``z``.

    On a group where the block soft threshold ``z_i (1 - omega_i/||z_i||)^+``
    stays in the box, that is the prox: 0 when ``||z_i|| <= omega_i``, and
    ``z_i`` itself when ``omega_i = 0``.  On the other groups it is
    ``clip(z_i / (1 + t_i), -R, R)`` for the root ``t_i`` of the increasing
    equation ``t ||clip(z_i / (1 + t), -R, R)|| = omega_i`` (``t_i = 0``,
    a plain clip, when ``omega_i = 0``), solved on all of them at once.
    There ``t_i = omega_i / ||x_i||``, and the clipped coordinates are
    exactly ``+-R``.  ``nrm``, the group norms of ``z``, and ``soft``, its
    :func:`group_soft_threshold`, are computed when not given; ``soft`` is
    returned as it is when it stays in the box, and copied otherwise.
    """
    z = _check_dim(z, g)
    omega = np.asarray(omega, dtype=float)
    nrm = group_norms(z, g) if nrm is None else nrm
    x = group_soft_threshold(z, g, omega, nrm) if soft is None else soft
    over = np.abs(x) > R
    if over.any():
        x = x.copy()
        hit = np.zeros(g.m, dtype=bool)
        hit[g.group_id[over]] = True
        cols, starts, seg = g.segments(hit)
        t = _box_roots(np.abs(z[cols]), starts, seg, omega[hit], nrm[hit], R)
        x[cols] = np.clip(z[cols] / (1.0 + t[seg]), -R, R)
    return x


def group_support(x, g: GroupStructure) -> np.ndarray:
    """Sorted ids of the groups with a nonzero coordinate.

    The test is on the coordinates, not on :func:`group_norms`, whose
    squares underflow to 0 on a group of entries near 1e-300.
    """
    hit = np.zeros(g.m, dtype=bool)
    hit[g.group_id[_check_dim(x, g) != 0]] = True
    return np.flatnonzero(hit)


def equilibrium_residual(x, w, g: GroupStructure) -> float:
    """The complementarity measure ``<e - w, G(x)>``; zero certifies local optimality."""
    w = np.asarray(w, dtype=float)
    if w.shape != (g.m,):
        raise ValueError(f"w has shape {w.shape}, expected ({g.m},)")
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("w must lie in [0, 1]^m")
    return float((1.0 - w) @ group_norms(x, g))
