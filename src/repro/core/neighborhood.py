"""k-neighborhood systems of point sets (Section 5 of the paper).

For points ``P = {p_1, ..., p_n}`` and fixed ``k``, the *k-neighborhood
ball* ``B_i`` is the largest ball centered at ``p_i`` whose open interior
contains at most ``k - 1`` points of ``P`` other than ``p_i`` — i.e. its
radius is the distance from ``p_i`` to its k-th nearest neighbor.  The
collection ``{B_1, ..., B_n}`` is the k-neighborhood system, and given the
radii the k-nearest-neighbor graph follows in O(log n) time on n
processors (Section 5.1), which is why the algorithms in this package
compute the system (in fact the full k-nearest lists).

:class:`KNeighborhoodSystem` is the result type shared by every algorithm
(brute force, kd-tree, grid, simple DnC, fast DnC): per-point neighbor
index lists and squared distances, sorted ascending, padded with ``-1`` /
``inf`` when a (sub)problem has fewer than ``k`` other points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .. import kernels
from ..geometry.balls import BallSystem
from ..geometry.points import as_points
from ..pvm.cost import Cost

__all__ = [
    "KNeighborhoodSystem",
    "merge_neighbor_lists",
    "brute_force_neighbors",
    "brute_force_leaves",
    "base_case_cost",
    "selection_depth",
    "selection_cost",
]

#: Pairs one stacked base-case call may hold (leaves x m x m): bounds
#: the call's (pairs, d) diff intermediate.
LEAF_PAIR_CHUNK = 1 << 18


def base_case_cost(m: int) -> Cost:
    """The charge of an ``m``-point base case, all pairs "in m time using
    m processors": depth m, work m².  Every engine charges this one cost
    per leaf and adds it to the ``base`` phase."""
    return Cost(float(m), float(m) * float(m))


def selection_depth(k: int) -> float:
    """Depth of re-taking each corrected ball's k best from its
    candidates: 1 for k = 1, else ``1 + log2(log2 k + 2)`` — the
    O(log log k) k-selection of Section 6.2, charged once per Fast
    Correction and once per query-structure punt."""
    return 1.0 if k == 1 else 1.0 + math.log2(math.log2(k) + 2.0)


def selection_cost(k: int, candidates: int) -> Cost:
    """The charge of re-taking the k best after a query-structure punt:
    :func:`selection_depth` deep, k + 1 operations per candidate pair."""
    return Cost(selection_depth(k), float(max(1, candidates * (k + 1))))


def brute_force_neighbors(
    points: np.ndarray,
    ids: np.ndarray,
    k: int,
    nbr_idx: np.ndarray,
    nbr_sq: np.ndarray,
) -> None:
    """All-pairs k nearest within ``points[ids]``, written into the global
    ``(nbr_idx, nbr_sq)`` arrays — the recursive engines' base case: one
    leaf of :func:`brute_force_leaves`, one
    :func:`repro.kernels.block_topk` call.

    Rows with fewer than ``k`` candidates are padded with ``-1`` / ``inf``.
    Cost accounting and statistics are the caller's responsibility.
    """
    brute_force_leaves(points, [ids], k, nbr_idx, nbr_sq)


def brute_force_leaves(
    points: np.ndarray,
    leaves: Sequence[np.ndarray],
    k: int,
    nbr_idx: np.ndarray,
    nbr_sq: np.ndarray,
) -> None:
    """:func:`brute_force_neighbors` for many leaves at once.

    Leaves of one size stack into :func:`repro.kernels.block_topk` calls
    of at most :data:`LEAF_PAIR_CHUNK` pairs each (a single leaf is one
    block of one call, computed in row slices of about that many pairs
    when it alone holds more).  Each leaf's rows come out bit for bit as
    from its own call: the kernel's distances and selections never cross
    a block, and leaves own disjoint rows.
    """
    by_size: Dict[int, List[np.ndarray]] = {}
    for ids in leaves:
        if ids.shape[0] > 1:
            by_size.setdefault(ids.shape[0], []).append(ids)
    for m, group in by_size.items():
        kk = min(k, m - 1)
        per_call = max(1, LEAF_PAIR_CHUNK // (m * m))
        for lo in range(0, len(group), per_call):
            ids = np.concatenate(group[lo : lo + per_call])
            if m * m > LEAF_PAIR_CHUNK:
                # one leaf past the chunk (a failed separator search makes
                # one of a whole segment) streams its rows instead of
                # holding m x m pairs
                rows = max(1, LEAF_PAIR_CHUNK // m)
                local_idx, local_sq = kernels.block_topk(points[ids], kk, rows=rows)
            else:
                local_idx, local_sq = kernels.block_topk(points[ids], kk, block=m)
            nbr_idx[ids, :kk] = ids[local_idx]
            nbr_sq[ids, :kk] = local_sq
            if kk < k:
                nbr_idx[ids, kk:] = -1
                nbr_sq[ids, kk:] = np.inf


@dataclass(frozen=True)
class KNeighborhoodSystem:
    """Exact k-nearest neighbor lists of a point set.

    Attributes
    ----------
    points:
        (n, d) input points.
    k:
        Number of neighbors per point.
    neighbor_indices:
        (n, k) int64; ``neighbor_indices[i]`` are the k nearest points to
        ``points[i]`` (self excluded), sorted by (distance, index); ``-1``
        pads rows when fewer than k neighbors exist.
    neighbor_sq_dists:
        (n, k) float64 squared distances matching ``neighbor_indices``;
        ``inf`` on padded slots.
    """

    points: np.ndarray
    k: int
    neighbor_indices: np.ndarray
    neighbor_sq_dists: np.ndarray

    def __post_init__(self) -> None:
        # dtype=None: float32 point storage passes through without a
        # silent float64 upcast copy (neighbor arrays stay int64/float64)
        pts = as_points(self.points, dtype=None)
        n = pts.shape[0]
        idx = np.asarray(self.neighbor_indices, dtype=np.int64)
        sq = np.asarray(self.neighbor_sq_dists, dtype=np.float64)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if idx.shape != (n, self.k) or sq.shape != (n, self.k):
            raise ValueError(
                f"neighbor arrays must be ({n}, {self.k}); got {idx.shape} and {sq.shape}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "neighbor_indices", idx)
        object.__setattr__(self, "neighbor_sq_dists", sq)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def radii(self) -> np.ndarray:
        """k-neighborhood ball radii: distance to the k-th neighbor.

        ``inf`` where the list is incomplete (fewer than k real neighbors).
        """
        last = self.neighbor_sq_dists[:, -1]
        return np.sqrt(last)

    def to_ball_system(self) -> BallSystem:
        """The k-neighborhood system as an explicit ball collection."""
        return BallSystem(self.points, self.radii)

    def is_complete(self) -> bool:
        """True when every list holds k real (finite) neighbors."""
        return bool(np.isfinite(self.neighbor_sq_dists).all())

    def validate_sorted(self) -> bool:
        """Internal invariant: rows sorted ascending by squared distance."""
        sq = self.neighbor_sq_dists
        return bool(np.all(sq[:, 1:] >= sq[:, :-1]))

    def same_distances(self, other: "KNeighborhoodSystem", *, rtol: float = 1e-9, atol: float = 1e-10) -> bool:
        """Distance-level equality (robust to ties permuting equal-distance ids)."""
        if len(self) != len(other) or self.k != other.k:
            return False
        a, b = self.neighbor_sq_dists, other.neighbor_sq_dists
        both_inf = np.isinf(a) & np.isinf(b)
        return bool(np.allclose(np.where(both_inf, 0.0, a), np.where(both_inf, 0.0, b), rtol=rtol, atol=atol))


def merge_neighbor_lists(
    idx_a: np.ndarray,
    sq_a: np.ndarray,
    idx_b: np.ndarray,
    sq_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two candidate lists for one point into its k best.

    Inputs need not be sorted; duplicates (same index) are dropped keeping
    the smaller distance; output is sorted by (distance, index) and padded
    to length k with (-1, inf).
    """
    idx = np.concatenate([np.asarray(idx_a, dtype=np.int64), np.asarray(idx_b, dtype=np.int64)])
    sq = np.concatenate([np.asarray(sq_a, dtype=np.float64), np.asarray(sq_b, dtype=np.float64)])
    real = idx >= 0
    idx, sq = idx[real], sq[real]
    if idx.size:
        # collapse duplicate ids to their smallest distance, then order the
        # survivors by (distance, id)
        uniq_ids, inv = np.unique(idx, return_inverse=True)
        best_sq = np.full(uniq_ids.size, np.inf)
        np.minimum.at(best_sq, inv, sq)
        order = np.lexsort((uniq_ids, best_sq))
        idx, sq = uniq_ids[order], best_sq[order]
    out_idx = np.full(k, -1, dtype=np.int64)
    out_sq = np.full(k, np.inf)
    take = min(k, idx.size)
    out_idx[:take] = idx[:take]
    out_sq[:take] = sq[:take]
    return out_idx, out_sq
