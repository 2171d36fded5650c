"""Correction of straddling balls (Sections 5, 6.1–6.2 of the paper).

After the two half-problems of a divide step are solved, only the balls
that intersect the separator can be wrong (Lemma 6.1): their recursive
radius may still be too large because the true k-th neighbor sits on the
other side.  Correcting ball ``B_i`` means finding every opposite-side
point strictly inside ``B_i`` and re-taking the k best candidates.

Two implementations, exactly as in the paper:

- **Fast Correction** (Section 6.2): march the straddling balls down the
  opposite side's partition tree.  A ball moves into every child whose
  region it can intersect (duplicating at nodes it straddles — the
  *reachability* relation of Lemma 6.3); at the leaves, ball-point
  containment is tested exhaustively.  The march is abandoned (and the
  caller punts) if the number of active ball instances at any level
  exceeds the ``m^(1-eta)`` cap of Lemma 6.2.
- **Query correction** (Section 5 / the punt path): build a
  :class:`~repro.core.query.NeighborhoodQueryStructure` over the straddling
  balls and query every opposite-side point against it.

Both produce (ball, candidate point) pairs;
:func:`apply_candidate_pairs_batch` merges them into the global neighbor
lists.

:func:`march_balls` walks the pointer tree for one straddler set; the
recursive engine uses it.  The frontier engines and the online index
march every straddler set of a level at once with
:meth:`~repro.kernels.layout.FlatTree.march`, which counts each march
exactly as :func:`march_balls` does (``tests/test_flat_query.py`` checks
it march by march).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import kernels
from ..geometry.balls import BallSystem
from ..pvm.machine import Machine
from .partition_tree import PartitionNode
from .query import NeighborhoodQueryStructure, QueryConfig

__all__ = [
    "MarchResult",
    "march_balls",
    "apply_candidate_pairs_batch",
    "query_correction_pairs",
]


@dataclass
class MarchResult:
    """Outcome of marching straddlers down a partition tree."""

    ball_rows: np.ndarray
    point_ids: np.ndarray
    level_active: List[int] = field(default_factory=list)
    label_tests: int = 0
    leaf_tests: int = 0
    succeeded: bool = True

    @property
    def pairs(self) -> int:
        return int(self.ball_rows.shape[0])


def march_balls(
    tree: PartitionNode,
    points: np.ndarray,
    ball_centers: np.ndarray,
    ball_radii: np.ndarray,
    *,
    active_cap: Optional[float] = None,
) -> MarchResult:
    """March balls down ``tree`` and report strict-containment pairs.

    ``ball_centers``/``ball_radii`` describe the straddling balls (rows are
    the caller's ball identifiers); ``points`` is the *global* coordinate
    array the tree's leaf indices refer to.  A ball with infinite radius
    reaches every leaf and contains every point.

    Returns a :class:`MarchResult` whose ``ball_rows[i]``/``point_ids[i]``
    are one (ball row, global point id) candidate pair.  When ``active_cap``
    is given and the number of active ball instances on some level exceeds
    it, marching stops early with ``succeeded=False`` (the caller punts to
    the query structure — Lemma 6.2's low-probability branch).
    """
    nballs = ball_centers.shape[0]
    result = MarchResult(
        ball_rows=np.empty(0, dtype=np.int64), point_ids=np.empty(0, dtype=np.int64)
    )
    if nballs == 0:
        return result
    out_rows: List[np.ndarray] = []
    out_pts: List[np.ndarray] = []
    frontier: List[Tuple[PartitionNode, np.ndarray]] = [
        (tree, np.arange(nballs, dtype=np.int64))
    ]
    while frontier:
        level_count = sum(rows.shape[0] for _, rows in frontier)
        result.level_active.append(level_count)
        if active_cap is not None and level_count > active_cap:
            result.succeeded = False
            return result
        next_frontier: List[Tuple[PartitionNode, np.ndarray]] = []
        for node, rows in frontier:
            if node.is_leaf:
                pts_ids = node.indices
                if pts_ids.shape[0] == 0 or rows.shape[0] == 0:
                    continue
                centers = ball_centers[rows]
                radii = ball_radii[rows]
                qq = points[pts_ids]
                result.leaf_tests += rows.shape[0] * pts_ids.shape[0]
                # diff-based kernel: leaves are small, and containment at
                # tiny radii must not suffer GEMM cancellation; upcast
                # before subtracting so float32 storage still compares
                # in float64 (copy=False: f64 inputs pass through)
                centers = centers.astype(np.float64, copy=False)
                qq = qq.astype(np.float64, copy=False)
                diff = centers[:, None, :] - qq[None, :, :]
                sq = np.einsum("bnd,bnd->bn", diff, diff)
                inside = sq < np.square(radii)[:, None]
                inside |= np.isinf(radii)[:, None]
                bi, pi = np.nonzero(inside)
                out_rows.append(rows[bi])
                out_pts.append(pts_ids[pi])
                continue
            sep = node.separator
            cls = sep.classify_balls(ball_centers[rows], ball_radii[rows])  # type: ignore[union-attr]
            result.label_tests += int(rows.shape[0])
            left_rows = rows[cls <= 0]
            right_rows = rows[cls >= 0]
            if left_rows.shape[0]:
                next_frontier.append((node.left, left_rows))  # type: ignore[arg-type]
            if right_rows.shape[0]:
                next_frontier.append((node.right, right_rows))  # type: ignore[arg-type]
        frontier = next_frontier
    if out_rows:
        result.ball_rows = np.concatenate(out_rows)
        result.point_ids = np.concatenate(out_pts)
    return result


def apply_candidate_pairs_batch(
    points: np.ndarray,
    nbr_idx: np.ndarray,
    nbr_sq: np.ndarray,
    owners: np.ndarray,
    cands: np.ndarray,
    k: int,
) -> int:
    """Merge global candidate pairs into the neighbor lists, in place.

    ``owners[i]`` is the global point whose list candidate ``cands[i]``
    may enter.  Each owner's current list and its candidates form one
    flat stream for :func:`repro.kernels.merge_candidate_stream`, whose
    canonical merge (dedupe by id keeping the smallest distance, order by
    (distance, id), take the k best, pad with ``-1``/``inf``) is per owner
    bitwise :func:`~repro.core.neighborhood.merge_neighbor_lists` — no
    distance is ever recomputed differently, only copied — so one call
    covers any number of owners, and the frontier engine defers every
    correction of one tree level (whose owners are disjoint across
    same-level nodes) into a single call.  Returns the number of owners
    whose lists changed.
    """
    if owners.shape[0] == 0:
        return 0
    keep = owners != cands
    owners, cands = owners[keep], cands[keep]
    if owners.shape[0] == 0:
        return 0
    diff = points[owners].astype(np.float64, copy=False) - points[cands].astype(
        np.float64, copy=False
    )
    cand_sq = np.einsum("ij,ij->i", diff, diff)
    # sort-based unique: with np.unique, the thousands of small calls one
    # online build makes left about 1 MB more resident heap behind
    srt = np.sort(owners)
    uniq_owners = srt[np.concatenate(([True], srt[1:] != srt[:-1]))]
    t = uniq_owners.shape[0]
    cur_idx = nbr_idx[uniq_owners]
    cur_sq = nbr_sq[uniq_owners]
    # one flat pool of (owner-row, candidate id, squared distance) holding
    # both the current lists and the new candidates, merged row-wise
    pool_rows = np.concatenate(
        [np.repeat(np.arange(t), k), np.searchsorted(uniq_owners, owners)]
    )
    pool_ids = np.concatenate([cur_idx.ravel(), cands])
    pool_sq = np.concatenate([cur_sq.ravel(), cand_sq])
    new_idx, new_sq = kernels.merge_candidate_stream(pool_rows, pool_ids, pool_sq, t, k)
    changed = int(
        np.count_nonzero(
            np.any(new_idx != cur_idx, axis=1) | np.any(new_sq != cur_sq, axis=1)
        )
    )
    nbr_idx[uniq_owners] = new_idx
    nbr_sq[uniq_owners] = new_sq
    return changed


def query_correction_pairs(
    straddlers: BallSystem,
    opposite_points: np.ndarray,
    opposite_ids: np.ndarray,
    machine: Machine,
    seed: object,
    config: QueryConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """The punt path: query structure over straddlers, probe opposite points.

    Returns ``(ball_rows, point_ids)`` candidate pairs with global point
    ids, shaped like :func:`march_balls` output.  Build and query costs are
    charged to ``machine`` (the O(log m)-depth fallback of the Punting
    Lemma analysis).
    """
    if len(straddlers) == 0 or opposite_points.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    with machine.span(
        "correct.query",
        straddlers=len(straddlers),
        opposite=int(opposite_points.shape[0]),
    ):
        structure = NeighborhoodQueryStructure(
            straddlers, machine=machine, seed=seed, config=config
        )
        point_rows, ball_rows = structure.query_many(opposite_points)
    return ball_rows, opposite_ids[point_rows]
