"""k-NN queries for *new* points against a built partition tree.

The divide and conquer's partition tree (Section 6) is not only scaffolding
for corrections — it is a search structure.  For a query point q:

1. descend to q's leaf and take the k nearest among the leaf's points
   (a first, possibly too-large, radius estimate);
2. march the ball B(q, r_k) down the tree exactly like a straddling ball
   in Fast Correction (Lemma 6.3's reachability guarantees every point
   within r_k is found);
3. merge the found candidates — the radius can only shrink, so one round
   is exact.

This turns every fast build's partition tree (``KNNResult.tree``) into
a reusable index: build once with the paper's algorithm, query forever.

Both phases run over the contiguous :class:`~repro.kernels.FlatTree`
arrays — the descent through the ``descend_spheres`` kernel, the march
lockstep over all (ball, node) instances — so a served version needs no
pointer tree.  Each query row sees the same side tests and containment
arithmetic as the pointer walk, and every merge is canonical, so the
answers are bit-identical to it whatever the batch composition.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .. import kernels
from ..geometry.points import as_points, pairwise_sq_dists_direct
from ..kernels.layout import FlatTree
from .partition_tree import PartitionNode

__all__ = ["knn_query", "knn_query_flat", "check_queries"]


def knn_query(
    tree: Union[FlatTree, PartitionNode],
    points: np.ndarray,
    queries: np.ndarray,
    k: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k nearest data points for each query row.

    Parameters
    ----------
    tree:
        The :class:`~repro.kernels.FlatTree` of a partition tree over
        ``points``, or the tree itself (e.g. ``KNNResult.tree``),
        which is flattened first.
    points:
        The (n, d) data array the tree's leaf indices refer to.
    queries:
        (q, d) query points (need not be data points).
    k:
        Neighbors per query, ``1 <= k <= n``.

    Returns
    -------
    (indices, sq_dists):
        Each (q, k), sorted ascending by (distance, index); padded with
        (-1, inf) when fewer than k data points exist.
    """
    pts = as_points(points, min_points=1, dtype=None)
    qs = check_queries(queries, pts, k)
    if qs.shape[0] == 0:
        return np.full((0, k), -1, dtype=np.int64), np.full((0, k), np.inf)
    flat = tree if isinstance(tree, FlatTree) else FlatTree.from_tree(tree)
    return knn_query_flat(flat, pts, qs, k)


def check_queries(queries: np.ndarray, pts: np.ndarray, k: int) -> np.ndarray:
    """The query-side checks of :func:`knn_query`; returns the query array.

    ``queries`` must be finite (q, d) rows of the dimension of the
    validated data array ``pts`` (only its shape is read), and
    ``1 <= k <= n``.  Raises ``ValueError`` otherwise.
    """
    qs = as_points(queries, dtype=None)
    if pts.shape[1] != qs.shape[1]:
        raise ValueError(
            f"dimension mismatch: data is {pts.shape[1]}-D, queries are {qs.shape[1]}-D"
        )
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return qs


def knn_query_flat(
    flat: FlatTree, pts: np.ndarray, qs: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`knn_query` on arrays its caller has already validated.

    ``pts``/``qs`` are finite, C-contiguous float arrays of one dimension
    and ``1 <= k <= n``.  A serving index and :class:`repro.api.Index`
    validate their data once, as it enters the index, so their queries
    check only the query rows and skip :func:`knn_query`'s O(n) sweep of
    the data array, about a third of a single-row query at n = 100k.
    """
    nq = qs.shape[0]
    out_idx = np.full((nq, k), -1, dtype=np.int64)
    out_sq = np.full((nq, k), np.inf)

    # phase 1: leaf estimates, by vectorized group descent — all queries
    # landing in one leaf share a single distance-matrix evaluation, and
    # every row's k best come out of one flat stream merge
    cand_rows, cand_ids, cand_sq = [], [], []
    for ids, rows in flat.leaf_groups(qs):
        if not ids.shape[0]:
            continue
        sq = pairwise_sq_dists_direct(qs[rows], pts[ids])
        take = min(k, ids.shape[0])
        if take < ids.shape[0]:
            sel = np.argpartition(sq, take - 1, axis=1)[:, :take]
            sq = np.take_along_axis(sq, sel, axis=1)
            picked = ids[sel]
        else:
            picked = np.broadcast_to(ids, (rows.shape[0], ids.shape[0]))
        cand_rows.append(np.repeat(rows, picked.shape[1]))
        cand_ids.append(picked.ravel())
        cand_sq.append(sq.ravel())
    if cand_rows:
        out_idx, out_sq = kernels.merge_candidate_stream(
            np.concatenate(cand_rows),
            np.concatenate(cand_ids),
            np.concatenate(cand_sq),
            nq,
            k,
        )
    radii = np.sqrt(out_sq[:, -1])  # inf when the leaf was too small

    # phase 2: march the query balls; reachability finds every point
    # within the current k-th distance, so one flat merge of the marched
    # candidates against the leaf estimates is exact
    marched = flat.march(pts, qs, radii)
    rows, cands = marched.ball_rows, marched.point_ids
    if rows.shape[0]:
        # upcast before subtracting: float32 storage still compares in
        # float64 (copy=False keeps the f64 path allocation-free)
        diff = pts[cands].astype(np.float64, copy=False) - qs[rows].astype(
            np.float64, copy=False
        )
        sq = np.einsum("md,md->m", diff, diff)
        out_idx, out_sq = kernels.merge_candidate_stream(
            np.concatenate([rows, np.repeat(np.arange(nq, dtype=np.int64), k)]),
            np.concatenate([cands, out_idx.ravel()]),
            np.concatenate([sq, out_sq.ravel()]),
            nq,
            k,
        )
    return out_idx, out_sq
