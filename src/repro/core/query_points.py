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
arrays, so a served version needs no pointer tree.  A batch takes the
descent through the ``descend_spheres`` kernel and the march lockstep
over all (ball, node) instances; a small batch over a sphere-only tree
takes each row alone through Python scalars read from the same arrays
(:data:`ROW_PATH_MAX_ROWS`), which costs a few scalar operations per
node instead of several numpy calls.  Each query row sees the same side
tests and containment arithmetic as the pointer walk on either path, and
every merge is canonical, so the answers are bit-identical to it
whatever the batch composition.
"""

from __future__ import annotations

from math import inf, sqrt
from typing import List, Tuple, Union

import numpy as np

from .. import kernels
from ..geometry.points import as_points, pairwise_sq_dists_direct
from ..kernels.layout import FlatTree
from .partition_tree import PartitionNode

__all__ = [
    "knn_query", "knn_query_flat", "check_queries", "ROW_PATH_MAX_ROWS", "ROW_PATH_MAX_DIM",
]

#: Largest batch :func:`knn_query_flat` answers one row at a time.  A
#: row costs about the same alone at any batch size, while the batched
#: path's fixed numpy calls amortize over rows, so the two per-row costs
#: cross.  Where depends on how many nodes a row's march visits: at
#: n = 100k in-process, near 1,000 rows for d = 2, k = 2, near 64 rows
#: for d = 4, k = 4, and under 8 rows for d = 5, k = 8 (see
#: ``docs/serving.md``).  The bound takes the middle one.
ROW_PATH_MAX_ROWS = 64

#: Highest dimension the row path serves: up to 7 coordinates numpy's
#: ``add.reduce`` sums a row left to right, as a scalar loop does, and
#: from 8 on it sums pairwise.
ROW_PATH_MAX_DIM = 7


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

    Up to :data:`ROW_PATH_MAX_ROWS` rows over a tree with no hyperplane
    node, in at most :data:`ROW_PATH_MAX_DIM` dimensions, are answered
    one row at a time (:func:`knn_rows`); everything else in one batch
    (:func:`knn_batch`).  Both give the same bits.
    """
    if (
        qs.shape[0] <= ROW_PATH_MAX_ROWS
        and qs.shape[1] <= ROW_PATH_MAX_DIM
        and not flat.planes.shape[0]
    ):
        return knn_rows(flat, pts, qs, k)
    return knn_batch(flat, pts, qs, k)


def knn_batch(
    flat: FlatTree, pts: np.ndarray, qs: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`knn_query_flat` over the whole batch at once: grouped
    descent, one lockstep march, flat candidate-stream merges."""
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


def _scalars(a: np.ndarray) -> memoryview:
    """A flat memoryview of ``a``: Python scalars on indexing, no copy."""
    return memoryview(np.ascontiguousarray(a).reshape(-1))


def _offset(coords: List[float], centers: memoryview, radius: float, base: int) -> float:
    """``kernels.sphere_offset`` of one row against one sphere: the
    squares of ``q - c`` summed left to right, ``sqrt``, minus ``r``."""
    acc = 0.0
    for j, x in enumerate(coords):
        t = x - centers[base + j]
        acc += t * t
    return sqrt(acc) - radius


def knn_rows(
    flat: FlatTree, pts: np.ndarray, qs: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`knn_query_flat` one row at a time, for sphere-only trees
    in at most :data:`ROW_PATH_MAX_DIM` dimensions.

    Each row descends and marches through Python floats read from the
    tree's arrays, with :func:`knn_batch`'s arithmetic: the sphere
    offset summed left to right (numpy's order at these dimensions), the
    ``ball_reach`` rule, the leaf estimate's own distance and
    ``argpartition`` calls (so ties at the k-th distance keep the same
    ids), ``FlatTree._contained``'s float64 difference and strict
    ``sq < r*r`` test over the reached leaves (an infinite radius
    reaches and contains every point), and one canonical (distance, id)
    merge.  The march starts from the descent path: the ball enters
    each path node's descent child, and its other child when the ball
    straddles that node's sphere.
    """
    nq, d = qs.shape
    centers, radii = _scalars(flat.centers), _scalars(flat.radii)
    left, right = _scalars(flat.left), _scalars(flat.right)
    leaf_ord, bounds = _scalars(flat.leaf_ord), _scalars(flat.leaf_offsets)
    leaf_ids = flat.leaf_ids
    qs64 = qs.astype(np.float64, copy=False)
    out_idx: List[List[int]] = []
    out_sq: List[List[float]] = []
    for row in range(nq):
        q = qs64[row]
        coords = q.tolist()
        # descent (boundary goes interior, left), keeping the offsets
        path = []
        node = 0
        while left[node] >= 0:
            s = _offset(coords, centers, radii[node], node * d)
            path.append((node, s))
            node = right[node] if s > 0.0 else left[node]
        o = leaf_ord[node]
        home = leaf_ids[bounds[o] : bounds[o + 1]]
        # the leaf estimate, as knn_batch computes it for this row
        picked: List[int] = []
        picked_sq: List[float] = []
        if home.shape[0]:
            sq = pairwise_sq_dists_direct(qs[row : row + 1], pts[home])[0]
            ids = home
            if k < ids.shape[0]:
                sel = np.argpartition(sq[None], k - 1, axis=1)[0, :k]
                sq, ids = sq[sel], ids[sel]
            picked, picked_sq = ids.tolist(), sq.tolist()
        radius = sqrt(max(picked_sq)) if len(picked) == k else inf
        # the march: every leaf the ball B(q, radius) meets
        if radius == inf:
            cands = leaf_ids
        else:
            reached = [home]
            stack = [
                right[n] if s <= 0.0 else left[n] for n, s in path if -radius <= s <= radius
            ]
            while stack:
                node = stack.pop()
                if left[node] < 0:
                    o = leaf_ord[node]
                    reached.append(leaf_ids[bounds[o] : bounds[o + 1]])
                    continue
                s = _offset(coords, centers, radii[node], node * d)
                if s >= -radius:
                    stack.append(right[node])
                if s <= radius:
                    stack.append(left[node])
            cands = reached[0] if len(reached) == 1 else np.concatenate(reached)
        diff = q - pts[cands]
        sq = np.einsum("md,md->m", diff, diff)
        if radius < inf:
            inside = sq < radius * radius
            cands, sq = cands[inside], sq[inside]
        if cands.shape[0] > k:
            # the march's own k best by (distance, id): its ids are
            # distinct, and nothing it drops can beat them after the merge
            keep = np.lexsort((cands, sq))[:k]
            cands, sq = cands[keep], sq[keep]
        best = dict(zip(cands.tolist(), sq.tolist()))
        for i, s in zip(picked, picked_sq):
            if s < best.get(i, inf):
                best[i] = s
        top = sorted((s, i) for i, s in best.items())[:k]
        pad = k - len(top)
        out_sq.append([s for s, _ in top] + [inf] * pad)
        out_idx.append([i for _, i in top] + [-1] * pad)
    return (
        np.array(out_idx, dtype=np.int64).reshape(nq, k),
        np.array(out_sq, dtype=np.float64).reshape(nq, k),
    )
