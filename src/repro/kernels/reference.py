"""Pure-numpy kernels — the hot-path ops :mod:`repro.kernels` exposes.

Each op here is a verbatim transplant of the hot-loop body it replaced
(:mod:`repro.geometry.spheres`, :mod:`repro.core.neighborhood`,
:mod:`repro.core.frontier`, :mod:`repro.baselines.brute_force`,
:mod:`repro.core.partition_tree`), so routing a call site through
``repro.kernels`` produces byte-for-byte the same arrays — and the same
exact (depth, work) ledger — as before the refactor (see
``tests/test_kernels.py``).

Conventions shared by every op:

- point arrays arrive pre-validated (2-D, float32 or float64,
  C-contiguous); float32 inputs upcast **elementwise** to float64
  inside the arithmetic;
- separator parameters (centers, radii, normals, offsets) are float64;
- classification outputs are int8 with the repo-wide convention
  (+1 exterior, -1 interior, 0 intersecting);
- neighbor-selection ops return (indices, squared distances) sorted by
  (distance, id) with (-1, inf) padding.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..geometry.points import (
    chunked_pairs,
    kth_smallest_per_row,
    pairwise_sq_dists,
    refine_selected_sq_dists,
)
from ..pvm.primitives import segmented_split

__all__ = [
    "sphere_offset",
    "ball_reach",
    "ball_sides",
    "point_sides",
    "sphere_side",
    "hyperplane_side",
    "classify_balls_sphere",
    "classify_balls_hyperplane",
    "classify_level_spheres",
    "segmented_split_sides",
    "descend_spheres",
    "block_topk",
    "brute_topk",
    "merge_candidate_stream",
]


def sphere_offset(d: np.ndarray, radius) -> np.ndarray:
    """``|x - c| - r`` per row of the differences ``d = x - c``: the
    signed distance of every sphere test (negative inside, positive
    outside).

    ``np.linalg.norm(d, axis=1)``'s own arithmetic,
    ``sqrt(add.reduce(d * d, axis=1))``, without the ``d.conj()`` copy
    ``norm`` makes first, so the bits are ``norm``'s.  ``d`` is squared
    in place: callers pass the fresh ``x - c`` (float64, as separator
    centers are), so the gathers it was made from are already freed.
    ``radius`` may be one sphere's or per-row.
    """
    d *= d
    s = np.sqrt(np.add.reduce(d, axis=1))
    s -= radius
    return s


def ball_reach(s: np.ndarray, radii: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The three-way ball rule on signed separator distances ``s``, as
    the sides each ball reaches: the interior unless ``s > r``, the
    exterior unless ``s < -r``.

    Radii are non-negative or ``inf``, so every ball reaches at least
    one side, and an infinite ball reaches both sides of every
    separator.  The march follows these masks to the children.
    """
    return s <= radii, s >= -radii


def ball_sides(s: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """:func:`ball_reach` as one class per ball: -1 interior
    (``s < -r``), +1 exterior (``s > r``), 0 straddling."""
    interior, exterior = ball_reach(s, radii)
    return exterior.view(np.int8) - interior.view(np.int8)


def point_sides(s: np.ndarray) -> np.ndarray:
    """The two-way point rule on signed separator distances: +1 where
    ``s > 0``, else -1 (boundary points go interior)."""
    return np.where(s > 0.0, 1, -1).astype(np.int8)


def sphere_side(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """+1 exterior / -1 interior of a sphere, boundary interior."""
    return point_sides(sphere_offset(pts - center, radius))


def hyperplane_side(pts: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """+1 / -1 halfspace sides (a BLAS gemv)."""
    return point_sides(pts @ normal - offset)


def classify_balls_sphere(
    centers: np.ndarray, radii: np.ndarray, c: np.ndarray, r: float
) -> np.ndarray:
    """Three-way ball classification against a sphere separator."""
    return ball_sides(sphere_offset(centers - c, r), radii)


def classify_balls_hyperplane(
    centers: np.ndarray, radii: np.ndarray, normal: np.ndarray, offset: float
) -> np.ndarray:
    """Three-way ball classification against a hyperplane (gemv path)."""
    return ball_sides(centers @ normal - offset, radii)


def classify_level_spheres(
    points: np.ndarray,
    flat_ids: np.ndarray,
    rows: np.ndarray,
    centers: np.ndarray,
    sep_radii: np.ndarray,
    ball_radii: np.ndarray,
) -> np.ndarray:
    """Fused per-level ball classification for the frontier engine.

    ``flat_ids[i]`` is a point id, ``rows[i]`` selects its segment's
    separator from ``centers``/``sep_radii``; row-local arithmetic makes
    the flat pass bitwise equal to per-node classify_balls.
    """
    s = sphere_offset(points[flat_ids] - centers[rows], sep_radii[rows])
    return ball_sides(s, ball_radii)


def segmented_split_sides(
    flat_ids: np.ndarray, sides: np.ndarray, seg_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused classify+pack for the frontier divide step.

    Stable two-way partition of ``flat_ids`` within each segment by the
    sign of ``sides`` (interior ``side < 0`` first), integer-exact:
    returns ``(out, interior_counts)`` like
    :func:`repro.pvm.primitives.segmented_split` on ``sides > 0``.
    """
    return segmented_split(None, flat_ids, sides > 0, seg_ids)


def descend_spheres(
    pts: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf_ord: np.ndarray,
    planes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Group descent over a flat tree: per-row leaf ordinal.

    Arrays are the preorder layout of :class:`repro.kernels.layout.FlatTree`;
    ``left[i] < 0`` marks a leaf and ``planes[i]`` (when given) a
    hyperplane node.  Each node tests all of its surviving rows at once,
    in ascending row order, with the arithmetic of
    :meth:`~repro.geometry.spheres.Sphere.side_of_points` /
    :meth:`~repro.geometry.spheres.Hyperplane.side_of_points` (boundary
    goes interior/left) — row-local for spheres, the same gemv on the
    same row group for hyperplanes — so row ``r`` lands in exactly the
    leaf ``tree.leaf_of_point(pts[r])`` would reach.
    """
    n = pts.shape[0]
    out = np.empty(n, dtype=np.int64)
    stack = [(0, np.arange(n, dtype=np.int64))]
    while stack:
        node, rows = stack.pop()
        if left[node] < 0:
            out[rows] = leaf_ord[node]
            continue
        if planes is not None and planes[node]:
            s = pts[rows] @ centers[node] - radii[node]
        else:
            s = sphere_offset(pts[rows] - centers[node], radii[node])
        exterior = s > 0.0
        right_rows = rows[exterior]
        if right_rows.shape[0]:
            stack.append((int(right[node]), right_rows))
        left_rows = rows[~exterior]
        if left_rows.shape[0]:
            stack.append((int(left[node]), left_rows))
    return out


def block_topk(
    sub: np.ndarray, kk: int, block: Optional[int] = None, rows: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs k nearest within blocks — the DnC base-case kernel.

    ``sub`` holds consecutive blocks of ``block`` rows each (default: one
    block of all rows).  Diff-based distances (cancellation-safe), self
    excluded, selection by
    :func:`~repro.geometry.points.kth_smallest_per_row`.  Returns
    ``(local_idx, local_sq)`` of shape ``(rows, kk)``; ``local_idx`` are
    rows of ``sub``.

    Every distance and every selection row is local to its block, with
    the same content and length as a call on that block alone, so
    stacking blocks changes no bit of the result.  With ``rows``, one
    block is computed ``rows`` rows at a time against all its columns, so
    an m-point block holds ``rows x m`` distances at once instead of
    ``m x m``; each row's diffs, sums and selection are its own, so the
    bits are the one-pass result's.
    """
    m = sub.shape[0] if block is None else block
    d = sub.shape[1]
    if rows is not None and rows < sub.shape[0]:
        if m != sub.shape[0]:
            raise ValueError("rows streams a single block")
        x = np.asarray(sub, dtype=np.float64)
        out_idx = np.empty((m, kk), dtype=np.int64)
        out_sq = np.empty((m, kk))
        for lo in range(0, m, rows):
            hi = min(m, lo + rows)
            diff = x[lo:hi, None, :] - x[None, :, :]
            sq = np.einsum("mnd,mnd->mn", diff, diff)
            del diff
            sq[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # self
            out_idx[lo:hi], out_sq[lo:hi] = kth_smallest_per_row(sq, kk)
        return out_idx, out_sq
    x = np.asarray(sub, dtype=np.float64).reshape(-1, m, d)
    # per block exactly the diff and einsum of
    # repro.geometry.points.pairwise_sq_dists_direct
    diff = (x[:, :, None, :] - x[:, None, :, :]).reshape(-1, m, d)
    sq = np.einsum("mnd,mnd->mn", diff, diff)
    sq.reshape(-1, m * m)[:, :: m + 1] = np.inf  # each block's diagonal
    local_idx, local_sq = kth_smallest_per_row(sq, kk)
    local_idx += np.arange(0, sq.shape[0], m).repeat(m)[:, None]  # block starts
    return local_idx, local_sq


def brute_topk(pts: np.ndarray, k: int, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
    """Streaming all-pairs k nearest over the full input — the oracle kernel.

    Chunked GEMM distances (|a|^2+|b|^2-2ab, one GEMM per row block) with
    a final diff-based refinement of the selected entries.  Returns
    padded ``(n, k)`` arrays.
    """
    n = pts.shape[0]
    kk = min(k, max(0, n - 1))
    nbr_idx = np.full((n, k), -1, dtype=np.int64)
    nbr_sq = np.full((n, k), np.inf)
    if kk == 0:
        return nbr_idx, nbr_sq
    for lo, hi in chunked_pairs(n, chunk):
        sq = pairwise_sq_dists(pts[lo:hi], pts)
        rows = np.arange(lo, hi)
        sq[rows - lo, rows] = np.inf  # exclude self
        idx, vals = kth_smallest_per_row(sq, kk)
        nbr_idx[lo:hi, :kk] = idx
        nbr_sq[lo:hi, :kk] = vals
    # replace GEMM-form distances (cancellation-prone for near-coincident
    # points far from the origin) with exact diff-based values
    return refine_selected_sq_dists(pts, pts, nbr_idx, nbr_sq)


def merge_candidate_stream(
    rows: np.ndarray,
    idx: np.ndarray,
    sq: np.ndarray,
    n_rows: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise k-best merge of a flat candidate stream.

    The output is *canonical* — duplicates (row, id) collapsed to their
    smallest distance, survivors sorted by (distance, id), rows padded to
    k with (-1, inf) — so any correct implementation is bit-identical.
    This one is three lexsorts and a positional scatter.
    """
    out_idx = np.full((n_rows, k), -1, dtype=np.int64)
    out_sq = np.full((n_rows, k), np.inf)
    real = idx >= 0
    rows, idx, sq = rows[real], idx[real], sq[real]
    if not idx.size:
        return out_idx, out_sq
    # group by (row, id) with the smallest distance first, keep group heads
    order = np.lexsort((sq, idx, rows))
    rows, idx, sq = rows[order], idx[order], sq[order]
    keep = np.concatenate(([True], (rows[1:] != rows[:-1]) | (idx[1:] != idx[:-1])))
    rows, idx, sq = rows[keep], idx[keep], sq[keep]
    # canonical (distance, id) order within each row, then each row's k best
    order = np.lexsort((idx, sq, rows))
    rows, idx, sq = rows[order], idx[order], sq[order]
    pos = np.arange(rows.shape[0], dtype=np.int64)
    starts = np.concatenate(([True], rows[1:] != rows[:-1]))
    pos -= np.maximum.accumulate(np.where(starts, pos, 0))
    keep = pos < k
    out_idx[rows[keep], pos[keep]] = idx[keep]
    out_sq[rows[keep], pos[keep]] = sq[keep]
    return out_idx, out_sq

