"""Point-set utilities and distance kernels.

Everything downstream works on plain ``(n, d)`` float64 arrays; this module
centralises validation, bounding boxes, and the chunked vectorized distance
kernels that the brute-force baseline and the correction steps share.

The kernels are written per the hpc guides: no Python-level loops over
points, square distances preferred over square roots until the last step,
and chunking to keep the working set inside cache for large n.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "as_points",
    "bounding_box",
    "diameter_upper_bound",
    "pairwise_sq_dists",
    "pairwise_sq_dists_direct",
    "refine_selected_sq_dists",
    "sq_dists_to",
    "chunked_pairs",
    "kth_smallest_per_row",
]


def as_points(
    points: np.ndarray,
    *,
    min_points: int = 0,
    name: str = "points",
    dtype: Optional[np.dtype] = np.float64,
) -> np.ndarray:
    """Validate and return a float C-contiguous ``(n, d)`` point array.

    ``dtype=np.float64`` (the default) keeps the historical contract of
    always returning float64.  ``dtype=None`` *preserves* float32 input
    without a silent upcast copy (anything that is not already float32
    or float64 still lands in float64); ``dtype=np.float32`` opts into
    compact storage explicitly.

    Raises ``ValueError`` on wrong rank, non-finite coordinates, or fewer
    than ``min_points`` rows.
    """
    if dtype is None:
        have = getattr(points, "dtype", None)
        dtype = np.float32 if have == np.float32 else np.float64
    arr = np.ascontiguousarray(points, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (n, d) array, got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if arr.shape[0] < min_points:
        raise ValueError(f"{name} needs at least {min_points} points, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return arr


def bounding_box(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) corners of the axis-aligned bounding box."""
    pts = as_points(points, min_points=1)
    return pts.min(axis=0), pts.max(axis=0)


def diameter_upper_bound(points: np.ndarray) -> float:
    """Diagonal of the bounding box — a cheap upper bound on the diameter."""
    lo, hi = bounding_box(points)
    return float(np.linalg.norm(hi - lo))


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared distances between rows of ``a`` (m, d) and ``b`` (n, d).

    Uses the ``|a|^2 + |b|^2 - 2 a.b`` expansion (one GEMM instead of an
    (m, n, d) broadcast), clipped at zero against rounding noise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    out = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(out, 0.0, out=out)
    return out


def pairwise_sq_dists_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared distances between rows of ``a`` and ``b``, diff-based.

    Numerically robust where :func:`pairwise_sq_dists` suffers catastrophic
    cancellation (near-coincident points far from the origin), at the price
    of materialising an (m, n, d) intermediate — use for small blocks
    (base cases, leaf tests), not all-pairs over the full input.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def refine_selected_sq_dists(
    queries: np.ndarray, data: np.ndarray, nbr_idx: np.ndarray, nbr_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute selected neighbor distances diff-based and re-sort rows.

    ``nbr_idx``/``nbr_sq`` are (n, k) selections (indices into ``data``,
    one row per query) typically produced with the fast GEMM kernel; this
    replaces each finite entry with the exact ``|q_i - data_j|^2`` and
    restores the per-row (distance, index) order.  Padded entries
    (index -1) keep ``inf``.
    """
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(data, dtype=np.float64)
    idx = np.asarray(nbr_idx, dtype=np.int64)
    valid = idx >= 0
    safe = np.where(valid, idx, 0)
    diff = q[:, None, :] - d[safe]
    sq = np.einsum("nkd,nkd->nk", diff, diff)
    sq = np.where(valid, sq, np.inf)
    order = np.lexsort((np.where(valid, idx, np.iinfo(np.int64).max), sq), axis=-1)
    rows = np.arange(idx.shape[0])[:, None]
    return idx[rows, order], sq[rows, order]


def sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to a single point ``q``."""
    diff = np.asarray(points, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def chunked_pairs(n: int, chunk: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` row ranges covering ``range(n)`` in blocks."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def kth_smallest_per_row(sq: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """For each row, the indices and values of its k smallest entries, sorted.

    Among columns tied at the k-th value, ``argpartition`` picks which
    get in, not necessarily the lowest; its pick depends only on the
    row's content, so it is deterministic for a given row whatever other
    rows share the call.  The k selected come out in (value, column)
    order.  Returns ``(indices, values)`` of shape (rows, k).  Requires
    ``k <= sq.shape[1]``.
    """
    m, n = sq.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} columns")
    if k == n:
        part = np.argsort(sq, axis=1, kind="stable")
    else:
        part = np.argpartition(sq, k - 1, axis=1)[:, :k]
        rows = np.arange(m)[:, None]
        order = np.argsort(sq[rows, part], axis=1, kind="stable")
        part = part[rows, order]
    part = part[:, :k]
    rows = np.arange(m)[:, None]
    vals = sq[rows, part]
    # canonicalise ties within the selected k: equal values ordered by column
    order = np.lexsort((part, vals), axis=1)
    part = part[rows, order]
    vals = vals[rows, order]
    return part, vals
