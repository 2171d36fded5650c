"""Approximate centerpoints.

A *centerpoint* of ``n`` points in R^m is a point of Tukey depth at least
``n / (m + 1)``: every halfspace containing it contains that many points.
The MTTV separator needs a (beta-approximate) centerpoint of the lifted
points on S^d in ambient R^{d+1}; a random great circle through the image
of a centerpoint then splits the points at most ``(d+1)/(d+2)`` to a side.

Exact centerpoints are expensive; two standard approximations are provided:

- :func:`iterated_radon_centerpoint` — the Clarkson et al. scheme: repeat
  "group ``m + 2`` points, replace by their Radon point" until one point
  remains.  On a random sample of constant size this is the paper's
  unit-time building block.
- :func:`coordinate_median` — the cheap heuristic; no depth guarantee in
  adversarial position but excellent in practice, used as a fallback and in
  tests as a comparison.

:func:`tukey_depth_estimate` measures the achieved depth by probing random
directions (an upper bound on true depth that converges from above).
"""

from __future__ import annotations

import numpy as np

from .radon import radon_point, radon_points_batch

__all__ = [
    "iterated_radon_centerpoint",
    "iterated_radon_centerpoint_many",
    "coordinate_median",
    "tukey_depth_estimate",
]


def coordinate_median(points: np.ndarray) -> np.ndarray:
    """Coordinatewise median (depth >= n / 2^m only in generic position)."""
    return np.median(np.asarray(points, dtype=np.float64), axis=0)


def iterated_radon_centerpoint(
    points: np.ndarray,
    rng: np.random.Generator,
    *,
    rounds: int | None = None,
) -> np.ndarray:
    """Approximate centerpoint by iterated Radon points.

    Each round shuffles the current multiset and replaces every full group
    of ``m + 2`` points with its Radon point; leftovers pass through.  When
    fewer than ``m + 2`` points remain the mean of the survivors is
    returned.  ``rounds`` caps the number of rounds (default: run to one
    point — O(log n) rounds).

    The returned point has expected Tukey depth Omega(n / (m + 1)^2) even
    without repetition; tests check measured depth >= n/(m+2) with slack on
    the workloads we use.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be (n, m)")
    n, m = pts.shape
    if n == 0:
        raise ValueError("cannot take a centerpoint of zero points")
    group = m + 2
    if n < group:
        return pts.mean(axis=0)
    current = pts
    done_rounds = 0
    while current.shape[0] >= group and (rounds is None or done_rounds < rounds):
        k = current.shape[0]
        perm = rng.permutation(k)
        usable = (k // group) * group
        grouped = current[perm[:usable]].reshape(-1, group, m)
        replaced = np.empty((grouped.shape[0], m), dtype=np.float64)
        for i, g in enumerate(grouped):
            try:
                replaced[i] = radon_point(g)
            except np.linalg.LinAlgError:
                replaced[i] = g.mean(axis=0)
        leftovers = current[perm[usable:]]
        current = np.concatenate([replaced, leftovers], axis=0)
        done_rounds += 1
        if current.shape[0] == 1:
            break
    return current.mean(axis=0)


def iterated_radon_centerpoint_many(
    point_sets: list,
    rngs: list,
    *,
    rounds: int | None = None,
) -> list:
    """Iterated-Radon centerpoints of many point sets, each round one
    gather and one stacked LAPACK SVD over every still-active set.

    Bit-for-bit equivalent to ``[iterated_radon_centerpoint(p, rng) for
    p, rng in zip(point_sets, rngs)]``: each set draws the same
    permutations from its own generator, forms the same groups, and hits
    the same degenerate fallbacks; only the gathers and the SVD solves
    are stacked across sets (see
    :func:`repro.geometry.radon.radon_points_batch`).  This is the
    frontier engine's batched replacement for the per-node centerpoint
    loop — the hot path of separator construction.
    """
    if len(point_sets) != len(rngs):
        raise ValueError("need exactly one rng per point set")
    sets = [np.asarray(p, dtype=np.float64) for p in point_sets]
    results: list = [None] * len(sets)
    by_dim: dict = {}
    for i, pts in enumerate(sets):
        if pts.ndim != 2:
            raise ValueError("points must be (n, m)")
        n, m = pts.shape
        if n == 0:
            raise ValueError("cannot take a centerpoint of zero points")
        if n < m + 2 or (rounds is not None and rounds < 1):
            results[i] = pts.mean(axis=0)
        else:
            by_dim.setdefault(m, []).append(i)
    for members in by_dim.values():
        centers = _radon_rounds(
            [sets[i] for i in members], [rngs[i] for i in members], rounds
        )
        for i, z in zip(members, centers):
            results[i] = z
    return results


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)


def _radon_rounds(sets: list, rngs: list, rounds: int | None) -> list:
    """The Radon rounds of same-dimension sets that each hold at least
    one group.  Every set's current points sit in one flat array, set
    after set; a round gathers all groups and leftovers at once, then
    lays each set out again as its Radon points followed by its
    leftovers."""
    m = sets[0].shape[1]
    group = m + 2
    current = np.concatenate(sets)
    counts = np.array([s.shape[0] for s in sets], dtype=np.int64)
    live = np.arange(len(sets))
    results: list = [None] * len(sets)
    done_rounds = 0
    while live.size:
        perm = np.concatenate([rngs[i].permutation(c) for i, c in zip(live, counts)])
        starts = _starts(counts)
        usable = (counts // group) * group
        # per set: the first `usable` permuted rows form the groups, the
        # rest pass through
        grouped = np.arange(perm.shape[0]) < np.repeat(starts + usable, counts)
        perm += np.repeat(starts, counts)
        groups = current[perm[grouped]].reshape(-1, group, m)
        leftovers = current[perm[~grouped]]
        # the stacked SVD is the level's memory peak: free its inputs first
        del current, perm, grouped
        replaced = radon_points_batch(groups)
        del groups
        n_rep = usable // group
        n_left = counts - usable
        counts = n_rep + n_left
        new_starts = _starts(counts)
        current = np.empty((int(counts.sum()), m), dtype=np.float64)
        current[
            np.repeat(new_starts - _starts(n_rep), n_rep) + np.arange(replaced.shape[0])
        ] = replaced
        current[
            np.repeat(new_starts + n_rep - _starts(n_left), n_left)
            + np.arange(leftovers.shape[0])
        ] = leftovers
        done_rounds += 1
        finished = (counts == 1) | (counts < group)
        if rounds is not None and done_rounds >= rounds:
            finished[:] = True
        for j in np.flatnonzero(finished):
            results[live[j]] = current[new_starts[j] : new_starts[j] + counts[j]].mean(axis=0)
        keep = ~finished
        current = current[np.repeat(keep, counts)]
        counts = counts[keep]
        live = live[keep]
    return results


def tukey_depth_estimate(
    points: np.ndarray,
    z: np.ndarray,
    rng: np.random.Generator,
    *,
    directions: int = 256,
) -> int:
    """Estimated Tukey depth of ``z``: min points on one side over probes.

    Probes ``directions`` random unit vectors; the reported value is an
    *upper bound* on the true depth (more probes -> tighter).
    """
    pts = np.asarray(points, dtype=np.float64)
    zz = np.asarray(z, dtype=np.float64)
    n, m = pts.shape
    if directions < 1:
        raise ValueError("need at least one probe direction")
    dirs = rng.standard_normal((directions, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = (pts - zz) @ dirs.T  # (n, directions)
    above = (proj >= 0).sum(axis=0)
    below = (proj <= 0).sum(axis=0)
    return int(min(above.min(), below.min()))
