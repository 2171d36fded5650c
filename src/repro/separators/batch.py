"""Stacked separator construction and evaluation for the frontier engine.

The frontier engine (:mod:`repro.core.frontier`) carries *all* active
subproblems of one tree level at once, so the per-node separator pipeline
runs as stacked passes over a level:

- :func:`prepare_samplers` prepares one MTTV sampler per segment as one
  row of a :class:`SamplerStack`.  Each set's sample comes from its own
  generator; the iterated-Radon centerpoints of all sets run as one
  gather and one stacked LAPACK SVD per round
  (:func:`~repro.geometry.centerpoints.iterated_radon_centerpoint_many`),
  and the conformal centering of every row is one pass.
- :meth:`SamplerStack.draw` draws one candidate per searching row: each
  row's great circle comes from its own generator, and all the circles
  are pulled back to R^d in one pass.
- :func:`batched_side_of_points` classifies the concatenation of all
  segments against their candidate separators in one vectorised pass for
  spheres (the common case), falling back to per-segment evaluation for
  hyperplane candidates, whose BLAS matrix–vector product is not
  guaranteed bit-stable under batching.
- :func:`split_is_good` applies the recursion's acceptance test to the
  interior and total counts of a precomputed side vector.

Bit identity
------------
Everything here is bit for bit the per-node path of
:class:`~repro.separators.mttv.MTTVSeparatorSampler`
(:meth:`~repro.geometry.conformal.ConformalMap.centering`,
:meth:`~repro.geometry.conformal.ConformalMap.pull_back_circle`,
:func:`~repro.geometry.stereographic.circle_to_separator`), which stays
the recursive engine's code and the tests' oracle:

- every row consumes its own generator in the per-node order, so the
  recursive and frontier engines draw identical separators from
  identical seeds;
- every branch threshold and the retry count are the per-node modules'
  own constants (``MAX_DRAW_RETRIES``, ``DEGENERATE_EPS``,
  ``CENTER_CLAMP``, ``CENTER_EPS``, ``REFLECTION_EPS``,
  ``ORTHOGONALITY_ATOL``, ``MIN_DRAW_NORM``), imported, so a row sits on
  the same side of each threshold on both paths;
- 1-D norms and dot products are stacked ``np.matmul`` calls, which make
  the same BLAS call per row as ``np.linalg.norm(x)`` / ``x @ x``, and
  the rotation is a stacked gemv like ``q.T @ a``; elementwise forms such
  as ``einsum`` or ``sqrt(x0*x0 + ...)`` differ in the last bit;
- the dilated radius is squared with Python's float ``**`` (libm
  ``pow``), as :func:`~repro.geometry.stereographic.separator_to_circle`
  does; numpy's ``x**2`` is ``x*x``, which differs;
- rows that leave the generic sphere path — a hyperplane pull-back,
  ``r² <= 0``, ``|offset| >= 1``, a non-finite value — are pulled back
  by the per-node code on the same circle, so every branch, every
  ``ValueError`` retry and the ``RuntimeError`` after the last retry are
  the per-node ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import kernels
from ..geometry.centerpoints import coordinate_median, iterated_radon_centerpoint_many
from ..geometry.conformal import (
    CENTER_CLAMP,
    CENTER_EPS,
    ORTHOGONALITY_ATOL,
    REFLECTION_EPS,
    ConformalMap,
)
from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..geometry.stereographic import DEGENERATE_EPS, SphereCap, circle_to_separator, lift
from .greatcircle import MIN_DRAW_NORM
from .mttv import MAX_DRAW_RETRIES, default_sample_size, subsample

__all__ = [
    "SamplerStack",
    "prepare_samplers",
    "batched_side_of_points",
    "split_is_good",
]

SeparatorLike = Union[Sphere, Hyperplane]


def _dots(x: np.ndarray) -> np.ndarray:
    """``x @ x`` per row: one BLAS dot per row, as the per-node code."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x)`` per row (it is ``sqrt(x @ x)``)."""
    return np.sqrt(_dots(x))


def _centering(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`ConformalMap.centering` per row, with the map's checks:
    returns ``(rotations, deltas)``."""
    m = z.shape[1]
    eye = np.eye(m)
    r = _norms(z)
    with np.errstate(all="ignore"):
        # numerical noise can push a centerpoint out of the ball: clamp
        clamp = r >= 1.0
        z = np.where(clamp[:, None], z * CENTER_CLAMP / r[:, None], z)
        r = np.where(clamp, CENTER_CLAMP, r)
        identity = r < CENTER_EPS
        # rotation_to_pole(z / r): the Householder reflection of u onto e_m
        u = z / r[:, None]
        u = u / _norms(u)[:, None]
        pole = np.zeros(m)
        pole[-1] = 1.0
        v = u - pole
        vv = _dots(v)
        rotations = eye - 2.0 * (v[:, :, None] * v[:, None, :]) / vv[:, None, None]
        deltas = np.sqrt((1.0 - r) / (1.0 + r))
    rotations[identity | (vv < REFLECTION_EPS)] = eye
    deltas[identity] = 1.0
    # ConformalMap.__post_init__, first failing row first
    qqt = np.matmul(rotations, rotations.transpose(0, 2, 1))
    orthogonal = np.isclose(qqt, eye, atol=ORTHOGONALITY_ATOL).all(axis=(1, 2))
    bad = ~orthogonal | (deltas <= 0) | ~np.isfinite(deltas)
    if bad.any():
        i = int(np.argmax(bad))
        if not orthogonal[i]:
            raise ValueError("rotation must be orthogonal")
        raise ValueError(
            f"dilation factor must be positive finite, got {float(deltas[i])}"
        )
    return rotations, deltas


def _cap(a: np.ndarray, b: np.ndarray, ok: np.ndarray):
    """``SphereCap(a, b)`` per row: ``(normal, offset)``; rows the
    constructor would reject leave ``ok``."""
    n = _norms(a)
    ok &= np.isfinite(n) & (n != 0)
    offset = b / n
    ok &= np.abs(offset) < 1.0
    return a / n[:, None], offset


def _to_sphere(normal: np.ndarray, offset: np.ndarray, ok: np.ndarray):
    """``circle_to_separator`` per row on its sphere branch:
    ``(centers, radii)``; rows that pull back to a hyperplane, an
    imaginary sphere or a non-finite sphere leave ``ok``."""
    gamma = normal[:, -1] - offset
    ok &= np.abs(gamma) > DEGENERATE_EPS
    centers = -normal[:, :-1] / gamma[:, None]
    r2 = _dots(centers) + (normal[:, -1] + offset) / gamma
    ok &= r2 > 0.0
    radii = np.sqrt(r2)
    ok &= np.isfinite(centers).all(axis=1) & np.isfinite(radii)
    return centers, radii


def _from_sphere(centers: np.ndarray, radii: np.ndarray, ok: np.ndarray):
    """``separator_to_circle`` per row of spheres, ``Sphere`` checks
    first: ``(normal, offset)`` after the cap's normalisation."""
    ok &= np.isfinite(centers).all(axis=1) & np.isfinite(radii) & (radii > 0)
    # Python's float ** (libm pow), as sep.radius**2: numpy squares by x*x
    rho2 = np.array([r**2 for r in radii.tolist()])
    cc = _dots(centers)
    a = np.empty((centers.shape[0], centers.shape[1] + 1))
    a[:, :-1] = -centers
    a[:, -1] = (1.0 + rho2 - cc) / 2.0
    b = (rho2 - cc - 1.0) / 2.0
    scale = _norms(a)
    return _cap(a / scale[:, None], b / scale, ok)


def _pull_back(a, b, rotations, deltas):
    """``circle_to_separator(ConformalMap(q, delta).pull_back_circle(
    SphereCap(a, b)))`` per row.

    Returns ``(centers, radii, ok)``: rows with ``ok`` set took the
    generic sphere path throughout and carry its exact result; the others
    must be pulled back by the per-node code.
    """
    ok = np.ones(a.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        normal, offset = _cap(a, b, ok)
        # _scale_circle: through R^d and back, unless the factor is 1
        factor = 1.0 / deltas
        scaled = np.flatnonzero(factor != 1.0)
        if scaled.size:
            f = factor[scaled]
            ok_s = ok[scaled]
            c, r = _to_sphere(normal[scaled], offset[scaled], ok_s)
            normal[scaled], offset[scaled] = _from_sphere(c * f[:, None], r * f, ok_s)
            ok[scaled] = ok_s
        # inverse rotation, then the final pull-back to R^d
        a0 = np.matmul(rotations.transpose(0, 2, 1), normal[:, :, None])[:, :, 0]
        normal, offset = _cap(a0, offset, ok)
        centers, radii = _to_sphere(normal, offset, ok)
    return centers, radii, ok


def _unit_normals(rngs: Sequence[np.random.Generator], m: int) -> np.ndarray:
    """``random_unit_vector(rng, m)`` per generator: redraw while the
    norm is at most ``MIN_DRAW_NORM``, then normalise."""
    v = np.empty((len(rngs), m))
    for row, rng in zip(v, rngs):
        rng.standard_normal(out=row)
    norms = _norms(v)
    short = np.flatnonzero(~(norms > MIN_DRAW_NORM))
    while short.size:
        for j in short:
            rngs[j].standard_normal(out=v[j])
        norms[short] = _norms(v[short])
        short = short[~(norms[short] > MIN_DRAW_NORM)]
    return v / norms[:, None]


class SamplerStack:
    """Prepared MTTV samplers in stacked arrays, one row per point set.

    Row ``i`` holds the centering map of ``center_estimates[i]`` and
    draws from ``rngs[i]`` exactly what an
    :class:`~repro.separators.mttv.MTTVSeparatorSampler` with that
    centerpoint and that generator would.
    """

    def __init__(self, center_estimates: np.ndarray, rngs) -> None:
        self.center_estimates = np.asarray(center_estimates, dtype=np.float64)
        self.rngs = list(rngs)
        self.dim = self.center_estimates.shape[1] - 1
        self.rotations, self.deltas = _centering(self.center_estimates)

    def replace(self, rows: Sequence[int], other: "SamplerStack") -> None:
        """Install ``other``'s rows (in order) at ``rows``."""
        self.center_estimates[rows] = other.center_estimates
        self.rotations[rows] = other.rotations
        self.deltas[rows] = other.deltas
        for i, rng in zip(rows, other.rngs):
            self.rngs[i] = rng

    def draw(self, rows: Sequence[int]) -> List[Optional[SeparatorLike]]:
        """One candidate separator per entry of ``rows``, as
        :meth:`MTTVSeparatorSampler.draw` draws it; ``None`` where every
        one of the ``MAX_DRAW_RETRIES`` circles degenerated (the per-node
        ``RuntimeError``)."""
        out: List[Optional[SeparatorLike]] = [None] * len(rows)
        pending = list(range(len(rows)))
        for _ in range(MAX_DRAW_RETRIES):
            if not pending:
                break
            sel = np.asarray([rows[j] for j in pending], dtype=np.int64)
            normals = _unit_normals([self.rngs[i] for i in sel], self.dim + 1)
            centers, radii, ok = _pull_back(
                normals, np.zeros(sel.shape[0]), self.rotations[sel], self.deltas[sel]
            )
            retry = []
            for pos, j in enumerate(pending):
                if ok[pos]:
                    out[j] = Sphere(centers[pos], float(radii[pos]))
                    continue
                sep = self._pull_back_one(int(sel[pos]), normals[pos])
                if sep is None:
                    retry.append(j)
                else:
                    out[j] = sep
            pending = retry
        return out

    def _pull_back_one(self, row: int, normal: np.ndarray) -> Optional[SeparatorLike]:
        """The per-node pull-back of one circle; ``None`` on the
        ``ValueError`` that makes :meth:`MTTVSeparatorSampler.draw` retry."""
        circle = SphereCap(normal, 0.0)
        cmap = ConformalMap(self.rotations[row], float(self.deltas[row]))
        try:
            return circle_to_separator(cmap.pull_back_circle(circle))
        except ValueError:
            return None


def prepare_samplers(
    point_sets: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    sample_size: Optional[int] = None,
    centerpoint: str = "radon",
) -> SamplerStack:
    """One :class:`SamplerStack` row per point set, built in stacked passes.

    Mirrors :class:`~repro.separators.unit_time.UnitTimeSeparator`
    construction (and ``refresh``): the sample size is resolved per set via
    :func:`default_sample_size` when not given, the subsample ``choice``
    and the Radon permutations come from each set's own generator in
    construction order, and each row is indistinguishable from an
    independently constructed :class:`MTTVSeparatorSampler`.
    """
    if len(point_sets) != len(rngs):
        raise ValueError("need exactly one rng per point set")
    samples = []
    for p, rng in zip(point_sets, rngs):
        pts = as_points(p, min_points=1)
        size = sample_size if sample_size is not None else default_sample_size(pts.shape[1])
        samples.append(subsample(pts, rng, size))
    # lift is row-local: one pass over every sample
    bounds = np.cumsum([s.shape[0] for s in samples])[:-1]
    lifted = np.split(lift(np.concatenate(samples)), bounds)
    del samples
    if centerpoint == "radon":
        centers = iterated_radon_centerpoint_many(lifted, list(rngs))
    elif centerpoint == "median":
        centers = [coordinate_median(sample) for sample in lifted]
    else:
        raise ValueError(f"unknown centerpoint method {centerpoint!r}")
    return SamplerStack(np.stack(centers), rngs)


def batched_side_of_points(
    separators: Sequence[SeparatorLike],
    point_sets: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """``separator.side_of_points(points)`` for many pairs, spheres batched.

    Sphere segments are concatenated and classified in one flat pass with
    per-row centers/radii gathered by segment — the signed distance
    ``|x - c| - r`` is a row-local computation, so the result is bitwise
    identical to the per-segment call.  Hyperplane candidates (the rare
    degenerate pull-backs) are evaluated per segment.
    """
    if len(separators) != len(point_sets):
        raise ValueError("need exactly one point set per separator")
    sides: List[Optional[np.ndarray]] = [None] * len(separators)
    sphere_pos = [i for i, sep in enumerate(separators) if isinstance(sep, Sphere)]
    for i, sep in enumerate(separators):
        if not isinstance(sep, Sphere):
            sides[i] = sep.side_of_points(point_sets[i])
    if sphere_pos:
        lengths = np.array([point_sets[i].shape[0] for i in sphere_pos], dtype=np.int64)
        flat = np.concatenate([point_sets[i] for i in sphere_pos], axis=0)
        centers = np.stack([separators[i].center for i in sphere_pos], axis=0)
        radii = np.array([separators[i].radius for i in sphere_pos], dtype=np.float64)
        rows = np.repeat(np.arange(len(sphere_pos)), lengths)
        side_flat = kernels.point_sides(kernels.sphere_offset(flat - centers[rows], radii[rows]))
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        for j, i in enumerate(sphere_pos):
            sides[i] = side_flat[bounds[j] : bounds[j + 1]]
    return sides  # type: ignore[return-value]


def split_is_good(interior: int, n: int, delta: float) -> bool:
    """The acceptance test of :func:`~repro.separators.quality.is_good_point_split`
    from a side vector's counts: ``interior`` of its ``n`` points fell
    inside the candidate."""
    exterior = n - interior
    if n < 2 or interior == 0 or exterior == 0:
        return False
    return max(interior, exterior) / n <= delta
