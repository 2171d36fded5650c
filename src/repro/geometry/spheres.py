"""(d-1)-spheres and hyperplanes as separators in R^d.

A :class:`Sphere` partitions a point set into interior / exterior and a
ball system into interior / exterior / intersecting (the three sets
``B_I(S)``, ``B_E(S)``, ``B_O(S)`` of the paper's Section 2.1).  The MTTV
pull-back occasionally yields a hyperplane (a great circle through the
stereographic pole); :class:`Hyperplane` implements the same classification
protocol so the divide and conquer is agnostic to which one it got.

Conventions
-----------
- "interior" of a sphere is the open ball ``|x - c| < r``; points exactly on
  the boundary are classified as interior (the paper's query descent sends
  on-sphere points left, i.e. with the interior).
- a ball ``B(p, rho)`` *intersects* the sphere iff the sphere's surface
  meets the closed ball: ``| |p - c| - r | <= rho``.  Balls with infinite
  radius intersect every separator.
- for a hyperplane ``n . x = b`` (with unit normal), "interior" is the open
  halfspace ``n . x < b``; on-plane points count as interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .. import kernels
from .points import as_points

__all__ = ["Separator", "Sphere", "Hyperplane", "SideCounts"]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _prepared(points: np.ndarray, name: str = "points") -> np.ndarray:
    """Hot-path point intake: already-valid float arrays pass untouched.

    A 2-D C-contiguous float32/float64 ndarray — what every internal
    caller holds — skips :func:`~repro.geometry.points.as_points`, whose
    per-call ``ascontiguousarray`` + ``isfinite`` sweep costs O(nd) on
    every separator test and silently upcast float32 storage to a fresh
    float64 copy.  Anything else (lists, int arrays, strided views) still
    goes through full validation.
    """
    if (
        isinstance(points, np.ndarray)
        and points.ndim == 2
        and points.dtype in _FLOAT_DTYPES
        and points.flags.c_contiguous
    ):
        return points
    return as_points(points, name=name)


@dataclass(frozen=True, slots=True)
class SideCounts:
    """Counts of a separator's three-way classification of a ball system."""

    interior: int
    exterior: int
    intersecting: int

    @property
    def total(self) -> int:
        return self.interior + self.exterior + self.intersecting


class Separator(Protocol):
    """Anything that can split points and balls three ways."""

    dim: int

    def side_of_points(self, points: np.ndarray) -> np.ndarray:
        """+1 for exterior, -1 for interior (boundary counts as interior)."""
        ...

    def classify_balls(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """-1 interior, +1 exterior, 0 intersecting, per ball."""
        ...


@dataclass(frozen=True)
class Sphere:
    """A (d-1)-sphere with ``center`` (d,) and ``radius`` > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("sphere center must be a 1-D coordinate vector")
        if not np.isfinite(c).all():
            raise ValueError("sphere center must be finite")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"sphere radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """``|x - c| - r`` per point: negative inside, positive outside."""
        pts = _prepared(points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: sphere is {self.dim}-D, points are {pts.shape[1]}-D")
        return kernels.sphere_offset(pts - self.center, self.radius)

    def side_of_points(self, points: np.ndarray) -> np.ndarray:
        """+1 exterior, -1 interior; boundary points (= 0) go interior."""
        pts = _prepared(points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: sphere is {self.dim}-D, points are {pts.shape[1]}-D")
        return kernels.sphere_side(pts, self.center, self.radius)

    def classify_balls(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Three-way ball classification: -1 interior, +1 exterior, 0 cut.

        Infinite-radius balls (produced by sub-problems smaller than k+1
        points) always classify as intersecting.
        """
        centers = _prepared(centers, name="ball centers")
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (centers.shape[0],):
            raise ValueError("radii must be a vector matching centers")
        return kernels.classify_balls_sphere(centers, radii, self.center, self.radius)

    def contains(self, point: np.ndarray) -> bool:
        """True when ``point`` is in the closed ball bounded by the sphere."""
        p = np.asarray(point, dtype=np.float64)
        return bool(np.linalg.norm(p - self.center) <= self.radius)

    def scaled(self, factor: float) -> "Sphere":
        """Concentric sphere with radius multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Sphere(self.center, self.radius * factor)


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane ``normal . x = offset`` with unit ``normal``.

    Degenerate limit of a separator sphere (radius -> inf); "interior" is
    the open halfspace on the negative side of the normal.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        n = np.asarray(self.normal, dtype=np.float64)
        if n.ndim != 1:
            raise ValueError("hyperplane normal must be a 1-D vector")
        norm = np.linalg.norm(n)
        if not np.isfinite(norm) or norm == 0:
            raise ValueError("hyperplane normal must be nonzero and finite")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """``n . x - b`` per point: negative = interior halfspace."""
        pts = _prepared(points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: plane is {self.dim}-D, points are {pts.shape[1]}-D")
        return pts @ self.normal - self.offset

    def side_of_points(self, points: np.ndarray) -> np.ndarray:
        pts = _prepared(points)
        if pts.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: plane is {self.dim}-D, points are {pts.shape[1]}-D")
        return kernels.hyperplane_side(pts, self.normal, self.offset)

    def classify_balls(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        centers = _prepared(centers, name="ball centers")
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (centers.shape[0],):
            raise ValueError("radii must be a vector matching centers")
        return kernels.classify_balls_hyperplane(centers, radii, self.normal, self.offset)
