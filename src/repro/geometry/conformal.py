"""Conformal maps of the sphere used by the MTTV separator.

After lifting the input points to S^d and finding an approximate
centerpoint ``z`` (inside the ball), MTTV apply a conformal transformation
that moves (the image of) ``z`` to the origin, so that *any* great circle
afterwards splits the points by a constant ratio.  The transformation is a
composition of

1. an orthogonal map Q taking ``z / |z|`` to the pole axis ``e_{d+1}``
   (a Householder reflection — symmetric, involutive), and
2. a *conformal dilation* D_delta with ``delta = sqrt((1 - r)/(1 + r))``,
   ``r = |z|``: project to R^d from the pole, scale by delta, lift back.

Both maps send circles on S^d to circles on S^d, so the random great circle
chosen in transformed coordinates can be pulled back analytically to a
circle in original sphere coordinates, and from there (via
:mod:`repro.geometry.stereographic`) to an explicit sphere or hyperplane in
R^d.  Circles are transported by the sphere<->plane correspondence: a
dilation by ``delta`` on S^d corresponds in the plane to scaling an explicit
sphere's center and radius by ``delta`` (or a hyperplane's offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .spheres import Hyperplane, Sphere
from .stereographic import SphereCap, circle_to_separator, lift, project, separator_to_circle

__all__ = ["ConformalMap", "rotation_to_pole"]

#: :func:`rotation_to_pole` returns the identity when ``|u - e_m|^2`` is
#: below this (u is numerically the pole).
REFLECTION_EPS = 1e-30
#: :meth:`ConformalMap.centering` clamps a centerpoint norm of 1 or more
#: to this, and maps one below ``CENTER_EPS`` by the identity.
CENTER_CLAMP = 1.0 - 1e-9
CENTER_EPS = 1e-12
#: ``atol`` of the orthogonality check ``allclose(q @ q.T, I)``.
ORTHOGONALITY_ATOL = 1e-8


def rotation_to_pole(u: np.ndarray) -> np.ndarray:
    """Orthogonal (m, m) matrix Q with ``Q u = e_m`` for a unit vector u.

    Implemented as the Householder reflection swapping u and e_m; Q is
    symmetric and its own inverse, which keeps the inverse-transport code
    trivial.  Returns the identity when u is (numerically) the pole itself.
    """
    u = np.asarray(u, dtype=np.float64)
    m = u.shape[0]
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("cannot rotate the zero vector to the pole")
    u = u / norm
    pole = np.zeros(m)
    pole[-1] = 1.0
    v = u - pole
    vv = float(v @ v)
    if vv < REFLECTION_EPS:
        return np.eye(m)
    return np.eye(m) - 2.0 * np.outer(v, v) / vv


@dataclass(frozen=True)
class ConformalMap:
    """The MTTV centering map: rotate ``center_direction`` to the pole, then
    dilate by ``delta`` in the plane.

    Attributes
    ----------
    rotation:
        Orthogonal ``(d+2? no: d+1, d+1)`` matrix applied to lifted points.
    delta:
        Dilation factor in (0, 1]; 1 means no dilation.
    """

    rotation: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        q = np.asarray(self.rotation, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if not np.allclose(q @ q.T, np.eye(q.shape[0]), atol=ORTHOGONALITY_ATOL):
            raise ValueError("rotation must be orthogonal")
        if self.delta <= 0 or not np.isfinite(self.delta):
            raise ValueError(f"dilation factor must be positive finite, got {self.delta}")
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "delta", float(self.delta))

    @classmethod
    def centering(cls, centerpoint: np.ndarray) -> "ConformalMap":
        """Map sending (approximately) ``centerpoint`` (inside the ball,
        |z| < 1) to the sphere's center.

        Uses the MTTV recipe: rotate z to the positive pole axis, then
        dilate by ``sqrt((1 - r)/(1 + r))`` where ``r = |z|``.
        """
        z = np.asarray(centerpoint, dtype=np.float64)
        r = float(np.linalg.norm(z))
        if r >= 1.0:
            # a centerpoint of points on the sphere always lies inside, but
            # numerical noise from Radon iterations can push it out; clamp.
            z = z * CENTER_CLAMP / r
            r = CENTER_CLAMP
        if r < CENTER_EPS:
            return cls(np.eye(z.shape[0]), 1.0)
        q = rotation_to_pole(z / r)
        delta = float(np.sqrt((1.0 - r) / (1.0 + r)))
        return cls(q, delta)

    @property
    def ambient_dim(self) -> int:
        return self.rotation.shape[0]

    # -- point transport ----------------------------------------------------

    def apply_to_sphere_points(self, y: np.ndarray) -> np.ndarray:
        """Transport points on S^d: rotate, then dilate through the plane.

        Points that land (numerically) on the pole after rotation are
        nudged inward; the dilation is undefined exactly at the pole.
        """
        arr = np.asarray(y, dtype=np.float64) @ self.rotation.T
        if self.delta == 1.0:
            return arr
        # guard the pole before projecting
        last = arr[:, -1]
        bad = last >= 1.0 - 1e-12
        if bad.any():
            arr = arr.copy()
            arr[bad, -1] = 1.0 - 1e-12
            head = arr[bad, :-1]
            norms = np.linalg.norm(head, axis=1, keepdims=True)
            unit = np.where(norms > 0, head / norms, np.full_like(head, 0.0))
            if (norms == 0).any():
                unit[(norms == 0)[:, 0], 0] = 1.0
            arr[bad, :-1] = unit * np.sqrt(max(0.0, 1.0 - (1.0 - 1e-12) ** 2))
        plane = project(arr)
        return lift(self.delta * plane)

    # -- circle transport ----------------------------------------------------

    def pull_back_circle(self, circle: SphereCap) -> SphereCap:
        """Preimage (in original sphere coordinates) of a circle given in
        transformed coordinates.

        Inverse dilation is transported through the plane correspondence:
        the circle's planar preimage under the lift is scaled by
        ``1/delta``; the inverse rotation is the (symmetric) rotation
        itself applied to the circle normal.
        """
        undilated = _scale_circle(circle, 1.0 / self.delta)
        # inverse rotation: y -> Q^T y, so the circle {a.y = b} pulls back to
        # {(Q a).y = b}; Q is symmetric (Householder) but use .T for clarity.
        a0 = self.rotation.T @ undilated.normal
        return SphereCap(a0, undilated.offset)


def _scale_circle(circle: SphereCap, factor: float) -> SphereCap:
    """Transport a circle on S^d through plane-scaling by ``factor``.

    The circle is pulled down to an explicit sphere/hyperplane in R^d,
    scaled about the origin, and pushed back up.  Degenerate pull-backs
    (circle through the pole) scale as hyperplanes, which is exact.
    """
    if factor == 1.0:
        return circle
    sep = circle_to_separator(circle)
    scaled: Union[Sphere, Hyperplane]
    if isinstance(sep, Sphere):
        scaled = Sphere(sep.center * factor, sep.radius * factor)
    else:
        scaled = Hyperplane(sep.normal, sep.offset * factor)
    return separator_to_circle(scaled)
