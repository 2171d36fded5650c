"""Stereographic projection between R^d and the unit sphere S^d in R^{d+1}.

The MTTV separator algorithm works on the sphere: points are lifted, a
centerpoint is computed, a conformal map centres it, and a random great
circle is chosen.  This module provides the lift/projection pair plus the
exact correspondence between circles on S^d and spheres/hyperplanes in R^d,
which is what lets us return an *explicit* separator object instead of an
opaque sign test.

Maps (north pole N = e_{d+1} = (0, ..., 0, 1)):

- ``lift(p) = (2p, |p|^2 - 1) / (|p|^2 + 1)`` sends R^d onto S^d minus N;
- ``project(y) = y_{1..d} / (1 - y_{d+1})`` is its inverse.

A circle on S^d is the slice ``{y in S^d : a . y = b}`` with unit normal
``a`` and offset ``|b| < 1``.  Substituting the lift gives, for
``gamma = a_{d+1} - b``::

    gamma |p|^2 + 2 a_{1..d} . p - (a_{d+1} + b) = 0

- ``gamma != 0``  ->  sphere, center ``-a_{1..d}/gamma``,
  radius^2 = |center|^2 + (a_{d+1} + b)/gamma;
- ``gamma == 0``  ->  hyperplane ``a_{1..d} . p = (a_{d+1} + b)/2``
  (the circle passes through the pole).

Both directions of that correspondence are implemented and property-tested
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .spheres import Hyperplane, Sphere

__all__ = ["lift", "project", "SphereCap", "circle_to_separator", "separator_to_circle"]

_POLE_EPS = 1e-12

#: :func:`circle_to_separator`'s default ``degenerate_eps``: a circle with
#: ``|a_{d+1} - b|`` at most this pulls back to a hyperplane.
DEGENERATE_EPS = 1e-9


def lift(points: np.ndarray) -> np.ndarray:
    """Lift ``(n, d)`` points of R^d onto S^d as ``(n, d+1)`` unit vectors."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        return lift(pts[None, :])[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    denom = sq + 1.0
    out = np.empty((pts.shape[0], pts.shape[1] + 1), dtype=np.float64)
    out[:, :-1] = 2.0 * pts / denom[:, None]
    out[:, -1] = (sq - 1.0) / denom
    return out


def project(y: np.ndarray) -> np.ndarray:
    """Project ``(n, d+1)`` points of S^d (minus the pole) back to R^d."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1:
        return project(arr[None, :])[0]
    last = arr[:, -1]
    if np.any(last >= 1.0 - _POLE_EPS):
        raise ValueError("cannot project points at (or numerically at) the north pole")
    return arr[:, :-1] / (1.0 - last)[:, None]


@dataclass(frozen=True)
class SphereCap:
    """A circle on S^d: ``{y : normal . y = offset}`` with unit ``normal``.

    ``offset == 0`` is a great circle.  The name reflects that the circle
    bounds a spherical cap; classification of sphere points is by the sign
    of ``normal . y - offset``.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        a = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(a)
        if not np.isfinite(norm) or norm == 0:
            raise ValueError("circle normal must be nonzero and finite")
        object.__setattr__(self, "normal", a / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)
        if abs(self.offset) >= 1.0:
            raise ValueError(f"circle offset must satisfy |b| < 1, got {self.offset}")

    @property
    def ambient_dim(self) -> int:
        return self.normal.shape[0]

    def side_of(self, y: np.ndarray) -> np.ndarray:
        """Sign of ``normal . y - offset`` per row of ``y``."""
        arr = np.asarray(y, dtype=np.float64)
        return np.sign(arr @ self.normal - self.offset)


def circle_to_separator(
    circle: SphereCap, *, degenerate_eps: float = DEGENERATE_EPS
) -> Union[Sphere, Hyperplane]:
    """Pull a circle on S^d back to its preimage in R^d under the lift.

    Returns a :class:`Sphere` generically, or a :class:`Hyperplane` when the
    circle passes (numerically) through the pole.  Raises ``ValueError`` if
    the computed radius is not positive (a circle "around the pole" whose
    preimage is the complement of a ball — callers resample in that case).
    The convention is aligned so that the sphere's *interior* corresponds to
    ``normal . y < offset`` on the sphere.
    """
    a = circle.normal
    b = circle.offset
    gamma = a[-1] - b
    if abs(gamma) <= degenerate_eps:
        head = a[:-1]
        if np.linalg.norm(head) <= degenerate_eps:
            raise ValueError("degenerate circle: normal parallel to pole axis with b ~ a_{d+1}")
        return Hyperplane(head, (a[-1] + b) / 2.0)
    center = -a[:-1] / gamma
    r2 = float(center @ center + (a[-1] + b) / gamma)
    if r2 <= 0.0:
        raise ValueError(f"circle pulls back to an imaginary sphere (r^2 = {r2:g})")
    return Sphere(center, float(np.sqrt(r2)))


def separator_to_circle(sep: Union[Sphere, Hyperplane]) -> SphereCap:
    """Push a sphere/hyperplane of R^d up to its circle on S^d.

    Inverse of :func:`circle_to_separator` (up to normalisation); property
    tests check the round trip.
    """
    if isinstance(sep, Sphere):
        c = sep.center
        rho2 = sep.radius**2
        head = -c
        a_last = (1.0 + rho2 - float(c @ c)) / 2.0
        b = (rho2 - float(c @ c) - 1.0) / 2.0
        a = np.concatenate([head, [a_last]])
        scale = np.linalg.norm(a)
        return SphereCap(a / scale, b / scale)
    if isinstance(sep, Hyperplane):
        n = sep.normal
        o = sep.offset
        a = np.concatenate([n, [o]])
        scale = np.linalg.norm(a)
        return SphereCap(a / scale, o / scale)
    raise TypeError(f"unsupported separator type {type(sep).__name__}")
