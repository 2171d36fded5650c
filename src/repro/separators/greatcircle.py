"""Uniform random great circles on S^d.

A great circle is determined by its unit normal; sampling the normal
uniformly from S^d (a normalised Gaussian) makes the circle uniform, which
is the distribution the MTTV split-ratio and intersection-number guarantees
are proved for.
"""

from __future__ import annotations

import numpy as np

from ..geometry.stereographic import SphereCap

__all__ = ["random_great_circle", "random_unit_vector"]

#: :func:`random_unit_vector` redraws a Gaussian vector of norm at most this.
MIN_DRAW_NORM = 1e-12


def random_unit_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    """A uniform random point of the unit sphere in R^m."""
    if m < 1:
        raise ValueError("ambient dimension must be >= 1")
    while True:
        v = rng.standard_normal(m)
        norm = np.linalg.norm(v)
        if norm > MIN_DRAW_NORM:
            return v / norm


def random_great_circle(rng: np.random.Generator, ambient_dim: int) -> SphereCap:
    """A uniform random great circle of S^{ambient_dim - 1} in R^ambient_dim."""
    return SphereCap(random_unit_vector(rng, ambient_dim), 0.0)
