"""The Miller–Teng–Thurston–Vavasis random sphere separator.

Pipeline (Section 2 of the paper; full algorithm in [6, 10]):

1. **Lift** the points of R^d stereographically onto S^d in R^{d+1}.
2. **Centerpoint**: compute an approximate centerpoint of the lifted points
   (iterated Radon points; on a constant-size random sample for the
   unit-time variant).
3. **Conformal centering**: rotate the centerpoint onto the pole axis and
   apply the dilation ``sqrt((1-r)/(1+r))`` so its image is the sphere's
   center.
4. **Random great circle** through the (transformed) center — uniform.
5. **Pull back** the circle through the inverse conformal map and the
   stereographic lift to an *explicit* sphere (or, degenerately, a
   hyperplane) in R^d.

The theorem: for a k-ply neighborhood system, the result delta-splits with
``delta = (d+1)/(d+2)`` in expectation and cuts ``O(k^{1/d} n^{(d-1)/d})``
balls in expectation.  We expose the transform, the explicit pull-back, and
a sign-test classifier through the transform itself so tests can verify the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..geometry.centerpoints import coordinate_median, iterated_radon_centerpoint
from ..geometry.conformal import ConformalMap
from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..geometry.stereographic import SphereCap, circle_to_separator, lift
from ..util.rng import as_generator
from .greatcircle import random_great_circle

__all__ = [
    "MTTVSeparatorSampler",
    "mttv_separator",
    "default_sample_size",
    "subsample",
]

SeparatorLike = Union[Sphere, Hyperplane]

#: Circles :meth:`MTTVSeparatorSampler.draw` tries before it gives up.
MAX_DRAW_RETRIES = 16


def default_sample_size(d: int) -> int:
    """Constant (in n) sample size for the unit-time variant.

    Large enough that the sample centerpoint is a decent centerpoint of
    the full set with constant probability (MTTV suggest O(1); we use
    ``8 (d+2)^2`` which keeps the Radon iteration cheap in fixed d).
    """
    return 8 * (d + 2) ** 2


def subsample(
    points: np.ndarray, rng: np.random.Generator, sample_size: Optional[int]
) -> np.ndarray:
    """The rows sampler construction lifts.

    When ``sample_size`` is given and smaller than ``n``, a uniform sample
    without replacement is drawn from ``rng`` (one ``choice`` call — the
    only RNG consumption of this stage); otherwise all rows.
    """
    n = points.shape[0]
    if sample_size is not None and sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if sample_size is not None and sample_size < n:
        return points[rng.choice(n, size=sample_size, replace=False)]
    return points


@dataclass
class MTTVSeparatorSampler:
    """A prepared sampler: centerpoint and conformal map are computed once,
    then :meth:`draw` produces i.i.d. candidate separators in O(1) time.

    This mirrors the paper's usage: the recursion repeatedly re-draws
    circles from the *same* distribution until one delta-splits.

    Parameters
    ----------
    points:
        (n, d) input points (the separator only needs ball centers).
    seed:
        RNG or seed; drives sampling, centerpoint grouping and circles.
    sample_size:
        If given (and < n), the centerpoint is computed on a random sample
        of this size — the unit-time regime.  ``None`` uses all points.
    centerpoint:
        ``"radon"`` (default, the analysed algorithm) or ``"median"``
        (coordinatewise median of the lifted points; cheap heuristic).
    """

    points: np.ndarray
    seed: object = None
    sample_size: Optional[int] = None
    centerpoint: str = "radon"

    def __post_init__(self) -> None:
        pts = as_points(self.points, min_points=1)
        self.points = pts
        self.rng = as_generator(self.seed)
        self.dim = pts.shape[1]
        lifted = lift(subsample(pts, self.rng, self.sample_size))
        if self.centerpoint == "radon":
            z = iterated_radon_centerpoint(lifted, self.rng)
        elif self.centerpoint == "median":
            z = coordinate_median(lifted)
        else:
            raise ValueError(f"unknown centerpoint method {self.centerpoint!r}")
        self.center_estimate = z
        self.map = ConformalMap.centering(z)

    def draw(self, *, max_retries: int = MAX_DRAW_RETRIES) -> SeparatorLike:
        """One candidate separator: a random great circle pulled back to R^d.

        Retries (up to ``max_retries``) when the pull-back degenerates
        numerically (circle through / too close to the pole).
        """
        last_err: Exception | None = None
        for _ in range(max_retries):
            circle = random_great_circle(self.rng, self.dim + 1)
            try:
                original = self.map.pull_back_circle(circle)
                return circle_to_separator(original)
            except ValueError as err:
                last_err = err
        raise RuntimeError(f"could not draw a non-degenerate separator: {last_err}")

    def side_via_transform(self, points: np.ndarray, circle: SphereCap) -> np.ndarray:
        """Sign classification by pushing points forward through the map.

        Used by property tests to confirm the explicit pulled-back
        separator classifies points identically (up to a global flip) to
        the sign of ``normal . T(lift(p))``.
        """
        y = lift(as_points(points))
        ty = self.map.apply_to_sphere_points(y)
        return np.where(circle.side_of(ty) > 0, 1, -1).astype(np.int8)


def mttv_separator(
    points: np.ndarray,
    seed: object = None,
    *,
    sample_size: Optional[int] = None,
    centerpoint: str = "radon",
) -> SeparatorLike:
    """Convenience: build a sampler and draw a single separator."""
    return MTTVSeparatorSampler(
        points, seed=seed, sample_size=sample_size, centerpoint=centerpoint
    ).draw()
