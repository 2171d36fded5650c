"""`repro.kernels`: the numpy hot-path kernels.

The build and query hot paths — the sphere offset ``|x - c| - r`` and
the point and ball side rules every separator test applies,
sphere/hyperplane side tests, the frontier's fused classify+split,
base-case and oracle brute-force kNN, the flat candidate-stream merge,
and query descent — are the plain numpy functions of
:mod:`repro.kernels.reference`, exposed here under the same names.

Callers reach every op as ``kernels.<op>(...)``, looking it up on this
module at each call, never with ``from repro.kernels import <op>``.  The
module attribute is then the one name every call goes through, so a
wrapper installed there (a profiler's per-op timing, a test's call
counter) sees every call; a from-import would bind the function before
the wrapper exists and bypass it.  See ``docs/kernels.md``.
"""

from __future__ import annotations

from .reference import (
    ball_reach,
    ball_sides,
    block_topk,
    brute_topk,
    classify_balls_hyperplane,
    classify_balls_sphere,
    classify_level_spheres,
    descend_spheres,
    hyperplane_side,
    merge_candidate_stream,
    point_sides,
    segmented_split_sides,
    sphere_offset,
    sphere_side,
)

__all__ = [
    "FlatTree",
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


def __getattr__(name: str):
    # FlatTree lives in .layout, which imports the geometry/core modules
    # that themselves call into this package — resolve it lazily to keep
    # the import graph acyclic.
    if name == "FlatTree":
        from .layout import FlatTree

        return FlatTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
