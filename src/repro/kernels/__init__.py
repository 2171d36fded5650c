"""`repro.kernels`: pluggable hot-path kernel backends.

The build and query hot paths — sphere/hyperplane side tests, the
frontier's fused classify+split, base-case and oracle brute-force kNN,
the flat candidate-stream merge, and query descent — call through the
dispatcher functions in this package.  Which implementation runs is a
process-global choice from :data:`~repro.kernels.registry.KERNEL_REGISTRY`
(``numpy`` reference or optional ``numba`` jit), selected by
``CommonConfig.kernels`` / ``--kernels`` / ``REPRO_KERNELS`` and
installed with :func:`set_backend` / :func:`use_backend`.

Every backend is bit-identical to the numpy reference on every op —
same neighbor arrays, same trees, same exact (depth, work) ledger —
so switching backends is purely a wall-clock decision.  See
``docs/kernels.md``.
"""

from __future__ import annotations

import numpy as np

from .registry import (
    KERNEL_BACKENDS,
    KERNEL_REGISTRY,
    KERNELS_ENV_VAR,
    KernelSpec,
    active_backend,
    kernel_table,
    numba_available,
    resolve_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "KernelSpec",
    "KERNEL_REGISTRY",
    "KERNEL_BACKENDS",
    "KERNELS_ENV_VAR",
    "numba_available",
    "resolve_backend",
    "set_backend",
    "active_backend",
    "use_backend",
    "kernel_table",
    "FlatTree",
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


def sphere_side(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """+1 exterior / -1 interior per point of a sphere separator."""
    return kernel_table()["sphere_side"](pts, center, radius)


def hyperplane_side(pts: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """+1 / -1 halfspace side per point of a hyperplane separator."""
    return kernel_table()["hyperplane_side"](pts, normal, offset)


def classify_balls_sphere(centers, radii, c, r) -> np.ndarray:
    """-1 interior / +1 exterior / 0 intersecting per ball vs a sphere."""
    return kernel_table()["classify_balls_sphere"](centers, radii, c, r)


def classify_balls_hyperplane(centers, radii, normal, offset) -> np.ndarray:
    """-1 / +1 / 0 per ball vs a hyperplane."""
    return kernel_table()["classify_balls_hyperplane"](centers, radii, normal, offset)


def classify_level_spheres(points, flat_ids, rows, centers, sep_radii, ball_radii):
    """Fused per-level ball classification (frontier correct sweep)."""
    return kernel_table()["classify_level_spheres"](
        points, flat_ids, rows, centers, sep_radii, ball_radii
    )


def segmented_split_sides(flat_ids, sides, seg_ids):
    """Fused classify+pack: stable per-segment split by side sign."""
    return kernel_table()["segmented_split_sides"](flat_ids, sides, seg_ids)


def descend_spheres(pts, centers, radii, left, right, leaf_ord, planes=None):
    """Flat-tree group descent: leaf ordinal per row (see FlatTree).

    ``planes`` (per-node flags, or ``None``) marks hyperplane nodes,
    whose side test is a BLAS gemv that no compiled loop reproduces, so
    a tree with any of them descends on the numpy reference in every
    backend (as :func:`hyperplane_side` does).
    """
    if planes is not None:
        from .reference import descend_spheres as reference_descend

        return reference_descend(pts, centers, radii, left, right, leaf_ord, planes)
    return kernel_table()["descend_spheres"](pts, centers, radii, left, right, leaf_ord)


def block_topk(sub, kk):
    """All-pairs k nearest within one block (the DnC base-case kernel)."""
    return kernel_table()["block_topk"](sub, kk)


def brute_topk(pts, k, chunk):
    """Chunked all-pairs k nearest over the full input (the oracle kernel)."""
    return kernel_table()["brute_topk"](pts, k, chunk)


def merge_candidate_stream(rows, idx, sq, n_rows, k):
    """Row-wise k-best merge of a flat (row, id, sq) candidate stream."""
    return kernel_table()["merge_candidate_stream"](rows, idx, sq, n_rows, k)
