"""Shared fixtures and run-comparison helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FastDnCConfig,
    SimpleDnCConfig,
    parallel_nearest_neighborhood,
    simple_parallel_dnc,
    tree_signature,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test generator."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def points2d(rng: np.random.Generator) -> np.ndarray:
    """300 uniform points in the unit square."""
    return rng.random((300, 2))


@pytest.fixture
def points3d(rng: np.random.Generator) -> np.ndarray:
    """300 uniform points in the unit cube."""
    return rng.random((300, 3))


def run_dnc(method: str, points, k: int, seed: int, **cfg):
    """One divide-and-conquer run; ``cfg`` sets fields of the method's config."""
    if method == "fast":
        return parallel_nearest_neighborhood(points, k, seed=seed, config=FastDnCConfig(**cfg))
    return simple_parallel_dnc(points, k, seed=seed, config=SimpleDnCConfig(**cfg))


def assert_same_run(a, b) -> None:
    """``a`` and ``b`` are the same run bit for bit: neighbor arrays,
    partition tree (:func:`~repro.core.online.tree_signature`: every
    node's ids and separator bytes), ledger, machine counters and
    per-phase sections (depth and work)."""
    np.testing.assert_array_equal(a.system.neighbor_indices, b.system.neighbor_indices)
    np.testing.assert_array_equal(a.system.neighbor_sq_dists, b.system.neighbor_sq_dists)
    assert tree_signature(a.tree) == tree_signature(b.tree)
    # the ledger matches exactly — depth AND work, no tolerance
    assert (a.cost.depth, a.cost.work) == (b.cost.depth, b.cost.work)
    assert a.machine.counters == b.machine.counters
    sa, sb = a.machine.sections, b.machine.sections
    assert {name: (c.depth, c.work) for name, c in sa.items()} == {
        name: (c.depth, c.work) for name, c in sb.items()
    }
