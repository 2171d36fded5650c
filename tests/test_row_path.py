"""The one-row query path of ``knn_query_flat`` against the batched one.

Up to ``ROW_PATH_MAX_ROWS`` rows over a sphere-only tree in at most
``ROW_PATH_MAX_DIM`` dimensions are answered one row at a time in Python
scalars (``knn_rows``); everything else goes through the batched numpy
path (``knn_batch``).  The two must agree bit for bit on every tree the
index can hold, and the dispatch must keep hyperplane trees and d >= 8
on the batched path.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import kernels
from repro.core import query_points
from repro.core.online import MutableIndex
from repro.core.query_points import (
    ROW_PATH_MAX_DIM,
    ROW_PATH_MAX_ROWS,
    knn_batch,
    knn_query_flat,
    knn_rows,
)
from repro.kernels.layout import FlatTree
from repro.workloads import uniform_cube


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def build(kind, pts, seed):
    """(FlatTree, stored points) of one tree kind over ``pts``."""
    if kind == "online":
        index = MutableIndex(pts, 1, seed=seed)
        return index.layout, index.points
    method = "simple" if kind == "simple" else "fast"
    dtype = "float32" if kind == "float32" else None
    res = repro.all_knn(pts, 1, method=method, engine="frontier", seed=seed, dtype=dtype)
    return res._layout(), res.system.points


def query_rows(flat, pts, rng, m):
    """Data points, points on separator spheres and uniform rows."""
    d = pts.shape[1]
    data = pts[rng.integers(0, pts.shape[0], m)].astype(np.float64)
    spheres = np.setdiff1d(np.flatnonzero(flat.left >= 0), flat.planes)
    rows = [data, rng.random((m, d))]
    if spheres.shape[0]:
        node = spheres[rng.integers(0, spheres.shape[0], m)]
        u = rng.normal(size=(m, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rows.append(flat.centers[node] + flat.radii[node][:, None] * u)
    return np.concatenate(rows)


@st.composite
def trees(draw):
    """(kind, d): every kind in d = 1-8, but ``simple`` (whose trees
    are all hyperplanes) only up to d = 4, where it builds in
    milliseconds."""
    kind = draw(st.sampled_from(["online", "frontier", "float32", "simple"]))
    return kind, draw(st.integers(1, 4 if kind == "simple" else 8))


class TestRowPathEqualsBatchPath:
    @given(
        tree=trees(),
        n=st.integers(12, 160),
        k=st.integers(1, 8),
        lattice=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_bit_identical(self, tree, n, k, lattice, seed):
        kind, d = tree
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        if lattice:  # duplicates and equidistant lattice neighbors tie
            pts = np.round(pts * 3) / 3
        flat, stored = build(kind, pts, seed)
        qs = query_rows(flat, stored, rng, 6)
        k = min(k, n)
        want = knn_batch(flat, stored, qs, k)
        assert_same_bits(knn_query_flat(flat, stored, qs, k), want)
        if d <= ROW_PATH_MAX_DIM and not flat.planes.shape[0]:
            assert_same_bits(knn_rows(flat, stored, qs, k), want)
        for row in range(0, qs.shape[0], 5):
            single = knn_query_flat(flat, stored, qs[row : row + 1], k)
            assert_same_bits(single, (want[0][row : row + 1], want[1][row : row + 1]))

    def test_k_above_the_leaf_size_gives_an_infinite_radius(self):
        pts = uniform_cube(400, 2, seed=4)
        index = MutableIndex(pts, 1, seed=4)
        flat = index.layout
        sizes = np.diff(flat.leaf_offsets)
        leaf = int(np.argmin(sizes))
        member = flat.leaf_ids[flat.leaf_offsets[leaf]]
        k = int(sizes[leaf]) + 1
        qs = index.points[member][None, :]
        assert flat.descend(qs)[0] == leaf  # the row's leaf holds fewer than k
        assert_same_bits(knn_rows(flat, index.points, qs, k),
                         knn_batch(flat, index.points, qs, k))


class TestDispatch:
    def _count(self, monkeypatch):
        calls = {"descend_spheres": 0, "merge_candidate_stream": 0, "march": 0}
        for name in ("descend_spheres", "merge_candidate_stream"):
            fn = getattr(kernels, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(kernels, name, counted)
        march = FlatTree.march

        def counted_march(self, *args, **kwargs):
            calls["march"] += 1
            return march(self, *args, **kwargs)

        monkeypatch.setattr(FlatTree, "march", counted_march)
        return calls

    def test_one_row_skips_the_batch_kernels(self, monkeypatch):
        index = repro.build_index(uniform_cube(3000, 2, seed=5), 2, seed=5)
        calls = self._count(monkeypatch)
        index.query(uniform_cube(1, 2, seed=6))
        assert calls == {"descend_spheres": 0, "merge_candidate_stream": 0, "march": 0}

    def test_batches_above_the_bound_take_the_batch_kernels(self, monkeypatch):
        index = repro.build_index(uniform_cube(3000, 2, seed=5), 2, seed=5)
        calls = self._count(monkeypatch)
        index.query(uniform_cube(ROW_PATH_MAX_ROWS + 1, 2, seed=6))
        assert calls["descend_spheres"] == 1 and calls["march"] == 1
        assert calls["merge_candidate_stream"] == 2

    def test_hyperplanes_and_high_dimensions_take_the_batch_kernels(self, monkeypatch):
        simple = repro.all_knn(uniform_cube(300, 2, seed=1), 1, method="simple",
                               engine="frontier", seed=1)
        assert simple._layout().planes.shape[0]
        wide = MutableIndex(uniform_cube(300, ROW_PATH_MAX_DIM + 1, seed=2), 1, seed=2)
        calls = self._count(monkeypatch)
        knn_query_flat(simple._layout(), simple.system.points, uniform_cube(1, 2, seed=3), 1)
        knn_query_flat(wide.layout, wide.points, uniform_cube(1, ROW_PATH_MAX_DIM + 1, seed=3), 1)
        assert calls["descend_spheres"] == 2 and calls["march"] == 2


def test_a_version_holds_no_row_path_state():
    """The row path reads the tree's own arrays: no copy rides on the
    tree, and nothing at module level keeps a superseded tree alive."""
    index = MutableIndex(uniform_cube(500, 2, seed=8), 2, seed=8)
    flat = index.layout
    before = set(vars(flat))
    module_state = dict(vars(query_points))
    knn_query_flat(flat, index.points, uniform_cube(3, 2, seed=9), 2)
    assert set(vars(flat)) == before
    assert dict(vars(query_points)) == module_state
    ref = weakref.ref(flat)
    del flat, index
    gc.collect()
    assert ref() is None
