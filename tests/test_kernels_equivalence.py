"""The kernel layer's bit-identity matrix across dtypes and engines.

Every (dtype x engine x workers) combination of a run produces the same
neighbors, the same tree shape, the same (depth, work) ledger, the same
per-phase sections and the same event counters as the serial engine on
the same dtype.

Also here: the dtype plumbing guarantees — float32 storage is preserved
end to end (no hidden float64 upcasts of the stored arrays, no silent
copies of already-conforming inputs).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from conftest import assert_same_run
from repro.cli import main
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.geometry.points import as_points
from repro.workloads import uniform_cube, with_duplicates


class TestBackendMatrix:
    """The serial frontier engine vs frontier-mp, per dtype."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numpy_mp_matches_serial_per_dtype(self, dtype, workers):
        pts = uniform_cube(1000, 2, seed=24)
        serial = parallel_nearest_neighborhood(
            pts, 2, seed=24,
            config=FastDnCConfig(engine="frontier", dtype=dtype),
        )
        mp = parallel_nearest_neighborhood(
            pts, 2, seed=24,
            config=FastDnCConfig(
                engine="frontier-mp", workers=workers, dtype=dtype,
            ),
        )
        assert_same_run(serial, mp)


class TestFloat32Exactness:
    def test_fast_f32_matches_brute_f32(self):
        pts = uniform_cube(800, 3, seed=25)
        fast = repro.all_knn(pts, k=3, method="fast", seed=25, dtype="float32")
        brute = repro.all_knn(pts, k=3, method="brute", dtype="float32")
        np.testing.assert_array_equal(fast.indices, brute.indices)
        np.testing.assert_array_equal(fast.sq_dists, brute.sq_dists)

    def test_f32_duplicates_workload(self):
        # duplicates create exact distance ties, where fast and brute may
        # pick different (equidistant) ids — the repo-wide contract is
        # distance equality, as in verify_system / same_distances
        pts = with_duplicates(uniform_cube(400, 2, seed=26), 0.5, seed=26)
        fast = repro.all_knn(pts, k=2, method="fast", seed=26, dtype="float32")
        brute = repro.all_knn(pts, k=2, method="brute", dtype="float32")
        np.testing.assert_array_equal(fast.sq_dists, brute.sq_dists)
        assert fast.system.same_distances(brute.system)

    def test_f32_cross_engine_identity(self):
        pts = uniform_cube(1100, 2, seed=27)
        runs = [
            repro.all_knn(pts, k=2, method="fast", seed=27,
                          engine=engine, dtype="float32")
            for engine in ("recursive", "frontier")
        ]
        assert_same_run(runs[0], runs[1])

    def test_f32_storage_is_preserved(self):
        pts = uniform_cube(300, 2, seed=28)
        res = repro.all_knn(pts, k=2, method="fast", seed=28, dtype="float32")
        assert res.system.points.dtype == np.float32
        # distances are float64 even over float32 storage
        assert res.system.neighbor_sq_dists.dtype == np.float64

    def test_build_index_rejects_f32(self):
        pts = uniform_cube(100, 2, seed=29)
        with pytest.raises(ValueError, match="float64' only"):
            repro.build_index(pts, k=2, seed=29, config=FastDnCConfig(dtype="float32"))
        with pytest.raises(TypeError):
            repro.build_index(pts, k=2, seed=29, dtype="float32")

    def test_f32_query_path(self):
        from repro.core.query_points import knn_query
        from repro.kernels.layout import FlatTree

        pts = uniform_cube(600, 2, seed=29)
        res = parallel_nearest_neighborhood(
            pts, 2, seed=29, config=FastDnCConfig(dtype="float32")
        )
        stored = res.system.points
        assert stored.dtype == np.float32
        layout = FlatTree.from_tree(res.tree)
        assert layout is not None
        qs = uniform_cube(150, 2, seed=92)
        idx, sq = knn_query(layout, stored, qs, 2)
        # a prebuilt layout and the tree flattened on the fly agree bit for bit
        idx_walk, sq_walk = knn_query(res.tree, stored, qs, 2)
        np.testing.assert_array_equal(idx, idx_walk)
        np.testing.assert_array_equal(sq, sq_walk)
        # reference: brute force against the stored float32 coordinates
        diffs = stored[None, :, :].astype(np.float64) - np.asarray(
            qs, dtype=np.float64
        )[:, None, :]
        all_sq = np.einsum("qnd,qnd->qn", diffs, diffs)
        ref_idx = np.argsort(all_sq, axis=1, kind="stable")[:, :2]
        ref_sq = np.take_along_axis(all_sq, ref_idx, axis=1)
        np.testing.assert_array_equal(sq, ref_sq)
        np.testing.assert_array_equal(idx, ref_idx)

    def test_dtype_flag_accepted_by_knn(self, capsys):
        rc = main(["knn", "-n", "300", "-k", "1", "--dtype", "float32",
                   "--check"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out


class TestDtypePreservation:
    """Satellite: no hidden float64 upcasts, no silent copies."""

    def test_as_points_preserves_f32_without_copy(self):
        arr = np.ascontiguousarray(
            np.random.default_rng(0).random((50, 2)), dtype=np.float32
        )
        out = as_points(arr, dtype=None)
        assert out.dtype == np.float32
        assert out is arr  # already conforming: no copy

    def test_as_points_f64_no_copy(self):
        arr = np.ascontiguousarray(np.random.default_rng(0).random((50, 2)))
        out = as_points(arr, dtype=None)
        assert out is arr

    def test_as_points_default_still_upcasts(self):
        arr = np.random.default_rng(0).random((50, 2)).astype(np.float32)
        out = as_points(arr)
        assert out.dtype == np.float64

    def test_int_input_becomes_f64_under_preserve(self):
        arr = np.arange(20, dtype=np.int64).reshape(10, 2)
        out = as_points(arr, dtype=None)
        assert out.dtype == np.float64

    def test_run_does_not_copy_conforming_f32(self):
        pts = np.ascontiguousarray(uniform_cube(300, 2, seed=30), np.float32)
        res = parallel_nearest_neighborhood(
            pts, 2, seed=30, config=FastDnCConfig(dtype="float32")
        )
        assert res.system.points is pts

    def test_serving_index_preserves_f32(self):
        from repro.serve import ServingIndex

        pts = uniform_cube(400, 2, seed=31)
        ix = ServingIndex.build(pts, k=2, seed=31, dtype="float32")
        assert ix.points.dtype == np.float32
        idx, sq = ix.execute("knn", uniform_cube(60, 2, seed=93))
        assert sq.dtype == np.float64
