"""The definition-level audit of k-neighborhood systems."""

from __future__ import annotations

import pytest

from repro.baselines import brute_force_knn
from repro.core import parallel_nearest_neighborhood, simple_parallel_dnc
from repro.core.verify import verify_system
from repro.core.neighborhood import KNeighborhoodSystem
from repro.workloads import clustered, uniform_cube, with_duplicates


class TestVerifyPasses:
    @pytest.mark.parametrize("k", [1, 3])
    def test_brute_force_output_passes(self, k):
        pts = uniform_cube(400, 2, k)
        report = verify_system(brute_force_knn(pts, k))
        assert report.ok
        assert "OK" in report.summary()

    def test_fast_dnc_output_passes(self):
        pts = clustered(500, 3, 2)
        res = parallel_nearest_neighborhood(pts, 2, seed=1)
        assert verify_system(res.system)

    def test_simple_dnc_output_passes(self):
        pts = uniform_cube(400, 2, 3)
        res = simple_parallel_dnc(pts, 2, seed=2)
        assert verify_system(res.system)

    def test_duplicates_pass(self):
        pts = with_duplicates(uniform_cube(200, 2, 4), 0.4, 5)
        assert verify_system(brute_force_knn(pts, 1))

    def test_padded_lists_pass(self):
        # 3 points, k=5: lists padded, maximality exempted
        pts = uniform_cube(3, 2, 6)
        assert verify_system(brute_force_knn(pts, 5))

    def test_chunking_irrelevant(self):
        pts = uniform_cube(300, 2, 7)
        sys1 = brute_force_knn(pts, 2)
        assert verify_system(sys1, chunk=17).ok == verify_system(sys1, chunk=1000).ok


class TestVerifyCatchesCorruption:
    def _base(self):
        pts = uniform_cube(100, 2, 8)
        return pts, brute_force_knn(pts, 2)

    def test_inflated_radius_flagged(self):
        pts, good = self._base()
        bad = KNeighborhoodSystem(
            pts, 2, good.neighbor_indices, good.neighbor_sq_dists * 4.0
        )
        report = verify_system(bad)
        assert report.invalid_radius or report.bad_lists
        assert not report.ok
        assert "FAILED" in report.summary()

    def test_shrunk_radius_flagged_not_maximal(self):
        pts, good = self._base()
        bad = KNeighborhoodSystem(
            pts, 2, good.neighbor_indices, good.neighbor_sq_dists * 0.25
        )
        report = verify_system(bad)
        assert report.not_maximal or report.bad_lists

    def test_wrong_neighbor_ids_flagged(self):
        pts, good = self._base()
        idx = good.neighbor_indices.copy()
        idx[0] = (idx[0] + 1) % 100
        bad = KNeighborhoodSystem(pts, 2, idx, good.neighbor_sq_dists)
        assert verify_system(bad).bad_lists
