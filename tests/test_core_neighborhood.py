"""KNeighborhoodSystem result type and the neighbor-list merge kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.baselines import brute_force_knn
from repro.core.neighborhood import KNeighborhoodSystem, merge_neighbor_lists
from repro.workloads import uniform_cube


def tiny_system() -> KNeighborhoodSystem:
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    idx = np.array([[1], [0], [0]])
    sq = np.array([[1.0], [1.0], [4.0]])
    return KNeighborhoodSystem(pts, 1, idx, sq)


class TestConstruction:
    def test_basic(self):
        s = tiny_system()
        assert len(s) == 3 and s.dim == 2 and s.k == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KNeighborhoodSystem(np.zeros((3, 2)), 2, np.zeros((3, 1), dtype=int), np.zeros((3, 2)))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            KNeighborhoodSystem(np.zeros((2, 2)), 0, np.zeros((2, 0), dtype=int), np.zeros((2, 0)))

    def test_radii(self):
        np.testing.assert_allclose(tiny_system().radii, [1.0, 1.0, 2.0])

    def test_radii_inf_on_padding(self):
        s = KNeighborhoodSystem(
            np.zeros((1, 2)), 1, np.array([[-1]]), np.array([[np.inf]])
        )
        assert np.isinf(s.radii[0])
        assert not s.is_complete()

    def test_to_ball_system(self):
        b = tiny_system().to_ball_system()
        assert len(b) == 3
        np.testing.assert_allclose(b.radii, [1, 1, 2])

    def test_validate_sorted(self):
        pts = uniform_cube(50, 2, 0)
        assert brute_force_knn(pts, 3).validate_sorted()


class TestSameDistances:
    def test_reflexive(self):
        s = tiny_system()
        assert s.same_distances(s)

    def test_detects_difference(self):
        s = tiny_system()
        other = KNeighborhoodSystem(
            s.points, 1, s.neighbor_indices, s.neighbor_sq_dists * 2
        )
        assert not s.same_distances(other)

    def test_k_mismatch(self):
        pts = uniform_cube(20, 2, 1)
        assert not brute_force_knn(pts, 1).same_distances(brute_force_knn(pts, 2))

    def test_infinite_slots_compare_equal(self):
        pts = np.zeros((2, 2))
        pts[1] = [1, 0]
        a = KNeighborhoodSystem(pts, 3, np.array([[1, -1, -1], [0, -1, -1]]),
                                np.array([[1.0, np.inf, np.inf], [1.0, np.inf, np.inf]]))
        b = KNeighborhoodSystem(pts, 3, np.array([[1, -1, -1], [0, -1, -1]]),
                                np.array([[1.0, np.inf, np.inf], [1.0, np.inf, np.inf]]))
        assert a.same_distances(b)


class TestMergeNeighborLists:
    def test_basic_merge(self):
        idx, sq = merge_neighbor_lists(
            np.array([3, 5]), np.array([1.0, 4.0]), np.array([7]), np.array([2.0]), 2
        )
        np.testing.assert_array_equal(idx, [3, 7])
        np.testing.assert_array_equal(sq, [1.0, 2.0])

    def test_duplicate_id_keeps_smaller_distance(self):
        idx, sq = merge_neighbor_lists(
            np.array([3]), np.array([5.0]), np.array([3]), np.array([2.0]), 2
        )
        np.testing.assert_array_equal(idx, [3, -1])
        np.testing.assert_array_equal(sq, [2.0, np.inf])

    def test_padding_ignored(self):
        idx, sq = merge_neighbor_lists(
            np.array([-1, -1]), np.array([np.inf, np.inf]), np.array([4]), np.array([1.0]), 2
        )
        np.testing.assert_array_equal(idx, [4, -1])

    def test_tie_broken_by_id(self):
        idx, _ = merge_neighbor_lists(
            np.array([9]), np.array([1.0]), np.array([2]), np.array([1.0]), 2
        )
        np.testing.assert_array_equal(idx, [2, 9])

    def test_empty_inputs(self):
        idx, sq = merge_neighbor_lists(np.array([]), np.array([]), np.array([]), np.array([]), 3)
        np.testing.assert_array_equal(idx, [-1, -1, -1])
        assert np.isinf(sq).all()

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.floats(0, 100, allow_nan=False)), max_size=15),
        st.lists(st.tuples(st.integers(0, 30), st.floats(0, 100, allow_nan=False)), max_size=15),
        st.integers(1, 8),
    )
    def test_matches_reference_implementation(self, a, b, k):
        ia = np.array([t[0] for t in a], dtype=np.int64)
        sa = np.array([t[1] for t in a])
        ib = np.array([t[0] for t in b], dtype=np.int64)
        sb = np.array([t[1] for t in b])
        idx, sq = merge_neighbor_lists(ia, sa, ib, sb, k)
        # reference: best distance per id, sorted by (distance, id), top k
        best: dict[int, float] = {}
        for i, s in list(zip(ia, sa)) + list(zip(ib, sb)):
            best[int(i)] = min(best.get(int(i), np.inf), float(s))
        ranked = sorted(best.items(), key=lambda t: (t[1], t[0]))[:k]
        exp_idx = [i for i, _ in ranked] + [-1] * (k - len(ranked))
        exp_sq = [s for _, s in ranked] + [np.inf] * (k - len(ranked))
        np.testing.assert_array_equal(idx, exp_idx)
        np.testing.assert_allclose(sq, exp_sq)

    def test_output_sorted_and_padded(self):
        idx, sq = merge_neighbor_lists(
            np.array([5, 1]), np.array([9.0, 3.0]), np.array([8]), np.array([6.0]), 5
        )
        np.testing.assert_array_equal(idx, [1, 8, 5, -1, -1])
        assert (np.diff(sq[:3]) >= 0).all()


class TestMergeNeighborListsMany:
    """The flat-stream batch merge (``kernels.merge_candidate_stream``) vs
    per-row scalar merges."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-1, 30),
                      st.floats(0, 100, allow_nan=False)),
            max_size=40,
        ),
        st.integers(1, 6),
    )
    def test_matches_scalar_merge_per_row(self, stream, k):
        rows = np.array([t[0] for t in stream], dtype=np.int64)
        ids = np.array([t[1] for t in stream], dtype=np.int64)
        sq = np.array([t[2] for t in stream])
        got_idx, got_sq = kernels.merge_candidate_stream(rows, ids, sq, 6, k)
        empty_i, empty_f = np.empty(0, dtype=np.int64), np.empty(0)
        for r in range(6):
            m = rows == r
            exp_idx, exp_sq = merge_neighbor_lists(ids[m], sq[m], empty_i, empty_f, k)
            np.testing.assert_array_equal(got_idx[r], exp_idx)
            np.testing.assert_array_equal(got_sq[r], exp_sq)

    def test_empty_stream_is_all_padding(self):
        idx, sq = kernels.merge_candidate_stream(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0), 3, 2
        )
        np.testing.assert_array_equal(idx, np.full((3, 2), -1))
        assert np.isinf(sq).all()
