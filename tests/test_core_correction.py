"""Correction machinery: marching reachability, merges, punt equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.correction import apply_candidate_pairs_batch, march_balls, query_correction_pairs
from repro.core.fast_dnc import parallel_nearest_neighborhood
from repro.core.query import QueryConfig
from repro.geometry.balls import BallSystem
from repro.pvm.machine import Machine
from repro.workloads import uniform_cube


@pytest.fixture(scope="module")
def tree_and_points():
    pts = uniform_cube(800, 2, 50)
    res = parallel_nearest_neighborhood(pts, 1, seed=3)
    return res.tree, pts


class TestMarchBalls:
    def test_finds_every_contained_point(self, tree_and_points):
        """Reachability (Lemma 6.3): every point strictly inside a marched
        ball appears among its candidate pairs."""
        tree, pts = tree_and_points
        rng = np.random.default_rng(4)
        centers = rng.random((25, 2))
        radii = rng.random(25) * 0.2 + 0.02
        result = march_balls(tree, pts, centers, radii)
        assert result.succeeded
        got = {(int(b), int(p)) for b, p in zip(result.ball_rows, result.point_ids)}
        diff = pts[None, :, :] - centers[:, None, :]
        sq = np.einsum("bnd,bnd->bn", diff, diff)
        inside = sq < np.square(radii)[:, None]
        want = {(b, p) for b, p in zip(*np.nonzero(inside))}
        assert want <= got  # all true containments found
        # and nothing wildly spurious: every reported pair is a containment
        assert got == want

    def test_inf_radius_ball_reaches_all_points(self, tree_and_points):
        tree, pts = tree_and_points
        result = march_balls(tree, pts, np.array([[0.5, 0.5]]), np.array([np.inf]))
        assert result.succeeded
        assert set(result.point_ids.tolist()) == set(range(pts.shape[0]))

    def test_empty_ball_set(self, tree_and_points):
        tree, pts = tree_and_points
        result = march_balls(tree, pts, np.zeros((0, 2)), np.zeros(0))
        assert result.pairs == 0 and result.succeeded

    def test_level_active_starts_at_ball_count(self, tree_and_points):
        tree, pts = tree_and_points
        centers = np.random.default_rng(5).random((10, 2))
        result = march_balls(tree, pts, centers, np.full(10, 0.05))
        assert result.level_active[0] == 10

    def test_active_cap_aborts(self, tree_and_points):
        tree, pts = tree_and_points
        centers = np.random.default_rng(6).random((40, 2))
        result = march_balls(tree, pts, centers, np.full(40, 0.5), active_cap=5)
        assert not result.succeeded

    def test_tiny_balls_do_not_duplicate_much(self, tree_and_points):
        """Small balls rarely straddle separators: actives stay ~ constant."""
        tree, pts = tree_and_points
        centers = np.random.default_rng(7).random((20, 2))
        result = march_balls(tree, pts, centers, np.full(20, 1e-4))
        assert max(result.level_active) <= 20 * 3

    def test_label_and_leaf_tests_counted(self, tree_and_points):
        tree, pts = tree_and_points
        centers = np.random.default_rng(8).random((5, 2))
        result = march_balls(tree, pts, centers, np.full(5, 0.1))
        assert result.label_tests > 0
        assert result.leaf_tests > 0


class TestApplyCandidatePairs:
    def test_basic_update(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.5, 0.0]])
        nbr_idx = np.array([[1], [0], [0]])
        nbr_sq = np.array([[100.0], [100.0], [0.25]])
        owners = np.array([0])
        changed = apply_candidate_pairs_batch(
            pts, nbr_idx, nbr_sq, owners, np.array([2]), k=1
        )
        assert changed == 1
        assert nbr_idx[0, 0] == 2
        assert nbr_sq[0, 0] == pytest.approx(0.25)

    def test_self_pairs_ignored(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        nbr_idx = np.array([[1], [0]])
        nbr_sq = np.array([[1.0], [1.0]])
        changed = apply_candidate_pairs_batch(
            pts, nbr_idx, nbr_sq, np.array([0]), np.array([0]), k=1
        )
        assert changed == 0

    def test_no_pairs_no_change(self):
        pts = np.zeros((2, 2))
        nbr_idx = np.array([[1], [0]])
        nbr_sq = np.zeros((2, 1))
        assert (
            apply_candidate_pairs_batch(
                pts, nbr_idx, nbr_sq, np.empty(0, int), np.empty(0, int), 1
            )
            == 0
        )

    def test_worse_candidates_do_not_degrade(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        nbr_idx = np.array([[1], [0], [1]])
        nbr_sq = np.array([[1.0], [1.0], [16.0]])
        changed = apply_candidate_pairs_batch(
            pts, nbr_idx, nbr_sq, np.array([0]), np.array([2]), k=1
        )
        assert changed == 0
        assert nbr_idx[0, 0] == 1

    def test_multiple_candidates_one_owner(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        nbr_idx = np.array([[1], [2], [3], [2]])
        nbr_sq = np.array([[9.0], [1.0], [1.0], [1.0]])
        apply_candidate_pairs_batch(
            pts, nbr_idx, nbr_sq, np.array([0, 0]), np.array([2, 3]), k=1
        )
        assert nbr_idx[0, 0] == 3
        assert nbr_sq[0, 0] == pytest.approx(1.0)


class TestQueryCorrectionEquivalence:
    def test_same_pairs_as_marching(self, tree_and_points):
        """The punt path and the fast path produce the same candidate set."""
        tree, pts = tree_and_points
        rng = np.random.default_rng(9)
        centers = rng.random((15, 2))
        radii = rng.random(15) * 0.15 + 0.02
        march = march_balls(tree, pts, centers, radii)
        system = BallSystem(centers, radii)
        all_ids = np.arange(pts.shape[0], dtype=np.int64)
        rows, ids = query_correction_pairs(
            system, pts, all_ids, Machine(), 11, QueryConfig()
        )
        got = {(int(b), int(p)) for b, p in zip(rows, ids)}
        want = {(int(b), int(p)) for b, p in zip(march.ball_rows, march.point_ids)}
        assert got == want

    def test_empty_inputs(self):
        system = BallSystem(np.zeros((0, 2)), np.zeros(0))
        rows, ids = query_correction_pairs(
            system, np.zeros((0, 2)), np.zeros(0, dtype=int), Machine(), 0, QueryConfig()
        )
        assert rows.size == 0 and ids.size == 0

    def test_machine_charged_when_supplied(self, tree_and_points):
        _, pts = tree_and_points
        centers = np.random.default_rng(10).random((60, 2))
        system = BallSystem(centers, np.full(60, 0.05))
        m = Machine()
        query_correction_pairs(
            system, pts, np.arange(pts.shape[0]), m, 12, QueryConfig()
        )
        assert m.total.depth > 0 and m.total.work > 0
