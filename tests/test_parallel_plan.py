"""Subtree planner: cut target, solve-cost weights and the LPT
subtree-to-worker assignment.

The assignment decides only which process solves a subtree, never what
is computed, so the multiprocess engine's bit-identity contract does not
depend on it; these tests pin determinism, coverage and balance.
"""

from __future__ import annotations

from repro.parallel.plan import (
    SUBTREE_FACTOR,
    SUBTREE_TARGET_ENV,
    plan_subtree_assignment,
    subtree_target,
    subtree_weight,
)


class TestSubtreeTarget:
    def test_scales_with_workers(self):
        assert subtree_target(1) == SUBTREE_FACTOR
        assert subtree_target(4) == 4 * SUBTREE_FACTOR
        # the 2-4x band the coarse design calls for
        assert 2 <= SUBTREE_FACTOR <= 4

    def test_floor_is_one(self):
        assert subtree_target(0) >= 1
        assert subtree_target(-3) >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(SUBTREE_TARGET_ENV, "7")
        assert subtree_target(1) == 7
        assert subtree_target(16) == 7
        monkeypatch.setenv(SUBTREE_TARGET_ENV, "0")
        assert subtree_target(4) == 1  # clamped to the minimum


class TestSubtreeWeight:
    def test_monotone_in_size(self):
        weights = [subtree_weight(m, 64) for m in (1, 64, 500, 5000, 50000)]
        assert weights == sorted(weights)
        assert all(w > 0 for w in weights)

    def test_zero_and_tiny_sizes_are_safe(self):
        # zero-point shards must not produce NaN/negative weights
        assert subtree_weight(0, 64) > 0.0
        assert subtree_weight(1, 1) > 0.0


class TestSubtreeAssignment:
    def test_empty(self):
        assert plan_subtree_assignment([], 4) == []

    def test_single_giant_subtree(self):
        assert plan_subtree_assignment([100.0], 4) == [0]

    def test_more_workers_than_subtrees(self):
        assignment = plan_subtree_assignment([5.0, 3.0], 8)
        assert len(assignment) == 2
        assert all(0 <= w < 8 for w in assignment)
        # distinct workers: no reason to stack two subtrees on one
        assert len(set(assignment)) == 2

    def test_zero_weight_subtrees_still_assigned(self):
        assignment = plan_subtree_assignment([0.0, 0.0, 0.0], 2)
        assert len(assignment) == 3
        assert all(0 <= w < 2 for w in assignment)

    def test_lpt_balances(self):
        # LPT on [5,3,3,2,1] with 2 workers: loads 7 vs 7
        assignment = plan_subtree_assignment([5.0, 3.0, 3.0, 2.0, 1.0], 2)
        loads = [0.0, 0.0]
        for value, worker in zip([5.0, 3.0, 3.0, 2.0, 1.0], assignment):
            loads[worker] += value
        assert max(loads) - min(loads) <= 1.0

    def test_deterministic(self):
        weights = [3.0, 3.0, 3.0, 1.0]
        assert plan_subtree_assignment(weights, 3) == plan_subtree_assignment(
            weights, 3
        )

    def test_single_worker(self):
        assert plan_subtree_assignment([1.0, 2.0, 3.0], 1) == [0, 0, 0]
