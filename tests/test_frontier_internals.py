"""Building blocks of the frontier engine, tested against their
per-node reference implementations.

The frontier engine's equivalence contract (see
``tests/test_engine_equivalence.py``) rests on a handful of batched
kernels each being *bitwise* identical to the sequential code path it
replaces.  These tests pin that property kernel by kernel, plus the
recursion-limit guard and the iterative (deep-tree safe) partition-tree
traversals that the degenerate-workload regression relies on.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.correction import apply_candidate_pairs, apply_candidate_pairs_batch
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.core.neighborhood import merge_neighbor_lists
from repro.core.partition_tree import PartitionNode
from repro.geometry.radon import radon_point, radon_points_batch
from repro.geometry.centerpoints import (
    iterated_radon_centerpoint,
    iterated_radon_centerpoint_many,
)
from repro.geometry.spheres import Sphere
from repro.pvm import Machine
from repro.pvm.primitives import segmented_pack, segmented_reduce, segmented_split
from repro.separators.batch import (
    batched_side_of_points,
    prepare_samplers,
    side_split_is_good,
)
from repro.separators.mttv import MTTVSeparatorSampler, default_sample_size
from repro.separators.quality import default_delta, is_good_point_split
from repro.util.recursion import FRAMES_PER_LEVEL, estimated_tree_levels, recursion_guard
from repro.workloads import collinear, uniform_cube, with_duplicates


# ---------------------------------------------------------------------------
# segmented primitives vs the obvious per-segment reference
# ---------------------------------------------------------------------------


def _random_segments(rng, n_segments, max_len):
    lengths = rng.integers(0, max_len + 1, size=n_segments)
    seg_ids = np.repeat(np.arange(n_segments), lengths)
    return lengths, seg_ids


class TestSegmentedPrimitives:
    @pytest.mark.parametrize("op", ["add", "max", "min"])
    def test_segmented_reduce_matches_per_segment(self, op):
        rng = np.random.default_rng(0)
        lengths, seg_ids = _random_segments(rng, 7, 9)
        # empty segments are dropped from seg_ids; reduce over present ids
        present = np.unique(seg_ids)
        x = rng.normal(size=seg_ids.shape[0])
        got = segmented_reduce(Machine(), x, seg_ids, op=op)
        # reference: each segment reduced in isolation by the same ufunc,
        # so the batch must be insensitive to neighboring segments
        ufunc = {"add": np.add, "max": np.maximum, "min": np.minimum}[op]
        want = np.array([ufunc.reduceat(x[seg_ids == s], [0])[0] for s in present])
        np.testing.assert_array_equal(got, want)

    def test_segmented_split_stable_per_segment(self):
        rng = np.random.default_rng(1)
        lengths, seg_ids = _random_segments(rng, 9, 12)
        x = rng.integers(0, 1000, size=seg_ids.shape[0])
        flags = rng.random(size=x.shape[0]) < 0.4
        out, false_counts = segmented_split(None, x, flags, seg_ids)
        present = np.unique(seg_ids)
        assert false_counts.shape[0] == present.shape[0]
        start = 0
        for j, s in enumerate(present):
            mask = seg_ids == s
            xs, fs = x[mask], flags[mask]
            want = np.concatenate([xs[~fs], xs[fs]])
            got = out[start : start + xs.shape[0]]
            np.testing.assert_array_equal(got, want)
            assert false_counts[j] == int(np.count_nonzero(~fs))
            start += xs.shape[0]

    def test_segmented_pack_matches_per_segment(self):
        rng = np.random.default_rng(2)
        lengths, seg_ids = _random_segments(rng, 6, 10)
        x = rng.normal(size=seg_ids.shape[0])
        mask = rng.random(size=x.shape[0]) < 0.5
        packed, counts = segmented_pack(None, x, mask, seg_ids)
        np.testing.assert_array_equal(packed, x[mask])
        present = np.unique(seg_ids)
        want_counts = [int(np.count_nonzero(mask[seg_ids == s])) for s in present]
        np.testing.assert_array_equal(counts, want_counts)

    def test_machine_none_is_uncharged(self):
        m = Machine()
        x = np.arange(10.0)
        seg = np.zeros(10, dtype=np.int64)
        before = m.total
        segmented_split(None, x, x > 4, seg)
        segmented_pack(None, x, x > 4, seg)
        assert m.total.work == before.work
        segmented_split(m, x, x > 4, seg)
        assert m.total.work > before.work


# ---------------------------------------------------------------------------
# batched geometry kernels: bitwise equal to the sequential path
# ---------------------------------------------------------------------------


class TestBatchedGeometry:
    def test_radon_points_batch_matches_sequential(self):
        rng = np.random.default_rng(3)
        groups = rng.normal(size=(17, 5, 3))  # d=3 needs d+2=5 points
        got = radon_points_batch(groups)
        want = np.stack([radon_point(g) for g in groups])
        np.testing.assert_array_equal(got, want)

    def test_radon_points_batch_degenerate_group_falls_back_to_mean(self):
        rng = np.random.default_rng(4)
        groups = rng.normal(size=(3, 4, 2))
        groups[1] = 1.0  # all-identical group: no proper Radon partition
        got = radon_points_batch(groups)
        np.testing.assert_array_equal(got[1], groups[1].mean(axis=0))
        np.testing.assert_array_equal(got[0], radon_point(groups[0]))

    def test_centerpoint_many_matches_sequential(self):
        sets = [
            uniform_cube(60, 2, seed=5),
            uniform_cube(45, 3, seed=6),
            uniform_cube(23, 2, seed=7),
            np.ones((20, 3)),  # fully degenerate set
        ]
        many = iterated_radon_centerpoint_many(
            sets, [np.random.default_rng(100 + i) for i in range(len(sets))]
        )
        for i, pts in enumerate(sets):
            one = iterated_radon_centerpoint(pts, np.random.default_rng(100 + i))
            np.testing.assert_array_equal(many[i], one)

    def test_prepare_samplers_matches_direct_construction(self):
        sets = [uniform_cube(80, 2, seed=8), uniform_cube(120, 2, seed=9)]
        batched = prepare_samplers(
            sets, [np.random.default_rng(200 + i) for i in range(len(sets))]
        )
        for i, pts in enumerate(sets):
            direct = MTTVSeparatorSampler(
                pts,
                seed=np.random.default_rng(200 + i),
                sample_size=default_sample_size(pts.shape[1]),
            )
            np.testing.assert_array_equal(
                batched[i].center_estimate, direct.center_estimate
            )
            # generators are in lockstep: the next draw agrees exactly
            a, b = batched[i].draw(), direct.draw()
            np.testing.assert_array_equal(
                a.side_of_points(pts), b.side_of_points(pts)
            )

    def test_batched_side_of_points_matches_sphere_calls(self):
        rng = np.random.default_rng(10)
        sets = [rng.normal(size=(n, 2)) for n in (30, 1, 17)]
        seps = [
            Sphere(center=rng.normal(size=2), radius=float(rng.uniform(0.5, 2.0)))
            for _ in sets
        ]
        got = batched_side_of_points(seps, sets)
        for sep, pts, side in zip(seps, sets, got):
            np.testing.assert_array_equal(side, sep.side_of_points(pts))

    def test_side_split_is_good_matches_quality(self):
        rng = np.random.default_rng(11)
        delta = default_delta(2, 0.02)
        for n in (2, 3, 10, 101):
            pts = rng.normal(size=(n, 2))
            sphere = Sphere(center=pts.mean(axis=0), radius=float(np.median(
                np.linalg.norm(pts - pts.mean(axis=0), axis=1))) or 1.0)
            side = sphere.side_of_points(pts)
            assert side_split_is_good(side, delta) == is_good_point_split(
                sphere, pts, delta
            )
        assert not side_split_is_good(np.array([1], dtype=np.int8), delta)
        assert not side_split_is_good(np.array([1, 1], dtype=np.int8), delta)


# ---------------------------------------------------------------------------
# batched neighbor-list merge
# ---------------------------------------------------------------------------


class TestApplyCandidatePairsBatch:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_sequential_apply(self, k):
        rng = np.random.default_rng(12)
        n = 120
        points = rng.normal(size=(n, 2))
        # start from partially-filled lists with sentinel slots
        idx_a = np.full((n, k), -1, dtype=np.int64)
        sq_a = np.full((n, k), np.inf)
        for i in range(n):
            fill = rng.integers(0, k + 1)
            others = rng.choice(np.delete(np.arange(n), i), size=fill, replace=False)
            d = np.sum((points[others] - points[i]) ** 2, axis=1)
            order = np.argsort(d, kind="stable")
            idx_a[i, :fill] = others[order]
            sq_a[i, :fill] = d[order]
        idx_b, sq_b = idx_a.copy(), sq_a.copy()

        pairs = 400
        owners = rng.integers(0, n, size=pairs)
        cands = rng.integers(0, n, size=pairs)
        changed_seq = apply_candidate_pairs(
            points, idx_a, sq_a, np.arange(n), owners, cands, k
        )
        changed_bat = apply_candidate_pairs_batch(points, idx_b, sq_b, owners, cands, k)
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_array_equal(sq_a, sq_b)
        assert changed_seq == changed_bat

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_per_owner_merge_reference(self, k):
        """The per-owner loop over ``merge_neighbor_lists`` that
        ``apply_candidate_pairs`` used to run, kept as the reference."""
        rng = np.random.default_rng(13)
        n = 90
        points = rng.normal(size=(n, 2))
        points[10:14] = points[3]  # exact distance ties
        idx = np.full((n, k), -1, dtype=np.int64)
        sq = np.full((n, k), np.inf)
        for _ in range(3):  # successive merges start from filled lists
            owners = rng.integers(0, n, size=300)
            cands = rng.integers(0, n, size=300)
            ref_idx, ref_sq, ref_changed = idx.copy(), sq.copy(), 0
            keep = owners != cands
            for g in np.unique(owners[keep]):
                mine = keep & (owners == g)
                diff = points[g] - points[cands[mine]]
                new_idx, new_sq = merge_neighbor_lists(
                    ref_idx[g], ref_sq[g], cands[mine], np.einsum("ij,ij->i", diff, diff), k
                )
                ref_changed += not (
                    np.array_equal(new_idx, ref_idx[g]) and np.array_equal(new_sq, ref_sq[g])
                )
                ref_idx[g], ref_sq[g] = new_idx, new_sq
            changed = apply_candidate_pairs(
                points, idx, sq, np.arange(n), owners, cands, k
            )
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(sq, ref_sq)
            assert changed == ref_changed

    def test_empty_and_self_pairs(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = np.full((2, 1), -1, dtype=np.int64)
        sq = np.full((2, 1), np.inf)
        assert apply_candidate_pairs_batch(
            points, idx, sq, np.empty(0, np.int64), np.empty(0, np.int64), 1
        ) == 0
        # all self-pairs: nothing changes
        assert apply_candidate_pairs_batch(
            points, idx, sq, np.array([0, 1]), np.array([0, 1]), 1
        ) == 0
        assert np.all(idx == -1)

    def test_duplicate_candidates_keep_min_distance(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        idx = np.full((3, 1), -1, dtype=np.int64)
        sq = np.full((3, 1), np.inf)
        owners = np.array([0, 0, 0])
        cands = np.array([1, 2, 1])
        changed = apply_candidate_pairs_batch(points, idx, sq, owners, cands, 1)
        assert changed == 1
        assert idx[0, 0] == 2 and sq[0, 0] == 1.0


# ---------------------------------------------------------------------------
# recursion guard + deep-tree regression
# ---------------------------------------------------------------------------


class TestRecursionGuard:
    def test_estimated_levels_bounds(self):
        assert estimated_tree_levels(10, 64, 0.9) == 1  # already a base case
        levels = estimated_tree_levels(10_000, 8, 0.75)
        assert 1 < levels < 10_000
        # each level must strip at least one point under the trivial bound
        assert estimated_tree_levels(500, 4, 1.5) == 500
        assert estimated_tree_levels(500, 4, 0.0) == 500

    def test_guard_noop_when_limit_suffices(self):
        before = sys.getrecursionlimit()
        with recursion_guard(1):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_guard_raises_and_restores_limit(self):
        before = sys.getrecursionlimit()
        huge = (before // FRAMES_PER_LEVEL) * 50
        try:
            with recursion_guard(huge):
                assert sys.getrecursionlimit() > before
                assert sys.getrecursionlimit() >= huge * FRAMES_PER_LEVEL
            assert sys.getrecursionlimit() == before
        finally:
            sys.setrecursionlimit(before)

    def test_guard_restores_on_exception(self):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeError):
            with recursion_guard(before * 2):
                raise RuntimeError("boom")
        assert sys.getrecursionlimit() == before


def _deep_chain(depth: int) -> PartitionNode:
    """A pathological left-spine chain ``depth`` edges tall."""
    sep = Sphere(center=np.zeros(2), radius=1.0)
    node = PartitionNode(indices=np.array([depth], dtype=np.int64))
    for i in reversed(range(depth)):
        leaf = PartitionNode(indices=np.array([i], dtype=np.int64))
        node = PartitionNode(
            indices=np.arange(i, depth + 1, dtype=np.int64),
            separator=sep,
            left=node,
            right=leaf,
        )
    return node


class TestDeepTreeRegression:
    def test_traversals_survive_trees_deeper_than_the_interpreter_limit(self):
        depth = sys.getrecursionlimit() * 3
        root = _deep_chain(depth)
        assert root.height() == depth
        assert sum(1 for _ in root.leaves()) == depth + 1
        nodes = list(root.nodes())
        assert len(nodes) == 2 * depth + 1
        # preorder: root first, leftmost leaf before any right sibling leaf
        assert nodes[0] is root
        assert nodes[1] is root.left

    def test_recursive_engine_runs_under_a_tight_interpreter_limit(self):
        """Degenerate deep-tree workload: duplicates + collinear points with
        a tiny base case force an unusually deep recursion; the guard must
        raise the interpreter limit for the run and restore it after."""
        base = with_duplicates(collinear(220, 2, seed=13), 0.6, seed=13)
        before = sys.getrecursionlimit()
        from repro.util.recursion import _stack_depth

        tight = _stack_depth() + 380  # far less than the recursion needs
        sys.setrecursionlimit(tight)
        try:
            res = parallel_nearest_neighborhood(
                base, 1, seed=17,
                config=FastDnCConfig(engine="recursive", base_case_size=4),
            )
            assert res.tree.height() >= 1
            assert sys.getrecursionlimit() == tight
        finally:
            sys.setrecursionlimit(before)
