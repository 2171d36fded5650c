"""Partition-tree invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fast_dnc import parallel_nearest_neighborhood
from repro.core.partition_tree import PartitionNode
from repro.geometry.spheres import Sphere
from repro.kernels.layout import FlatTree
from repro.workloads import uniform_cube


def manual_tree() -> PartitionNode:
    left = PartitionNode(indices=np.array([0, 1]))
    right = PartitionNode(indices=np.array([2, 3]))
    sep = Sphere(np.array([0.0, 0.0]), 1.0)
    return PartitionNode(indices=np.array([0, 1, 2, 3]), separator=sep, left=left, right=right)


class TestConstruction:
    def test_leaf(self):
        leaf = PartitionNode(indices=np.array([5, 6]))
        assert leaf.is_leaf and leaf.size == 2 and leaf.height() == 0

    def test_internal(self):
        t = manual_tree()
        assert not t.is_leaf and t.height() == 1

    def test_separator_without_children_rejected(self):
        with pytest.raises(ValueError):
            PartitionNode(indices=np.array([0]), separator=Sphere(np.zeros(2), 1.0))

    def test_children_without_separator_rejected(self):
        with pytest.raises(ValueError):
            PartitionNode(
                indices=np.array([0, 1]),
                left=PartitionNode(indices=np.array([0])),
                right=PartitionNode(indices=np.array([1])),
            )


class TestTraversal:
    def test_leaves_left_to_right(self):
        t = manual_tree()
        leaves = list(t.leaves())
        assert [leaf.indices.tolist() for leaf in leaves] == [[0, 1], [2, 3]]

    def test_nodes_preorder(self):
        t = manual_tree()
        sizes = [n.size for n in t.nodes()]
        assert sizes == [4, 2, 2]

    def test_check_partition_valid(self):
        assert manual_tree().check_partition()

    def test_check_partition_detects_violation(self):
        t = manual_tree()
        t.left.indices = np.array([0, 9])
        assert not t.check_partition()


class TestRealTreeInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        pts = uniform_cube(600, 2, 99)
        return parallel_nearest_neighborhood(pts, 1, seed=5), pts

    def test_partition_invariant(self, result):
        res, _ = result
        assert res.tree.check_partition()

    def test_root_covers_everything(self, result):
        res, pts = result
        assert res.tree.size == pts.shape[0]
        np.testing.assert_array_equal(np.sort(res.tree.indices), np.arange(600))

    def test_leaf_of_point_contains_it(self, result):
        res, pts = result
        for i in range(0, 600, 71):
            leaf = res.tree.leaf_of_point(pts[i])
            assert i in leaf.indices.tolist()

    def test_height_reasonable(self, result):
        res, _ = result
        # 600 points with base-case 64 and delta <= 0.8 -> a handful of levels
        assert 2 <= res.tree.height() <= 20

    def test_internal_nodes_have_meta(self, result):
        res, _ = result
        for node in res.tree.nodes():
            if not node.is_leaf:
                assert "punted" in node.meta and "iota" in node.meta


class TestLeavesOfPoints:
    """Vectorized group descent (over the flat tree) vs the scalar
    leaf_of_point reference."""

    @pytest.fixture(scope="class")
    def result(self):
        pts = uniform_cube(600, 2, 99)
        res = parallel_nearest_neighborhood(pts, 1, seed=5)
        return res, pts, FlatTree.from_tree(res.tree)

    def test_matches_leaf_of_point_and_partitions_rows(self, result):
        res, pts, flat = result
        queries = np.concatenate([pts[::7], pts[:20] + 1e-4])
        seen = []
        for ids, rows in flat.leaf_groups(queries):
            assert rows.shape[0] > 0
            seen.extend(rows.tolist())
            for r in rows:
                assert np.array_equal(res.tree.leaf_of_point(queries[r]).indices, ids)
        assert sorted(seen) == list(range(queries.shape[0]))

    def test_leaves_arrive_left_to_right(self, result):
        res, pts, flat = result
        order = {int(leaf.indices[0]): i for i, leaf in enumerate(res.tree.leaves())}
        visited = [order[int(ids[0])] for ids, _ in flat.leaf_groups(pts[::11])]
        assert visited == sorted(visited)

    def test_empty_and_single_point(self, result):
        res, pts, flat = result
        assert list(flat.leaf_groups(pts[:0])) == []
        ((ids, rows),) = flat.leaf_groups(pts[:1])
        assert rows.tolist() == [0]
        assert np.array_equal(res.tree.leaf_of_point(pts[0]).indices, ids)
