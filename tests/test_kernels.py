"""The kernel layer itself: reference-op unit tests, the FlatTree
descent layout, and the module-attribute call sites that per-op
profiling wraps.

Cross-engine and dtype equivalence lives in
``test_kernels_equivalence.py``; this file pins the pieces it is built
from.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.core.frontier as frontier
from repro import kernels
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.geometry.points import kth_smallest_per_row, pairwise_sq_dists_direct
from repro.geometry.spheres import Sphere
from repro.kernels.layout import FlatTree
from repro.pvm.primitives import segmented_split
from repro.workloads import uniform_cube


class TestReferenceOps:
    """Each reference op must equal the code it was transplanted from."""

    def test_sphere_side_matches_sphere_class(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        sphere = Sphere(center=np.full(3, 0.5), radius=0.3)
        got = kernels.sphere_side(pts, sphere.center, sphere.radius)
        np.testing.assert_array_equal(got, sphere.side_of_points(pts))
        assert got.dtype == np.int8

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sphere_offset_is_norm_bit_for_bit(self, d, dtype):
        """``norm``'s own reduction without its ``conj()`` copy: the same
        bits for any row count, against one sphere or per-row spheres."""
        rng = np.random.default_rng(d)
        for n in (0, 1, 7, 3000):
            scale = rng.choice([1e-6, 1.0, 1e6], size=(n, 1))
            diff = (rng.standard_normal((n, d)) * scale).astype(dtype)
            radii = [0.5] if dtype == np.float32 else [0.5, rng.random(n)]
            for r in radii:
                want = np.linalg.norm(diff, axis=1) - r
                got = kernels.sphere_offset(diff.copy(), r)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_ball_sides_three_way_rule(self):
        """-1 strictly inside by more than the radius, +1 strictly
        outside, 0 otherwise; ties straddle, infinite radii straddle.
        The march's reach masks are the rule's ``<= 0`` / ``>= 0``."""
        rng = np.random.default_rng(4)
        s = np.concatenate([rng.standard_normal(500), [1.0, -1.0, 0.0, np.inf, 2.0]])
        radii = np.concatenate([rng.random(500), [1.0, 1.0, 0.0, 1.0, np.inf]])
        radii[::9] = np.inf
        want = np.zeros(s.shape[0], dtype=np.int8)
        finite = np.isfinite(radii)
        want[finite & (s < -radii)] = -1
        want[finite & (s > radii)] = 1
        got = kernels.ball_sides(s, radii)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[-5:], [0, 0, 0, 1, 0])
        interior, exterior = kernels.ball_reach(s, radii)
        np.testing.assert_array_equal(interior, want <= 0)
        np.testing.assert_array_equal(exterior, want >= 0)

    def test_segmented_split_sides_matches_primitive(self):
        rng = np.random.default_rng(1)
        n = 500
        flat_ids = rng.permutation(n).astype(np.int64)
        seg_ids = np.sort(rng.integers(0, 7, size=n)).astype(np.int64)
        sides = np.where(rng.random(n) < 0.4, -1, 1).astype(np.int8)
        out, counts = kernels.segmented_split_sides(flat_ids, sides, seg_ids)
        ref_out, ref_counts = segmented_split(None, flat_ids, sides > 0, seg_ids)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(counts, ref_counts)

    def test_block_topk_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        sub = rng.random((40, 2))
        kk = 5
        idx, sq = kernels.block_topk(sub, kk)
        dists = pairwise_sq_dists_direct(sub, sub)
        np.fill_diagonal(dists, np.inf)
        ref_idx, ref_sq = kth_smallest_per_row(dists, kk)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(sq, ref_sq)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_topk_row_slices_are_the_one_block_bits(self, d):
        """A block streamed in row slices (an oversized leaf) equals the
        one-block call bit for bit, ties among duplicates included."""
        rng = np.random.default_rng(d)
        m = 97
        sub = rng.random((m, d))
        sub[rng.integers(0, m, size=60)] = sub[3]
        sub[rng.integers(0, m, size=10)] = sub[8]
        for kk in (1, 2, 5, m - 1):
            idx, sq = kernels.block_topk(sub, kk)
            for rows in (1, 10, 33, m - 1):
                got_idx, got_sq = kernels.block_topk(sub, kk, rows=rows)
                np.testing.assert_array_equal(got_idx, idx)
                np.testing.assert_array_equal(got_sq, sq)

    def test_identical_points_build_in_bounded_memory(self):
        """n = 3,000 copies of one point make one leaf (no sphere splits
        them); its base case streams rows instead of holding the 3,000 x
        3,000 x d differences (a 288 MB traced peak before)."""
        import tracemalloc

        from repro.core.online import MutableIndex

        pts = np.full((3000, 2), 0.25)
        tracemalloc.start()
        try:
            index = MutableIndex(pts, k=2, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"traced peak {peak / 1e6:.1f} MB"
        assert index.tree.is_leaf
        assert np.all(index.neighbor_sq_dists == 0.0)

    def test_brute_topk_self_excluded_and_sorted(self):
        rng = np.random.default_rng(3)
        pts = rng.random((64, 2))
        idx, sq = kernels.brute_topk(pts, 3, 32)
        assert idx.shape == (64, 3)
        for i in range(64):
            assert i not in idx[i]
        assert np.all(np.diff(sq, axis=1) >= 0)

    def test_merge_candidate_stream_dedupes_keep_min(self):
        rows = np.array([0, 0, 0, 1], dtype=np.int64)
        idx = np.array([5, 5, 7, -1], dtype=np.int64)
        sq = np.array([2.0, 1.0, 3.0, 0.0])
        out_idx, out_sq = kernels.merge_candidate_stream(rows, idx, sq, 2, 2)
        np.testing.assert_array_equal(out_idx, [[5, 7], [-1, -1]])
        np.testing.assert_array_equal(out_sq, [[1.0, 3.0], [np.inf, np.inf]])

    def test_descend_spheres_single_node(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        centers = np.array([[0.5, 0.5]])
        radii = np.array([0.56569])  # inside/outside split at the diagonal
        left = np.array([-1], dtype=np.int64)
        right = np.array([-1], dtype=np.int64)
        leaf_ord = np.array([0], dtype=np.int64)
        out = kernels.descend_spheres(pts, centers, radii, left, right, leaf_ord)
        np.testing.assert_array_equal(out, [0, 0])


class TestFlatTree:
    def _build(self, n=800, k=2, seed=11, d=2):
        pts = uniform_cube(n, d, seed=seed)
        res = parallel_nearest_neighborhood(
            pts, k, seed=seed, config=FastDnCConfig()
        )
        return pts, res

    def test_leaf_groups_match_pointer_walk(self):
        pts, res = self._build()
        flat = FlatTree.from_tree(res.tree)
        assert flat is not None
        qs = uniform_cube(300, 2, seed=99)
        # the pointer walk, one row at a time, grouped by leaf left to right
        by_leaf = {}
        for r in range(qs.shape[0]):
            by_leaf.setdefault(id(res.tree.leaf_of_point(qs[r])), []).append(r)
        walked = [
            (leaf.indices, np.asarray(by_leaf[id(leaf)]))
            for leaf in res.tree.leaves()
            if id(leaf) in by_leaf
        ]
        grouped = list(flat.leaf_groups(qs))
        assert len(walked) == len(grouped)
        for (ids_a, rows_a), (ids_b, rows_b) in zip(walked, grouped):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(rows_a, rows_b)

    def test_from_tree_covers_all_leaves(self):
        _, res = self._build(n=500)
        flat = FlatTree.from_tree(res.tree)
        got = np.sort(flat.leaf_ids)
        np.testing.assert_array_equal(got, np.arange(500))

    def test_single_leaf_tree(self):
        pts = uniform_cube(20, 2, seed=0)
        res = parallel_nearest_neighborhood(
            pts, 1, seed=0, config=FastDnCConfig(base_case_size=64)
        )
        flat = FlatTree.from_tree(res.tree)
        assert flat is not None
        ids, rows = next(iter(flat.leaf_groups(pts)))
        np.testing.assert_array_equal(np.sort(ids), np.arange(20))
        np.testing.assert_array_equal(rows, np.arange(20))

    def test_hyperplane_tree_flattens(self):
        from repro.core.simple_dnc import SimpleDnCConfig, simple_parallel_dnc

        pts = uniform_cube(300, 2, seed=3)
        res = simple_parallel_dnc(pts, 1, seed=3, config=SimpleDnCConfig())
        if res.tree.is_leaf:  # pragma: no cover - degenerate workload
            pytest.skip("tree degenerated to one leaf")
        flat = FlatTree.from_tree(res.tree)
        planes = [i for i, node in enumerate(res.tree.nodes())
                  if not node.is_leaf and not isinstance(node.separator, Sphere)]
        assert planes and flat.planes.tolist() == planes
        # every row still reaches the leaf the pointer walk reaches
        leaves = list(res.tree.leaves())
        qs = uniform_cube(200, 2, seed=4)
        ords = flat.descend(qs)
        for r in range(qs.shape[0]):
            assert leaves[ords[r]] is res.tree.leaf_of_point(qs[r])


class TestDispatchers:
    """The module attributes callers dispatch through.

    Per-op profiling (``perfbench/layers.py``) replaces these functions
    at the module attribute their callers look up.  A call site that
    binds the function at import time instead (``from repro.kernels
    import block_topk``) would bypass the wrapper and the profile would
    silently read zero."""

    KERNEL_OPS = (
        "block_topk",
        "segmented_split_sides",
        "classify_level_spheres",
        "merge_candidate_stream",
        "sphere_side",
        "descend_spheres",
    )
    SEPARATOR_OPS = ("prepare_samplers", "batched_side_of_points")

    @staticmethod
    def _counting(calls, name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def test_wrappers_at_module_attributes_are_reached(self, monkeypatch):
        calls = dict.fromkeys(self.KERNEL_OPS + self.SEPARATOR_OPS, 0)
        for owner, names in ((kernels, self.KERNEL_OPS),
                             (frontier, self.SEPARATOR_OPS)):
            for name in names:
                monkeypatch.setattr(
                    owner, name, self._counting(calls, name, getattr(owner, name))
                )

        def reached(run):
            for name in calls:
                calls[name] = 0
            run()
            return {name for name, count in calls.items() if count}

        pts = uniform_cube(3000, 2, seed=5)
        got = reached(lambda: repro.all_knn(pts, 2, engine="frontier", seed=5))
        # the correction flushes merge through merge_candidate_stream too
        assert {"segmented_split_sides", "block_topk", "classify_level_spheres",
                "merge_candidate_stream", "prepare_samplers",
                "batched_side_of_points"} <= got
        got = reached(lambda: repro.all_knn(pts, 2, engine="recursive", seed=5))
        assert "sphere_side" in got
        index = repro.build_index(pts, 2, seed=5)
        got = reached(lambda: index.query(uniform_cube(64, 2, seed=6)))
        assert {"descend_spheres", "merge_candidate_stream"} <= got

    def test_lazy_flattree_export(self):
        assert kernels.FlatTree is FlatTree
        with pytest.raises(AttributeError):
            kernels.does_not_exist
