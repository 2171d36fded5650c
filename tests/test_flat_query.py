"""The flat query path: FlatTree.march and knn_query over FlatTree only.

Differential checks against the pointer tree: the lockstep march must
report the same (ball row, point id) multiset as ``march_balls``, and
knn answers must equal a pointer-walk oracle (scalar ``leaf_of_point``
descent plus ``march_balls``) bit for bit, whatever the batch
composition, storage dtype or separator kind.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import kernels
from repro.core.correction import march_balls
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.core.partition_tree import PartitionNode
from repro.core.query_points import knn_query
from repro.geometry.points import pairwise_sq_dists_direct
from repro.geometry.spheres import Hyperplane, Sphere
from repro.kernels.layout import FlatTree
from repro.serve import ServingIndex
from repro.workloads import uniform_cube


def random_tree(pts, ids, rng, leaf=6, p_plane=0.4):
    """A partition tree with random sphere *and* hyperplane separators.

    Every node splits its ids by ``side_of_points`` (boundary interior),
    so each point's leaf is where descent routes it — the invariant the
    march's reachability argument needs.
    """
    if ids.shape[0] <= leaf:
        return PartitionNode(indices=ids)
    sub = pts[ids].astype(np.float64)
    for _ in range(20):
        if rng.random() < p_plane:
            normal = rng.normal(size=pts.shape[1])
            normal /= np.linalg.norm(normal)
            sep = Hyperplane(normal, float(np.median(sub @ normal)))
        else:
            center = sub[rng.integers(sub.shape[0])] + rng.normal(
                scale=0.1, size=pts.shape[1]
            )
            radius = float(np.median(np.linalg.norm(sub - center, axis=1)))
            if radius <= 0:
                continue
            sep = Sphere(center, radius)
        side = sep.side_of_points(pts[ids])
        inner = int(np.count_nonzero(side < 0))
        if 0 < inner < ids.shape[0]:
            return PartitionNode(
                indices=ids,
                separator=sep,
                left=random_tree(pts, ids[side < 0], rng, leaf, p_plane),
                right=random_tree(pts, ids[side >= 0], rng, leaf, p_plane),
            )
    return PartitionNode(indices=ids)


def sorted_pairs(rows, ids):
    order = np.lexsort((ids, rows))
    return np.stack([rows[order], ids[order]])


def flat_pairs(flat, pts, centers, radii):
    """The sorted pairs of one uncapped ``FlatTree.march`` from the root."""
    got = flat.march(pts, centers, radii)
    return sorted_pairs(got.ball_rows, got.point_ids)


def pointer_knn(tree, pts, qs, k):
    """knn over the pointer tree: scalar descent, then ``march_balls``."""
    nq = qs.shape[0]
    rows, ids, sq = [], [], []
    for r in range(nq):
        leaf = tree.leaf_of_point(qs[r]).indices
        rows.append(np.full(leaf.shape[0], r, dtype=np.int64))
        ids.append(leaf)
        sq.append(pairwise_sq_dists_direct(qs[r : r + 1], pts[leaf])[0])
    idx, dist = kernels.merge_candidate_stream(
        np.concatenate(rows), np.concatenate(ids), np.concatenate(sq), nq, k
    )
    res = march_balls(tree, pts, qs, np.sqrt(dist[:, -1]))
    diff = pts[res.point_ids].astype(np.float64) - qs[res.ball_rows].astype(np.float64)
    return kernels.merge_candidate_stream(
        np.concatenate([res.ball_rows, np.repeat(np.arange(nq), k)]),
        np.concatenate([res.point_ids, idx.ravel()]),
        np.concatenate([np.einsum("md,md->m", diff, diff), dist.ravel()]),
        nq,
        k,
    )


def mixed_case(d, dtype, seed, n=300):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)).astype(dtype)
    pts[50:60] = pts[0]  # duplicate points
    tree = random_tree(pts, np.arange(n, dtype=np.int64), rng)
    return rng, pts, tree


class TestMarchDifferential:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pairs_as_march_balls(self, d, dtype, seed):
        rng, pts, tree = mixed_case(d, dtype, seed)
        flat = FlatTree.from_tree(tree)
        assert flat.planes.shape[0] > 0  # hyperplane nodes are exercised
        qs = np.concatenate([rng.random((80, d)), pts[:20]]).astype(dtype)
        radii = rng.random(qs.shape[0]) * 0.3
        radii[::7] = np.inf
        radii[::11] = 0.0
        ref = march_balls(tree, pts, qs, radii)
        np.testing.assert_array_equal(
            sorted_pairs(ref.ball_rows, ref.point_ids), flat_pairs(flat, pts, qs, radii)
        )

    def test_queries_on_a_separator_sphere(self):
        pts = uniform_cube(400, 2, seed=5)
        res = parallel_nearest_neighborhood(pts, 2, seed=6)
        sep = res.tree.separator
        assert isinstance(sep, Sphere)
        angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        on = sep.center + sep.radius * np.stack([np.cos(angles), np.sin(angles)], 1)
        radii = np.concatenate([np.zeros(32), np.full(32, 0.05)])
        ref = march_balls(res.tree, pts, on, radii)
        flat = FlatTree.from_tree(res.tree)
        np.testing.assert_array_equal(
            sorted_pairs(ref.ball_rows, ref.point_ids),
            flat_pairs(flat, pts, on, radii),
        )
        for r in range(on.shape[0]):
            leaf = res.tree.leaf_of_point(on[r])
            assert list(res.tree.leaves())[flat.descend(on[r : r + 1])[0]] is leaf
        # exactly on the unit circle (and on a data point there): the
        # boundary goes interior, and a zero-radius ball meets both sides
        exact = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        data = np.concatenate([exact, uniform_cube(60, 2, seed=7) * 4 - 2])
        side = Sphere(np.zeros(2), 1.0).side_of_points(data)
        ids = np.arange(data.shape[0], dtype=np.int64)
        tree = PartitionNode(
            indices=ids,
            separator=Sphere(np.zeros(2), 1.0),
            left=PartitionNode(indices=ids[side < 0]),
            right=PartitionNode(indices=ids[side >= 0]),
        )
        assert side[:4].tolist() == [-1, -1, -1, -1]
        flat = FlatTree.from_tree(tree)
        np.testing.assert_array_equal(flat.descend(exact), [0, 0, 0, 0])
        for radius in (0.0, 0.5, np.inf):
            radii = np.full(4, radius)
            ref = march_balls(tree, data, exact, radii)
            np.testing.assert_array_equal(
                sorted_pairs(ref.ball_rows, ref.point_ids),
                flat_pairs(flat, data, exact, radii),
            )
        idx, sq = knn_query(flat, data, exact, 3)
        ref_idx, ref_sq = pointer_knn(tree, data, exact, 3)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(sq, ref_sq)
        assert idx[:, 0].tolist() == [0, 1, 2, 3]

    def test_no_balls_and_single_leaf(self):
        pts = uniform_cube(20, 2, seed=1)
        flat = FlatTree.from_tree(PartitionNode(indices=np.arange(20)))
        got = flat.march(pts, np.empty((0, 2)), np.empty(0))
        assert got.ball_rows.shape == got.point_ids.shape == (0,)
        got = flat.march(pts, pts[:3], np.full(3, np.inf))
        assert got.ball_rows.shape[0] == 60
        np.testing.assert_array_equal(np.bincount(got.ball_rows), [20, 20, 20])

    def test_pair_chunking_is_invisible(self, monkeypatch):
        from repro.kernels import layout

        rng, pts, tree = mixed_case(2, np.float64, 7)
        flat = FlatTree.from_tree(tree)
        qs = rng.random((60, 2))
        radii = np.full(60, np.inf)
        whole = flat_pairs(flat, pts, qs, radii)
        monkeypatch.setattr(layout, "MARCH_PAIR_CHUNK", 7)
        np.testing.assert_array_equal(whole, flat_pairs(flat, pts, qs, radii))


def disjoint_roots(tree, rng):
    """Roots of disjoint subtrees, from a random cut below the root."""
    roots, stack = [], [tree.left, tree.right]
    while stack:
        node = stack.pop()
        if node.is_leaf or rng.random() < 0.3:
            roots.append(node)
        else:
            stack += [node.left, node.right]
    return roots


def cap_for(scenario, level_active):
    """An active cap that lets a march run free (0), stop at step 0 (1),
    stop at a later step (2), or run exactly at its largest count (3)."""
    if scenario == 1:
        return 0.0
    if scenario == 2:
        for s in range(1, len(level_active)):
            if level_active[s] > max(level_active[:s]):
                return level_active[s] - 1.0
    if scenario == 3 and level_active:
        return float(max(level_active))
    return np.inf


class TestManyMarches:
    """One ``FlatTree.march`` of several capped marches from disjoint
    subtrees, checked march by march against ``march_balls`` on the
    subtree under each start node."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(2))
    def test_each_march_matches_march_balls(self, d, dtype, seed):
        rng, pts, tree = mixed_case(d, dtype, seed)
        flat = FlatTree.from_tree(tree)
        preorder = {id(node): i for i, node in enumerate(tree.nodes())}
        # largest subtree first, so it gets the cap that stops a march
        # after step 0; the last march is empty
        roots = sorted(disjoint_roots(tree, rng), key=lambda node: -node.size)
        roots.append(roots[0])
        balls, caps = [], []
        for j, root in enumerate(roots):
            nb = 0 if j == len(roots) - 1 else (25, 6, 12, 1)[j % 4]
            centers = rng.random((nb, d)).astype(dtype)
            centers[: nb // 3] = pts[rng.choice(pts.shape[0], nb // 3)]
            radii = rng.random(nb) * 0.3
            radii[::5] = np.inf
            radii[1::7] = 0.0
            free = march_balls(root, pts, centers, radii)
            balls.append((centers, radii))
            caps.append(cap_for((2, 1, 0, 3)[j % 4], free.level_active))
        sizes = [c.shape[0] for c, _ in balls]
        march_of = np.repeat(np.arange(len(roots)), sizes)
        got = flat.march(
            pts,
            np.concatenate([c for c, _ in balls]),
            np.concatenate([r for _, r in balls]),
            starts=np.repeat([preorder[id(root)] for root in roots], sizes),
            march_of=march_of,
            caps=np.asarray(caps),
        )
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        stops = set()
        for j, root in enumerate(roots):
            centers, radii = balls[j]
            ref = march_balls(root, pts, centers, radii, active_cap=caps[j])
            assert got.succeeded[j] == ref.succeeded
            assert got.level_active[j] == ref.level_active
            assert got.label_tests[j] == ref.label_tests
            assert got.leaf_tests[j] == ref.leaf_tests
            mine = march_of[got.ball_rows] == j
            if not ref.succeeded:
                stops.add(len(ref.level_active) - 1)
                assert got.pairs[j] == 0 and not mine.any()
                continue
            assert got.pairs[j] == ref.pairs
            np.testing.assert_array_equal(
                sorted_pairs(got.ball_rows[mine] - offsets[j], got.point_ids[mine]),
                sorted_pairs(ref.ball_rows, ref.point_ids),
            )
        # the caps stopped marches at step 0 and at a later step
        assert 0 in stops and max(stops) > 0
        assert got.level_active[-1] == [] and got.succeeded[-1]
        assert flat.planes.shape[0] > 0


class TestKnnBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_hyperplane_trees_match_pointer_path(self, d, dtype):
        rng, pts, tree = mixed_case(d, dtype, 11 + d)
        qs = np.concatenate([rng.random((60, d)), pts[::25]]).astype(dtype)
        for k in (1, 3, 8):
            idx, sq = knn_query(FlatTree.from_tree(tree), pts, qs, k)
            ref_idx, ref_sq = pointer_knn(tree, pts, qs, k)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(sq, ref_sq)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batch_sizes_and_single_rows_agree(self, dtype):
        pts = uniform_cube(3000, 2, seed=21)
        index = ServingIndex.build(pts, 3, seed=22, dtype=dtype)
        rng = np.random.default_rng(23)
        qs = np.concatenate([rng.random((4096 - 96, 2)), index.points[:96]])
        qs[100:110] = qs[99]  # repeated queries inside one batch
        whole = index.execute("knn", qs)
        for size in (1, 2, 7, 4096):
            parts = [index.execute("knn", qs[lo : lo + size]) for lo in range(0, 4096, size)]
            np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), whole[0])
            np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), whole[1])
        for r in range(0, 4096, 5):
            idx, sq = knn_query(index.layout, index.points, qs[r : r + 1], 3)
            np.testing.assert_array_equal(idx[0], whole[0][r])
            np.testing.assert_array_equal(sq[0], whole[1][r])
        tree = parallel_nearest_neighborhood(
            pts, 3, seed=22, config=FastDnCConfig(dtype=dtype)
        ).tree
        ref_idx, ref_sq = pointer_knn(tree, index.points, qs[:512], 3)
        np.testing.assert_array_equal(whole[0][:512], ref_idx)
        np.testing.assert_array_equal(whole[1][:512], ref_sq)

    def test_hyperplane_tree_serves(self):
        rng, pts, tree = mixed_case(2, np.float64, 31)
        index = ServingIndex(pts, tree, 2)
        qs = rng.random((50, 2))
        idx, sq = index.execute("knn", qs)
        ref_idx, ref_sq = pointer_knn(tree, pts, qs, 2)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(sq, ref_sq)
        all_sq = np.einsum("qnd,qnd->qn", qs[:, None] - pts[None], qs[:, None] - pts[None])
        np.testing.assert_array_equal(sq, np.sort(all_sq, axis=1)[:, :2])


class TestSnapshotFormat:
    def test_v2_round_trip_holds_arrays_only(self, tmp_path):
        index = ServingIndex.build(uniform_cube(400, 2, seed=41), 2, seed=42)
        path = str(tmp_path / "v2.pkl")
        index.save(path)
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        assert state["version"] == 2 and "tree" not in state
        assert set(state["layout"]) == set(index.layout.arrays())
        loaded = ServingIndex.load(path)
        for name, arr in index.layout.arrays().items():
            np.testing.assert_array_equal(getattr(loaded.layout, name), arr)
        qs = uniform_cube(64, 2, seed=43)
        for a, b in zip(loaded.execute("knn", qs), index.execute("knn", qs)):
            np.testing.assert_array_equal(a, b)

    def test_unknown_format_rejected(self):
        index = ServingIndex.build(uniform_cube(100, 2, seed=47), 1, seed=48)
        state = index._state()
        state["version"] = 99
        with pytest.raises(ValueError, match="unsupported serving snapshot version"):
            ServingIndex._from_state(state)
