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
from collections import Counter

import numpy as np
import pytest

import repro
from repro import kernels
from repro.core import neighborhood
from repro.core.correction import apply_candidate_pairs_batch
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.core.neighborhood import brute_force_leaves, merge_neighbor_lists
from repro.core.partition_tree import PartitionNode
from repro.geometry.radon import radon_point, radon_points_batch
from repro.geometry.centerpoints import (
    iterated_radon_centerpoint,
    iterated_radon_centerpoint_many,
)
from repro.geometry.conformal import ConformalMap
from repro.geometry.spheres import Hyperplane, Sphere
from repro.geometry.stereographic import (
    DEGENERATE_EPS,
    SphereCap,
    circle_to_separator,
    separator_to_circle,
)
from repro.pvm import Machine
from repro.pvm.primitives import segmented_pack, segmented_reduce, segmented_split
from repro.separators import batch
from repro.separators.batch import (
    SamplerStack,
    batched_side_of_points,
    prepare_samplers,
    split_is_good,
)
from repro.separators.greatcircle import random_great_circle
from repro.separators.mttv import MAX_DRAW_RETRIES, MTTVSeparatorSampler, default_sample_size
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

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_centerpoint_many_matches_sequential_under_round_caps(self, rounds):
        """Capped rounds leave sets of many sizes to average at once."""
        gen = np.random.default_rng(rounds)
        sets = [gen.random((int(n), 3)) for n in gen.integers(1, 400, size=60)]
        many = iterated_radon_centerpoint_many(
            sets, [np.random.default_rng(300 + i) for i in range(len(sets))], rounds=rounds
        )
        for i, pts in enumerate(sets):
            one = iterated_radon_centerpoint(
                pts, np.random.default_rng(300 + i), rounds=rounds
            )
            assert many[i].tobytes() == one.tobytes()

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
                batched.center_estimates[i], direct.center_estimate
            )
            # generators are in lockstep: the next draw agrees exactly
            a, b = batched.draw([i])[0], direct.draw()
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
            assert split_is_good(int((side < 0).sum()), side.shape[0], delta) == (
                is_good_point_split(sphere, pts, delta)
            )
        for side in (np.array([1], dtype=np.int8), np.array([1, 1], dtype=np.int8)):
            assert not split_is_good(int((side < 0).sum()), side.shape[0], delta)


# ---------------------------------------------------------------------------
# stacked samplers vs the per-node MTTVSeparatorSampler
# ---------------------------------------------------------------------------


class _Scripted:
    """Stands in for a Generator whose normal draws are scripted."""

    def __init__(self, vectors):
        self._vectors = iter(np.array(vectors, dtype=np.float64))

    def standard_normal(self, size=None, out=None):
        v = next(self._vectors)
        if out is None:
            return v.copy()
        out[...] = v
        return out


def _per_node_sampler(z, rng):
    """An MTTVSeparatorSampler around the centerpoint ``z`` (its
    constructor would compute the centerpoint itself), drawing from
    ``rng`` with its own ``draw()``."""
    sampler = object.__new__(MTTVSeparatorSampler)
    sampler.rng = rng
    sampler.dim = z.shape[0] - 1
    sampler.map = ConformalMap.centering(z)
    return sampler


def _per_node_draw(sampler):
    try:
        return sampler.draw()
    except RuntimeError:
        return None


def _assert_same_separator(got, want):
    assert type(got) is type(want)
    if isinstance(want, Sphere):
        assert got.center.tobytes() == want.center.tobytes()
        assert float(got.radius).hex() == float(want.radius).hex()
    elif isinstance(want, Hyperplane):
        assert got.normal.tobytes() == want.normal.tobytes()
        assert float(got.offset).hex() == float(want.offset).hex()


def _outcome(cmap, circle):
    """What the per-node pull-back makes of one circle."""
    try:
        sep = circle_to_separator(cmap.pull_back_circle(circle))
    except ValueError as err:
        return "imaginary retry" if "imaginary" in str(err) else "offset retry"
    return "sphere" if isinstance(sep, Sphere) else "hyperplane"


def _census(z, rng, draws):
    """Outcome counts of every circle ``draws`` per-node draws consume,
    plus ``"failed"`` per draw whose circles all degenerated."""
    cmap = ConformalMap.centering(z)
    counts = Counter()
    for _ in range(draws):
        for _ in range(MAX_DRAW_RETRIES):
            kind = _outcome(cmap, random_great_circle(rng, z.shape[0]))
            counts[kind] += 1
            if not kind.endswith("retry"):
                break
        else:
            counts["failed"] += 1
    return counts


def _unit_rows(gen, count, m):
    u = gen.normal(size=(count, m))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestStackedSamplers:
    """:class:`SamplerStack` rows against the per-node sampler they mirror,
    bit for bit, in every dimension the stacked BLAS calls see."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_centering_matches_conformal_map(self, d):
        m = d + 1
        gen = np.random.default_rng(600 + d)
        scales = np.resize([0.0, 1e-13, 0.5, 0.9, 1.0 - 2.0**-53, 1.0, 1.5, 1e6], 1000)
        scales[2::8] = gen.random(125)  # anywhere inside the ball
        z = _unit_rows(gen, 1000, m) * scales[:, None]
        z[-2:] = 0.0
        z[-2:, -1] = (0.5, -0.5)  # on the pole axis: the reflection is the identity
        stack = SamplerStack(z, [None] * len(z))
        for i, zi in enumerate(z):
            cmap = ConformalMap.centering(zi)
            assert stack.rotations[i].tobytes() == cmap.rotation.tobytes()
            assert float(stack.deltas[i]).hex() == float(cmap.delta).hex()
        assert (stack.deltas == 1.0).sum() >= 250  # origin and |z| < 1e-12
        assert np.any(np.linalg.norm(z, axis=1) >= 1.0)  # the clamp

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_draws_match_per_node_sampler(self, d):
        """prepare_samplers over 1,000 point sets: the same centerpoints,
        maps and six draws as 1,000 independently built samplers."""
        gen = np.random.default_rng(500 + d)
        sets = [gen.random((int(gen.integers(1, 150)), d)) for _ in range(1000)]
        for pts in sets[::7]:
            pts[: pts.shape[0] // 2] = pts[-1]  # duplicated centers
        seeds = [np.random.SeedSequence([d, i]) for i in range(len(sets))]
        stack = prepare_samplers(sets, [np.random.default_rng(s) for s in seeds])
        direct = [
            MTTVSeparatorSampler(
                pts, seed=np.random.default_rng(s), sample_size=default_sample_size(d)
            )
            for pts, s in zip(sets, seeds)
        ]
        for i, sampler in enumerate(direct):
            assert stack.center_estimates[i].tobytes() == sampler.center_estimate.tobytes()
            assert stack.rotations[i].tobytes() == sampler.map.rotation.tobytes()
            assert float(stack.deltas[i]).hex() == float(sampler.map.delta).hex()
        rows = list(range(len(sets)))
        for _ in range(6):
            for sampler, got in zip(direct, stack.draw(rows)):
                _assert_same_separator(got, _per_node_draw(sampler))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_draws_match_on_every_branch(self, d):
        """Rows whose circles leave the generic sphere path: dilations
        near 1e-8 (a centerpoint a hair inside the sphere) give imaginary
        spheres and |offset| >= 1 retries; an origin row meets a circle
        through the pole (a hyperplane); one scripted row fails every
        retry and another succeeds only on its last; clamped rows ride
        along."""
        m = d + 1
        gen = np.random.default_rng(700 + d)
        z = _unit_rows(gen, 1000, m) * (1.0 - 2.0**-53)
        z[::10] *= 2.0  # |z| >= 1: the clamp
        z[1::10] = 0.0  # the origin: dilation 1
        seeds = [np.random.SeedSequence([7, d, i]) for i in range(len(z))]
        rngs = [[np.random.default_rng(s) for s in seeds] for _ in range(3)]
        # row 1 (origin) first draws two great circles through the pole:
        # one within 1e-9 of it, then e_1 itself
        through_pole = [np.eye(m)[0] + 5e-10 * np.eye(m)[-1], np.eye(m)[0]]
        def degenerate_circle(rows):
            """A tiny-dilation row and a circle that degenerates on it."""
            return next(
                (i, v)
                for i in rows
                if i % 10 > 1
                for v in _unit_rows(gen, 20, m)
                if _outcome(ConformalMap.centering(z[i]), SphereCap(v, 0.0)).endswith("retry")
            )

        # one row draws MAX_DRAW_RETRIES circles that all degenerate, and
        # one draws a circle that pulls back only after MAX_DRAW_RETRIES - 1
        fail_row, failing = degenerate_circle(range(2, 200))
        last_row, last_failing = degenerate_circle(range(fail_row + 1, 400))
        last_map = ConformalMap.centering(z[last_row])
        good = next(
            v
            for v in _unit_rows(gen, 50, m)
            if not _outcome(last_map, SphereCap(v, 0.0)).endswith("retry")
        )
        scripts = (
            through_pole + list(gen.normal(size=(8, m))),
            [failing] * MAX_DRAW_RETRIES + list(gen.normal(size=(100, m))),
            [last_failing] * (MAX_DRAW_RETRIES - 1) + [good] + list(gen.normal(size=(100, m))),
        )
        for copies in rngs:
            copies[1], copies[fail_row], copies[last_row] = (
                _Scripted(script) for script in scripts
            )
        stack = SamplerStack(z, rngs[0])
        direct = [_per_node_sampler(zi, rng) for zi, rng in zip(z, rngs[1])]
        rows = list(range(len(z)))
        for draw in range(6):
            got = stack.draw(rows)
            for sampler, g in zip(direct, got):
                _assert_same_separator(g, _per_node_draw(sampler))
            if draw == 0:
                assert got[fail_row] is None and got[last_row] is not None
        census = Counter()
        for zi, rng in zip(z, rngs[2]):
            census.update(_census(zi, rng, 6))
        for case in ("hyperplane", "imaginary retry", "offset retry", "failed"):
            assert census[case] >= 1, (case, census)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hyperplane_threshold(self, d):
        """Circles whose pull-back sits at DEGENERATE_EPS from the pole,
        one ulp either side: on an origin row (the identity map) the
        circle ``e_1 + t e_m`` pulls back with ``gamma = t`` exactly, so
        both paths must split hyperplane from sphere at the same ulp."""
        m = d + 1
        ts = [np.nextafter(DEGENERATE_EPS, 0.0), DEGENERATE_EPS, np.nextafter(DEGENERATE_EPS, 1.0)]
        ts += [-t for t in ts]
        circles = [np.eye(m)[0] + t * np.eye(m)[-1] for t in ts]
        z = np.zeros((len(circles), m))
        stack = SamplerStack(z, [_Scripted([v]) for v in circles])
        got = stack.draw(list(range(len(circles))))
        want = [_per_node_draw(_per_node_sampler(zi, _Scripted([v]))) for zi, v in zip(z, circles)]
        for g, w in zip(got, want):
            _assert_same_separator(g, w)
        kinds = [type(w).__name__ for w in want]
        assert kinds == ["Hyperplane", "Hyperplane", "Sphere"] * 2

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dilated_radius_is_squared_with_pow(self, d):
        """separator_to_circle squares the radius with Python's float
        ``**`` (libm pow); ``x*x`` differs from it on these radii."""
        gen = np.random.default_rng(800 + d)
        radii = gen.uniform(0.01, 100.0, 4000)
        radii = radii[[r**2 != r * r for r in radii.tolist()]]
        assert radii.shape[0] >= 2
        centers = gen.normal(size=(radii.shape[0], d)) * 3.0
        ok = np.ones(radii.shape[0], dtype=bool)
        normals, offsets = batch._from_sphere(centers, radii, ok)
        assert ok.all()
        for c, r, a, b in zip(centers, radii, normals, offsets):
            circle = separator_to_circle(Sphere(c, float(r)))
            assert a.tobytes() == circle.normal.tobytes()
            assert float(b).hex() == float(circle.offset).hex()

    def test_replace_installs_rebuilt_rows(self):
        sets = [uniform_cube(60, 2, seed=s) for s in range(4)]
        stack = prepare_samplers(sets, [np.random.default_rng(s) for s in range(4)])
        again = prepare_samplers(sets[1:3], [np.random.default_rng(9), np.random.default_rng(10)])
        stack.replace([1, 2], again)
        np.testing.assert_array_equal(stack.center_estimates[1:3], again.center_estimates)
        np.testing.assert_array_equal(stack.rotations[1:3], again.rotations)
        np.testing.assert_array_equal(stack.deltas[1:3], again.deltas)
        assert stack.rngs[1:3] == again.rngs


# ---------------------------------------------------------------------------
# stacked base cases vs one block_topk call per leaf
# ---------------------------------------------------------------------------


def _per_leaf(points, ids, k, nbr_idx, nbr_sq):
    """One one-block ``block_topk`` call on a leaf alone, padded."""
    m = ids.shape[0]
    if m <= 1:
        return
    kk = min(k, m - 1)
    local_idx, local_sq = kernels.block_topk(points[ids], kk)
    nbr_idx[ids, :kk] = ids[local_idx]
    nbr_sq[ids, :kk] = local_sq
    nbr_idx[ids, kk:] = -1
    nbr_sq[ids, kk:] = np.inf


class TestStackedLeaves:
    @staticmethod
    def _both(points, leaves, k):
        n = points.shape[0]
        want = (np.full((n, k), -7, dtype=np.int64), np.full((n, k), -7.0))
        got = (want[0].copy(), want[1].copy())
        for ids in leaves:
            _per_leaf(points, ids, k, *want)
        brute_force_leaves(points, leaves, k, *got)
        return got, want

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_per_leaf_calls(self, k, dtype):
        """Sizes 0, 1 and 2, kk < k padding, and duplicates that tie at
        the k-th distance."""
        gen = np.random.default_rng(30 + k)
        points = gen.integers(0, 3, size=(1200, 2)).astype(dtype)  # many ties
        points[::9] = points[1]
        ids = gen.permutation(points.shape[0])
        sizes = [0, 1, 2, 2, 5, 5, 5, 7, 7, 3, 1, 0, 16, 5, 2]
        sizes += [int(s) for s in gen.integers(2, 30, size=40)]
        bounds = np.cumsum([0] + sizes)
        assert bounds[-1] <= ids.shape[0]
        leaves = [ids[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        (gi, gs), (wi, ws) = self._both(points, leaves, k)
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(gs, ws)
        assert np.any(wi == -1) == (k > 1)  # leaves of 2 pad when kk < k

    def test_chunks_are_invisible(self, monkeypatch):
        gen = np.random.default_rng(40)
        points = gen.random((900, 3))
        leaves = np.array_split(gen.permutation(900), 100)  # sizes 9 and 8
        (gi, gs), _ = self._both(points, leaves, 2)
        monkeypatch.setattr(neighborhood, "LEAF_PAIR_CHUNK", 200)
        (ci, cs), (wi, ws) = self._both(points, leaves, 2)
        for got in ((gi, gs), (ci, cs)):
            np.testing.assert_array_equal(got[0], wi)
            np.testing.assert_array_equal(got[1], ws)

    @pytest.mark.parametrize("chunk", [1 << 18, 5000])
    def test_one_call_per_level_size_and_chunk(self, monkeypatch, chunk):
        """A frontier build calls block_topk once per (level, leaf size,
        chunk), and the calls' rows are exactly the leaves' rows."""
        calls = []
        inner = kernels.block_topk

        def counted(sub, kk, block=None):
            calls.append((sub.shape[0], block))
            return inner(sub, kk, block)

        monkeypatch.setattr(neighborhood, "LEAF_PAIR_CHUNK", chunk)
        monkeypatch.setattr(kernels, "block_topk", counted)
        pts = uniform_cube(3000, 2, seed=5)
        res = parallel_nearest_neighborhood(pts, 2, seed=5, config=FastDnCConfig(engine="frontier"))
        sizes_by_level = {}
        stack = [(res.tree, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                sizes_by_level.setdefault(level, Counter())[node.size] += 1
            else:
                stack += [(node.left, level + 1), (node.right, level + 1)]
        want = Counter()
        for sizes in sizes_by_level.values():
            for m, count in sizes.items():
                per_call = max(1, chunk // (m * m))
                for lo in range(0, count, per_call):
                    want[(m * min(per_call, count - lo), m)] += 1
        assert Counter(calls) == want
        assert sum(rows for rows, _ in calls) == pts.shape[0]
        groups = sum(len(sizes) for sizes in sizes_by_level.values())
        leaves = sum(sum(sizes.values()) for sizes in sizes_by_level.values())
        if chunk == 1 << 18:
            assert len(calls) == groups < leaves
        else:
            assert groups < len(calls)  # some groups took several chunks
        ref = repro.all_knn(pts, 2, seed=5, engine="recursive")
        np.testing.assert_array_equal(res.system.neighbor_indices, ref.indices)
        np.testing.assert_array_equal(res.system.neighbor_sq_dists, ref.sq_dists)


# ---------------------------------------------------------------------------
# batched neighbor-list merge
# ---------------------------------------------------------------------------


class TestApplyCandidatePairsBatch:
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_per_owner_merge_reference(self, k):
        """The per-owner loop over ``merge_neighbor_lists`` that the
        correction merge used to run, kept as the reference."""
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
            changed = apply_candidate_pairs_batch(
                points, idx, sq, owners, cands, k
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
