"""Serving-layer integration of online updates: version-keyed caching
and batcher/pool hot swaps.

The invariants under test: a result cached against one index version can
never answer a query after a swap (keys embed the version); a request
accepted under version v is always answered by version v (the batcher
flushes before rebinding); and a live :class:`ServingPool` swap leaves
no torn reads — every in-flight and subsequent answer matches a serial
execution against a single consistent version.
"""

import numpy as np
import pytest

from repro.core.online import MutableIndex
from repro.serve import Batcher, ResultCache, ServingIndex, ServingPool
from repro.workloads import uniform_cube


def _mutated(index: MutableIndex, seed: int = 0, ins: int = 3, dels: int = 2):
    rng = np.random.default_rng(seed)
    if ins:
        index.insert(rng.random((ins, index.d)))
    if dels:
        index.delete(rng.choice(index.n, size=dels, replace=False))
    index.commit()
    return index


class TestVersionKeyedCache:
    def test_make_key_includes_version(self):
        cache = ResultCache(8)
        p = np.array([0.25, 0.75])
        assert cache.make_key("knn", 2, p, 0) != cache.make_key("knn", 2, p, 1)
        # same version, same point -> same key (cacheable)
        assert cache.make_key("knn", 2, p, 3) == cache.make_key("knn", 2, p, 3)

    def test_flipped_point_not_served_from_stale_cache(self):
        """The regression: flip a point, swap, re-query the same probe."""
        pts = uniform_cube(300, 2, seed=1)
        mutable = MutableIndex(pts, k=1, seed=2, churn_threshold=0.5)
        probe = pts[42].copy()
        cache = ResultCache(64)
        batcher = Batcher(mutable.snapshot(), kind="knn", k=1,
                          max_batch=4, cache=cache)
        t0 = batcher.submit(probe)
        batcher.flush()
        old_answer = t0.value
        # delete the probe's nearest neighbor, then re-query the probe
        victim = int(old_answer[0][0])
        mutable.delete([victim])
        mutable.commit()
        batcher.swap_index(mutable.snapshot())
        t1 = batcher.submit(probe)
        assert not t1.cached, "stale cache entry survived the version swap"
        batcher.flush()
        want_idx, want_sq = mutable.snapshot().execute("knn", probe[None, :], 1)
        np.testing.assert_array_equal(t1.value[0], want_idx[0])
        np.testing.assert_array_equal(t1.value[1], want_sq[0])
        # and the answers genuinely differ across versions
        assert not np.array_equal(t1.value[1], old_answer[1])

    def test_same_version_still_caches(self):
        pts = uniform_cube(200, 2, seed=3)
        index = ServingIndex.build(pts, 1, seed=4)
        batcher = Batcher(index, kind="knn", k=1, max_batch=4,
                          cache=ResultCache(16))
        p = pts[5] + 1e-6
        a = batcher.submit(p)
        batcher.flush()
        b = batcher.submit(p)
        assert b.cached
        np.testing.assert_array_equal(a.value[0], b.value[0])


class TestBatcherSwap:
    def test_swap_flushes_pending_against_old_version(self):
        pts = uniform_cube(260, 2, seed=5)
        mutable = MutableIndex(pts, k=2, seed=6, churn_threshold=0.5)
        snap0 = mutable.snapshot()
        batcher = Batcher(snap0, kind="knn", k=2, max_batch=100)
        probes = uniform_cube(7, 2, seed=55)
        tickets = [batcher.submit(row) for row in probes]
        assert batcher.pending == 7
        _mutated(mutable, seed=7)
        flushed = batcher.swap_index(mutable.snapshot())
        assert flushed == 7
        # pending requests were answered by the OLD version
        want = snap0.execute("knn", probes, 2)
        for i, t in enumerate(tickets):
            assert t.done
            np.testing.assert_array_equal(t.value[0], want[0][i])
        # new submissions are answered by the new version
        t_new = batcher.submit(probes[0])
        batcher.flush()
        want_new = mutable.snapshot().execute("knn", probes[:1], 2)
        np.testing.assert_array_equal(t_new.value[0], want_new[0][0])
        assert batcher.stats.swaps == 1
        assert batcher.stats.index_version == 1

    def test_swap_validates(self):
        pts = uniform_cube(120, 2, seed=8)
        index = ServingIndex.build(pts, 1, seed=9)
        batcher = Batcher(index, kind="knn", k=1)
        bad = ServingIndex.build(uniform_cube(60, 3, seed=10), 1, seed=11)
        with pytest.raises(ValueError, match="dimension"):
            batcher.swap_index(bad)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.swap_index(index)

    def test_covering_swap_needs_system(self):
        pts = uniform_cube(120, 2, seed=12)
        index = ServingIndex.build(pts, 2, seed=13, with_structure=True)
        batcher = Batcher(index, kind="covering")
        bare = ServingIndex(pts, index.layout, 2)  # no system
        with pytest.raises(ValueError, match="system"):
            batcher.swap_index(bare)


class TestPoolHotSwap:
    def test_live_pool_swap_no_torn_reads(self):
        pts = uniform_cube(500, 2, seed=14)
        mutable = MutableIndex(pts, k=2, seed=15, churn_threshold=0.5)
        snap0 = mutable.snapshot()
        queries = uniform_cube(240, 2, seed=66)
        with ServingPool(snap0, workers=2, min_shard=16) as pool:
            batcher = Batcher(snap0, kind="knn", k=2, max_batch=48, pool=pool)
            tickets, versions = [], []
            for i, row in enumerate(queries):
                if i == 120:  # swap mid-stream, queue part-filled
                    _mutated(mutable, seed=16)
                    batcher.swap_index(mutable.snapshot())
                tickets.append(batcher.submit(row))
                versions.append(batcher.index.version)
            batcher.close()  # flushes the tail
            assert all(t.done for t in tickets), "torn/unfulfilled queries"
            by_version = {0: snap0, 1: mutable.snapshot()}
            for t, v, row in zip(tickets, versions, queries):
                want = by_version[v].execute("knn", row[None, :], 2)
                np.testing.assert_array_equal(t.value[0], want[0][0])
                np.testing.assert_array_equal(t.value[1], want[1][0])
            assert batcher.stats.swaps == 1

    def test_pool_swap_closed_raises(self):
        pts = uniform_cube(100, 2, seed=17)
        index = ServingIndex.build(pts, 1, seed=18)
        pool = ServingPool(index, workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.swap(index)


class TestSnapshotPersistence:
    def test_pickle_round_trip_keeps_version(self, tmp_path):
        pts = uniform_cube(130, 2, seed=32)
        mutable = MutableIndex(pts, k=1, seed=33, churn_threshold=0.5)
        _mutated(mutable, seed=34)
        snap = mutable.snapshot()
        path = str(tmp_path / "index.pkl")
        snap.save(path)
        loaded = ServingIndex.load(path)
        assert loaded.version == 1
        np.testing.assert_array_equal(loaded.points, snap.points)


class TestCacheSwapMemory:
    """Satellite of ISSUE 8: repeated hot swaps must not grow the cache.

    Version-keyed entries for superseded versions can never match again;
    ``swap_index`` evicts them eagerly so the cache footprint stays
    bounded by *live* entries, not by swap count.
    """

    def test_evict_stale_drops_only_other_versions(self):
        cache = ResultCache(64)
        p = np.array([0.5, 0.25])
        q = np.array([0.125, 0.75])
        cache.put(cache.make_key("knn", 1, p, 0), "v0-p")
        cache.put(cache.make_key("knn", 1, q, 0), "v0-q")
        cache.put(cache.make_key("knn", 1, p, 1), "v1-p")
        assert cache.evict_stale(1) == 2
        assert len(cache) == 1
        assert cache.get(cache.make_key("knn", 1, p, 1)) == "v1-p"
        assert cache.get(cache.make_key("knn", 1, p, 0)) is None
        assert cache.evict_stale(1) == 0  # idempotent

    def test_swap_index_evicts_old_version_entries(self):
        pts = uniform_cube(250, 2, seed=40)
        mutable = MutableIndex(pts, k=1, seed=41, churn_threshold=0.5)
        cache = ResultCache(512)
        batcher = Batcher(mutable.snapshot(), kind="knn", k=1,
                          max_batch=16, cache=cache)
        probes = uniform_cube(20, 2, seed=42)
        for row in probes:
            batcher.submit(row)
        batcher.flush()
        assert len(cache) == 20
        _mutated(mutable, seed=43)
        batcher.swap_index(mutable.snapshot())
        assert len(cache) == 0  # every v0 entry was unreachable anyway

    def test_cache_stays_bounded_by_live_entries_across_n_swaps(self):
        pts = uniform_cube(300, 2, seed=44)
        mutable = MutableIndex(pts, k=1, seed=45, churn_threshold=0.5)
        cache = ResultCache(10_000)  # far above the working set
        batcher = Batcher(mutable.snapshot(), kind="knn", k=1,
                          max_batch=64, cache=cache)
        probes = uniform_cube(30, 2, seed=46)
        for swap in range(6):
            for row in probes:
                batcher.submit(row)
            batcher.flush()
            # without eviction this would grow ~30 entries per swap
            assert len(cache) <= probes.shape[0]
            _mutated(mutable, seed=47 + swap, ins=2, dels=1)
            batcher.swap_index(mutable.snapshot())
        current = f"v{batcher.index.version}".encode()
        assert all(key.split(b":", 3)[2] == current
                   for key in cache._entries)
