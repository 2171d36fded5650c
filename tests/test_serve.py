"""The serving layer: index, cache, batcher — exactness and edge cases.

The contract under test everywhere: serving is a wall-clock optimization,
never a semantic one.  Every knob (batch size, cache state, wait budget)
must leave answers bit-identical to the per-point reference paths —
``NeighborhoodQueryStructure.query`` for covering requests, single-row
``knn_query`` / offline ``all_knn`` for k-NN requests.
"""

import numpy as np
import pytest

import repro
from repro.core.query_points import knn_query
from repro.pvm import Machine
from repro.serve import Batcher, ResultCache, ServingIndex


@pytest.fixture(scope="module")
def index():
    pts = repro.workloads.uniform_cube(1500, 2, seed=3)
    return ServingIndex.build(pts, k=3, seed=7, with_structure=True)


@pytest.fixture(scope="module")
def queries():
    return repro.workloads.uniform_cube(300, 2, seed=42)


# -- ServingIndex ---------------------------------------------------------


def test_execute_knn_matches_single_row_knn_query(index, queries):
    idx, sq = index.execute("knn", queries)
    for i in range(0, queries.shape[0], 37):
        si, ss = knn_query(index.layout, index.points, queries[i : i + 1], 3)
        assert np.array_equal(si[0], idx[i])
        assert np.array_equal(ss[0], sq[i])


def test_execute_covering_matches_per_point_query(index, queries):
    rows, ids = index.execute("covering", queries)
    assert np.array_equal(rows, np.sort(rows, kind="stable"))
    for i in range(0, queries.shape[0], 23):
        assert np.array_equal(ids[rows == i], index.structure.query(queries[i]))


def test_split_covering_equals_per_row_reference(index, queries):
    """One searchsorted split gives each row exactly ``ids[rows == i]``,
    including rows no ball covers and trailing rows past the last pair."""
    far = np.array([[50.0, 50.0], [-9.0, 3.0]])  # outside every ball
    qs = np.concatenate([far[:1], queries[:40], far, queries[40:60], far[1:]])
    rows, ids = index.execute("covering", qs)
    m = qs.shape[0]
    got = ServingIndex.split_response("covering", (rows, ids), m)
    assert len(got) == m
    for i in range(m):
        assert np.array_equal(got[i], ids[rows == i])
    assert got[0].shape == (0,) and got[-1].shape == (0,)
    assert sum(g.shape[0] for g in got) == ids.shape[0]
    empty = ServingIndex.split_response("covering", (rows[:0], ids[:0]), 3)
    assert [g.shape for g in empty] == [(0,)] * 3


def test_execute_batch_composition_invariance(index, queries):
    """Answers must not depend on which batch a point rides in."""
    full_idx, full_sq = index.execute("knn", queries)
    for cut in (1, 7, 128):
        parts = [
            index.execute("knn", queries[lo : lo + cut])
            for lo in range(0, queries.shape[0], cut)
        ]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), full_idx)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), full_sq)


def test_execute_matches_offline_all_knn(index):
    """Serving the data points themselves reproduces the offline result."""
    res = repro.all_knn(index.points, k=3, method="brute")
    idx, sq = index.execute("knn", index.points, k=4)
    n = index.points.shape[0]
    for i in range(0, n, 101):
        keep = idx[i] != i
        assert np.array_equal(idx[i][keep][:3], res.indices[i])
        assert np.array_equal(sq[i][keep][:3], res.sq_dists[i])


def test_execute_empty_batch(index):
    idx, sq = index.execute("knn", np.empty((0, 2)))
    assert idx.shape == (0, 3) and sq.shape == (0, 3)
    rows, ids = index.execute("covering", np.empty((0, 2)))
    assert rows.shape == (0,) and ids.shape == (0,)


def test_execute_k_at_least_n(queries):
    """k >= n answers with every data point, padded with (-1, inf)."""
    pts = repro.workloads.uniform_cube(6, 2, seed=0)
    small = ServingIndex.build(pts, k=2, seed=1)
    idx, sq = small.execute("knn", queries[:4], k=10)
    assert idx.shape == (4, 10)
    assert (np.sort(idx[:, :6], axis=1) == np.arange(6)).all()
    assert (idx[:, 6:] == -1).all() and np.isinf(sq[:, 6:]).all()
    assert (np.diff(sq[:, :6], axis=1) >= 0).all()


def test_execute_validates_inputs(index, queries):
    with pytest.raises(ValueError, match="kind"):
        index.execute("nearest", queries)
    with pytest.raises(ValueError, match="dimension mismatch"):
        index.execute("knn", np.zeros((3, 5)))
    with pytest.raises(ValueError, match="k must be"):
        index.execute("knn", queries, k=0)


def test_covering_requires_system(index, queries):
    bare = ServingIndex(index.points, index.layout, index.k)
    with pytest.raises(ValueError, match="k-neighborhood system"):
        bare.execute("covering", queries)


def test_save_load_roundtrip(tmp_path, index, queries):
    path = str(tmp_path / "index.pkl")
    index.save(path)
    loaded = ServingIndex.load(path)
    for kind in ("knn", "covering"):
        a = index.execute(kind, queries)
        b = loaded.execute(kind, queries)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# -- ResultCache ----------------------------------------------------------


def test_cache_lru_eviction_and_counters(index):
    cache = ResultCache(capacity=2)
    ka = cache.make_key("knn", 1, np.array([0.5, 0.5]))
    kb = cache.make_key("knn", 1, np.array([0.25, 0.75]))
    kc = cache.make_key("knn", 1, np.array([0.75, 0.25]))
    assert cache.get(ka) is None
    cache.put(ka, "A")
    cache.put(kb, "B")
    assert cache.get(ka) == "A"  # A now most-recent
    cache.put(kc, "C")  # evicts B
    assert cache.get(kb) is None
    assert cache.get(ka) == "A" and cache.get(kc) == "C"
    # lookups are counted once, by the batcher, as serve.cache_*
    assert not hasattr(cache, "hits")
    machine = Machine()
    batcher = Batcher(index, kind="knn", k=1, max_batch=1,
                      cache=ResultCache(capacity=2), machine=machine)
    a, b, c = np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.array([0.75, 0.25])
    for point in (a, b, a, c, b, a):  # c evicts b, then b evicts a
        batcher.submit(point)
    batcher.close()
    assert machine.metrics.counter("serve.cache_hits") == 1
    assert machine.metrics.counter("serve.cache_misses") == 5


def test_cache_exact_keys_distinguish_close_points():
    cache = ResultCache(capacity=8)
    p = np.array([0.1, 0.2])
    assert cache.make_key("knn", 1, p) == cache.make_key("knn", 1, p.copy())
    assert cache.make_key("knn", 1, p) != cache.make_key("knn", 1, p + 1e-15)
    assert cache.make_key("knn", 1, p) != cache.make_key("knn", 2, p)
    assert cache.make_key("knn", 1, p) != cache.make_key("covering", 1, p)


def test_cache_zero_capacity_disables_storage():
    cache = ResultCache(capacity=0)
    key = cache.make_key("knn", 1, np.array([0.5, 0.5]))
    cache.put(key, "A")
    assert cache.get(key) is None
    assert len(cache) == 0


# -- Batcher --------------------------------------------------------------


def test_batcher_tickets_match_reference(index, queries):
    ref_idx, ref_sq = index.execute("knn", queries)
    batcher = Batcher(index, kind="knn", max_batch=64)
    tickets = batcher.submit_many(queries)
    batcher.flush()
    for i, t in enumerate(tickets):
        assert t.done and not t.cached
        assert np.array_equal(t.value[0], ref_idx[i])
        assert np.array_equal(t.value[1], ref_sq[i])
        assert t.latency_s >= 0


def test_batcher_flush_on_empty_queue_is_noop(index):
    batcher = Batcher(index)
    assert batcher.pending == 0
    assert batcher.flush() == 0
    assert batcher.stats.batches == 0


def test_batcher_submit_many_larger_than_max_batch(index, queries):
    """A 300-request burst through max_batch=32 executes in 32-sized
    chunks as the queue fills, with identical per-ticket answers."""
    ref_idx, _ = index.execute("knn", queries)
    batcher = Batcher(index, kind="knn", max_batch=32)
    tickets = batcher.submit_many(queries)
    # all but the sub-batch tail executed by the time submit_many returns
    assert batcher.pending == queries.shape[0] % 32
    assert batcher.stats.batches == queries.shape[0] // 32
    batcher.flush()
    assert all(t.done for t in tickets)
    for i in (0, 31, 32, 170, 299):
        assert np.array_equal(tickets[i].value[0], ref_idx[i])


def test_batcher_duplicate_points_hit_cache(index, queries):
    ref_idx, ref_sq = index.execute("knn", queries[:8])
    batcher = Batcher(index, kind="knn", max_batch=4, cache=ResultCache(64))
    first = batcher.submit_many(queries[:8])
    batcher.flush()
    again = batcher.submit_many(queries[:8])  # identical points, cache-hot
    assert all(t.done and t.cached for t in again)
    assert batcher.stats.cache_hits == 8
    assert batcher.stats.cache_misses == 8
    assert batcher.stats.served == 8  # hits never re-executed
    for i, t in enumerate(again):
        assert np.array_equal(t.value[0], first[i].value[0])
        assert np.array_equal(t.value[0], ref_idx[i])
        assert np.array_equal(t.value[1], ref_sq[i])


def test_batcher_cache_hits_identical_for_covering(index, queries):
    batcher = Batcher(index, kind="covering", max_batch=16, cache=ResultCache(64))
    cold = batcher.submit_many(queries[:16])
    batcher.flush()
    warm = batcher.submit_many(queries[:16])
    for i, t in enumerate(warm):
        assert t.cached
        assert np.array_equal(t.value, cold[i].value)
        assert np.array_equal(t.value, index.structure.query(queries[i]))


def test_batcher_max_wait_flush_via_poll(index, queries):
    now = [0.0]
    batcher = Batcher(
        index, max_batch=1000, max_wait_ms=50.0, clock=lambda: now[0]
    )
    t = batcher.submit(queries[0])
    assert batcher.poll() == 0 and not t.done  # too fresh
    now[0] = 0.049
    assert batcher.poll() == 0 and not t.done
    now[0] = 0.051
    assert batcher.poll() == 1 and t.done
    assert batcher.pending == 0


def test_batcher_unfulfilled_ticket_raises(index, queries):
    batcher = Batcher(index, max_batch=1000)
    t = batcher.submit(queries[0])
    with pytest.raises(RuntimeError, match="not fulfilled"):
        t.value
    with pytest.raises(RuntimeError, match="not fulfilled"):
        t.latency_s


def test_batcher_close_flushes_and_rejects(index, queries):
    batcher = Batcher(index, max_batch=1000)
    t = batcher.submit(queries[0])
    batcher.close()
    assert t.done
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(queries[1])
    batcher.close()  # idempotent


def test_batcher_close_without_flush_drops_queue(index, queries):
    batcher = Batcher(index, max_batch=1000)
    t = batcher.submit(queries[0])
    batcher.close(flush=False)
    assert not t.done and batcher.pending == 0


def test_batcher_validates_inputs(index, queries):
    with pytest.raises(ValueError, match="max_batch"):
        Batcher(index, max_batch=0)
    with pytest.raises(ValueError, match="max_wait_ms"):
        Batcher(index, max_wait_ms=-1.0)
    with pytest.raises(ValueError, match="kind"):
        Batcher(index, kind="nearest")
    batcher = Batcher(index)
    with pytest.raises(ValueError, match="point"):
        batcher.submit(queries[:2])  # a (2, d) array is not one point


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batcher_rejects_non_finite_points_without_dropping_the_batch(queries, bad):
    """A NaN/inf point is rejected at submit, before it is counted or
    queued; the tickets already queued are served by the next flush."""
    pts = repro.workloads.uniform_cube(600, 2, seed=9)
    with repro.api.serve(pts, k=2, max_batch=4, cache_size=0, seed=4) as batcher:
        good = [batcher.submit(q) for q in queries[:2]]
        with pytest.raises(ValueError, match="finite"):
            batcher.submit(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            # one bad row rejects the whole call, before any row queues
            batcher.submit_many(np.array([queries[2], [bad, 0.5]]))
        assert batcher.pending == 2
        assert batcher.stats.requests == 2
        good.append(batcher.submit(queries[3]))
        assert batcher.flush() == 3
        idx, sq = batcher.index.execute("knn", queries[[0, 1, 3]], k=2)
        for i, t in enumerate(good):
            assert t.done
            assert np.array_equal(t.value[0], idx[i])
            assert np.array_equal(t.value[1], sq[i])


def test_batcher_metrics_and_spans(index, queries):
    machine = Machine()
    machine.enable_tracing()
    batcher = Batcher(
        index, kind="knn", max_batch=50, cache=ResultCache(256), machine=machine
    )
    with machine.span("serve.session"):
        batcher.submit_many(queries[:100])
        batcher.flush()
        batcher.submit(queries[0])  # cache hit
    reg = machine.metrics
    assert reg.counter("serve.requests") == 101
    assert reg.counter("serve.served") == 100
    assert reg.counter("serve.batches") == 2
    assert reg.counter("serve.cache_hits") == 1
    assert reg.gauge("serve.queue_depth") == 0
    assert reg.gauge("serve.qps") > 0
    batch_spans = [s for s in machine.tracer.root.children if s.name == "serve.batch"]
    assert len(batch_spans) == 2
    assert [s.attrs["n"] for s in batch_spans] == [50, 50]
    # serving is passive on the simulated ledger
    assert machine.total.depth == 0 and machine.total.work == 0


def test_api_serve_end_to_end(queries):
    pts = repro.workloads.uniform_cube(600, 2, seed=9)
    with repro.api.serve(pts, k=2, max_batch=64, seed=4) as batcher:
        tickets = batcher.submit_many(queries[:100])
        batcher.flush()
        idx, sq = batcher.index.execute("knn", queries[:100], k=2)
        for i, t in enumerate(tickets):
            assert np.array_equal(t.value[0], idx[i])
            assert np.array_equal(t.value[1], sq[i])


def test_queue_depth_sampled_at_flush(queries):
    """The ``serve.queue_depth`` gauge is sampled at batch-flush time (the
    depth that triggered execution), and every flush observes that depth
    into the ``serve.queue_depth_flush`` histogram."""
    machine = Machine()
    pts = repro.workloads.uniform_cube(400, 2, seed=21)
    index = ServingIndex.build(pts, 1, machine=machine, seed=22)
    batcher = Batcher(index, kind="knn", k=1, max_batch=16, machine=machine)
    for row in queries[:16]:  # fills the batch -> auto-flush at depth 16
        batcher.submit(row)
    for row in queries[16:23]:  # partial batch -> explicit flush at depth 7
        batcher.submit(row)
    batcher.flush()
    depths = machine.metrics.histograms["serve.queue_depth_flush"]
    assert (depths.count, depths.sum, depths.max) == (2, 23.0, 16)
    # the live gauge returns to 0 once the queue has executed...
    assert batcher.stats.queue_depth == 0
    # ...and an empty flush records nothing
    batcher.flush()
    assert (depths.count, depths.sum) == (2, 23.0)
    batcher.close()
    assert not [key for key in machine.metrics.series if key.startswith("serve.")]
    # both sinks: the histogram reaches the Prometheus exposition too
    text = machine.metrics.to_prometheus()
    assert "# TYPE repro_serve_queue_depth_flush histogram" in text
    assert 'repro_serve_queue_depth_flush_count{key="serve.queue_depth_flush"} 2.0' in text
    assert 'repro_serve_queue_depth_flush_sum{key="serve.queue_depth_flush"} 23.0' in text
