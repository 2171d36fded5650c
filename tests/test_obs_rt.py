"""Request-time observability primitives (ISSUE 9).

Unit coverage for the pieces under ``repro.obs``: the log-linear bucket
:class:`~repro.obs.metrics.Histogram` and its Prometheus exposition
(zero-observation families, ``le`` ordering, label escaping, per-worker
merge after a pool run), the :class:`~repro.obs.rt.FlightRecorder`
retention policy, and :class:`~repro.obs.rt.SLOTracker` attainment /
burn-rate / window-expiry semantics under a fake clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_LATENCY_BOUNDS_MS,
    FlightRecorder,
    Histogram,
    Metrics,
    RequestTimeline,
    SLOTracker,
    log_linear_bounds,
)
from repro.obs.export import metrics_to_prometheus


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestLogLinearBounds:
    def test_default_scheme(self):
        assert len(DEFAULT_LATENCY_BOUNDS_MS) == 63  # 7 decades x 9 steps
        assert DEFAULT_LATENCY_BOUNDS_MS[0] == pytest.approx(0.01)
        assert DEFAULT_LATENCY_BOUNDS_MS[-1] == pytest.approx(90000.0)

    def test_strictly_increasing_and_deterministic(self):
        a = log_linear_bounds(-1, 2, 4)
        b = log_linear_bounds(-1, 2, 4)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="decade_hi"):
            log_linear_bounds(2, 2)
        with pytest.raises(ValueError, match="steps_per_decade"):
            log_linear_bounds(0, 1, 10)


class TestHistogram:
    def test_le_bucket_semantics(self):
        h = Histogram(bounds=[1.0, 2.0, 4.0])
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 100.0):
            h.observe(v)
        # v <= bound lands in that bucket (Prometheus le); 100 overflows
        assert h.bucket_counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5 and h.max == 100.0
        assert h.cumulative_counts() == [2, 4, 5, 6]

    def test_nan_ignored(self):
        h = Histogram(bounds=[1.0])
        h.observe(float("nan"))
        assert h.count == 0 and h.sum == 0.0

    def test_quantiles_track_exact_percentiles(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.1, 50.0, size=5000)
        h = Histogram()
        for v in data:
            h.observe(float(v))
        for p in (50, 95, 99):
            exact = float(np.percentile(data, p))
            est = h.percentile(p)
            # log-linear buckets bound relative error at ~11% per bucket
            assert abs(est - exact) / exact < 0.15, (p, est, exact)
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_quantile_empty_and_overflow(self):
        h = Histogram(bounds=[1.0])
        assert h.quantile(0.5) is None
        h.observe(10.0)  # overflow bucket only
        assert h.quantile(0.5) == 10.0  # exact max, not +Inf
        with pytest.raises(ValueError, match="q must be"):
            h.quantile(1.5)

    def test_merge_and_bounds_mismatch(self):
        a = Histogram(bounds=[1.0, 2.0])
        b = Histogram(bounds=[1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3 and a.bucket_counts == [1, 1, 1]
        assert a.min == 0.5 and a.max == 9.0
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(Histogram(bounds=[1.0, 3.0]))

    def test_dict_roundtrip(self):
        h = Histogram(bounds=[1.0, 2.0])
        for v in (0.3, 1.7, 5.0):
            h.observe(v)
        back = Histogram.from_dict(h.to_dict())
        assert back.bounds == h.bounds
        assert back.bucket_counts == h.bucket_counts
        assert back.count == h.count and back.sum == pytest.approx(h.sum)
        assert back.min == h.min and back.max == h.max

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=[1.0, 1.0])
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=[])

    def test_registry_get_or_create_and_merge(self):
        m = Metrics()
        h1 = m.histogram("x.lat_ms", bounds=[1.0, 2.0])
        h1.observe(1.5)
        assert m.histogram("x.lat_ms") is h1  # get-or-create
        other = Metrics()
        other.histogram("x.lat_ms", bounds=[1.0, 2.0]).observe(0.5)
        m.merge(other)
        assert m.histogram("x.lat_ms").count == 2


class TestPrometheusExposition:
    def test_zero_observation_histogram_still_exports(self):
        m = Metrics()
        m.histogram("net.request_ms", bounds=[1.0, 2.0])
        text = metrics_to_prometheus(m)
        assert "# TYPE repro_net_request_ms histogram" in text
        assert 'repro_net_request_ms_bucket{key="net.request_ms",le="1"} 0.0' in text
        assert 'repro_net_request_ms_bucket{key="net.request_ms",le="+Inf"} 0.0' in text
        assert 'repro_net_request_ms_sum{key="net.request_ms"} 0.0' in text
        assert 'repro_net_request_ms_count{key="net.request_ms"} 0.0' in text

    def test_le_labels_ascending_cumulative_ending_inf(self):
        m = Metrics()
        h = m.histogram("s.lat", bounds=[0.5, 1.0, 2.5])
        for v in (0.2, 0.7, 0.7, 2.0, 99.0):
            h.observe(v)
        lines = [
            line for line in metrics_to_prometheus(m).splitlines()
            if line.startswith("repro_s_lat_bucket")
        ]
        les = [line.split('le="')[1].split('"')[0] for line in lines]
        assert les == ["0.5", "1", "2.5", "+Inf"]
        counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == [1.0, 3.0, 4.0, 5.0]  # cumulative, +Inf == count
        assert counts == sorted(counts)

    def test_label_escaping_of_hostile_tenant_names(self):
        m = Metrics()
        key = 'tenant.he said "hi"\nserve.batch_ms'
        m.histogram(key, bounds=[1.0]).observe(0.5)
        text = metrics_to_prometheus(m)
        # raw quote and newline must be escaped in the key label
        assert 'key="tenant.he said \\"hi\\"\\nserve.batch_ms"' in text
        assert '\nserve.batch_ms"' not in text.replace(
            '\\nserve.batch_ms"', "")

    def test_per_worker_histograms_merge_after_pool_run(self):
        import repro
        from repro.pvm import Machine
        from repro.serve import ServingIndex, ServingPool

        pts = repro.workloads.uniform_cube(600, 2, seed=3)
        index = ServingIndex.build(pts, k=2, seed=9)
        queries = repro.workloads.uniform_cube(256, 2, seed=4)
        machine = Machine()
        with ServingPool(index, 2, machine=machine, min_shard=16) as pool:
            pool.execute("knn", queries)
            merged = pool.collect_worker_stats()
            assert merged is not None and merged.count >= 2  # one per shard
            # collection resets worker-side state: a second collect with no
            # new batches adds nothing
            again = pool.collect_worker_stats()
            assert again is not None and again.count == 0
        folded = machine.metrics.histograms["serve.pool_shard_ms"]
        assert folded.count == merged.count
        text = metrics_to_prometheus(machine.metrics)
        assert "# TYPE repro_serve_pool_shard_ms histogram" in text
        assert (f'repro_serve_pool_shard_ms_count'
                f'{{key="serve.pool_shard_ms"}} {float(merged.count)!r}') in text


class TestFlightRecorder:
    def _tl(self, i, total_ms):
        return RequestTimeline(request_id=f"r{i}", total_ms=total_ms)

    def test_ring_eviction_and_recent_order(self):
        rec = FlightRecorder(capacity=3, slow_k=0)
        for i in range(5):
            rec.record(self._tl(i, float(i)))
        assert len(rec) == 3 and rec.recorded == 5
        assert [t.request_id for t in rec.recent()] == ["r4", "r3", "r2"]
        assert [t.request_id for t in rec.recent(limit=1)] == ["r4"]
        assert rec.slowest() == []

    def test_slowest_k_survives_ring_eviction(self):
        rec = FlightRecorder(capacity=2, slow_k=3)
        # the slowest request arrives first and is evicted from the ring
        for i, ms in enumerate([90.0, 1.0, 2.0, 3.0, 4.0]):
            rec.record(self._tl(i, ms))
        assert [t.total_ms for t in rec.slowest()] == [90.0, 4.0, 3.0]
        assert [t.total_ms for t in rec.slowest(limit=2)] == [90.0, 4.0]

    def test_snapshot_shape(self):
        rec = FlightRecorder(capacity=4, slow_k=2)
        rec.record(self._tl(0, 5.0))
        snap = rec.snapshot()
        assert snap["recorded"] == 1 and snap["capacity"] == 4
        assert snap["recent"][0]["request_id"] == "r0"
        assert snap["slowest"][0]["total_ms"] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError, match="slow_k"):
            FlightRecorder(slow_k=-1)


class TestRequestTimeline:
    def test_ok_and_to_dict(self):
        tl = RequestTimeline(request_id="a", status=200)
        assert tl.ok
        assert not RequestTimeline(request_id="b", status=429).ok
        assert not RequestTimeline(request_id="c").ok  # status 0 = never sent
        d = tl.to_dict()
        assert d["request_id"] == "a" and d["status"] == 200
        assert "queued_ms" in d and "batch_id" in d and "cache_hit" in d


class TestSLOTracker:
    def test_attainment_and_burn_rate_exact(self):
        clock = FakeClock()
        slo = SLOTracker(10.0, objective=0.9, clock=clock)
        for _ in range(8):
            slo.record(5.0, ok=True)
        slo.record(50.0, ok=True)   # slow but successful
        slo.record(5.0, ok=False)   # fast but failed: never counts as fast
        assert slo.attainment(300) == pytest.approx(0.8)
        assert slo.burn_rate(300) == pytest.approx((1 - 0.8) / (1 - 0.9))
        assert slo.error_rate(300) == pytest.approx(0.1)
        assert slo.error_burn_rate(300) == pytest.approx(0.1 / (1 - 0.999))

    def test_empty_window_is_none(self):
        slo = SLOTracker(10.0, clock=FakeClock())
        assert slo.attainment() is None
        assert slo.burn_rate() is None
        assert slo.error_rate() is None
        assert slo.p95_ms() is None

    def test_short_window_expires_long_window_remembers(self):
        clock = FakeClock()
        slo = SLOTracker(10.0, windows_s=(300.0, 3600.0), clock=clock)
        slo.record(50.0, ok=True)  # a miss
        assert slo.burn_rate(300.0) > 1.0
        clock.advance(600.0)  # past the 5m window, within the 1h window
        assert slo.attainment(300.0) is None
        assert slo.attainment(3600.0) == pytest.approx(0.0)
        clock.advance(4000.0)  # past the 1h window: bins expire entirely
        slo.record(1.0, ok=True)
        assert slo.attainment(3600.0) == pytest.approx(1.0)
        assert slo.total == 2  # lifetime totals never expire

    def test_p95_moves_within_the_current_bin(self):
        clock = FakeClock()
        slo = SLOTracker(10.0, bin_s=5.0, clock=clock)
        assert slo.p95_ms() is None
        slo.record(20.0)
        first = slo.p95_ms()
        slo.record(500.0)  # same bin: the next read already counts it
        assert slo.p95_ms() > first
        assert slo.summary()["p95_ms"] == slo.p95_ms()

    def test_export_publishes_gauges(self):
        clock = FakeClock()
        metrics = Metrics()
        slo = SLOTracker(10.0, metrics=metrics, prefix="net.slo.blue",
                         clock=clock)
        out = slo.export()  # empty windows export only the static pair
        assert set(out) == {"net.slo.blue.target_ms", "net.slo.blue.objective"}
        slo.record(5.0, ok=True)
        out = slo.export()
        assert out["net.slo.blue.attainment_5m"] == 1.0
        assert out["net.slo.blue.burn_rate_1h"] == 0.0
        assert metrics.gauges["net.slo.blue.attainment_5m"] == 1.0

    def test_summary_shape(self):
        clock = FakeClock()
        slo = SLOTracker(25.0, clock=clock)
        slo.record(5.0, ok=True)
        slo.record(100.0, ok=False)
        s = slo.summary()
        assert s["target_ms"] == 25.0 and s["total"] == 2 and s["errors"] == 1
        assert set(s["windows"]) == {"5m", "1h"}
        assert s["windows"]["5m"]["attainment"] == pytest.approx(0.5)
        assert s["p95_ms"] == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="target_ms"):
            SLOTracker(0.0)
        with pytest.raises(ValueError, match="objective"):
            SLOTracker(10.0, objective=1.0)
        with pytest.raises(ValueError, match="error_objective"):
            SLOTracker(10.0, error_objective=0.0)
        with pytest.raises(ValueError, match="bin_s"):
            SLOTracker(10.0, bin_s=0.0)
        with pytest.raises(ValueError, match="window"):
            SLOTracker(10.0, windows_s=())
        with pytest.raises(ValueError, match="smallest window"):
            SLOTracker(10.0, windows_s=(1.0,), bin_s=5.0)

    def test_window_tag(self):
        assert SLOTracker._window_tag(300.0) == "5m"
        assert SLOTracker._window_tag(3600.0) == "1h"
        assert SLOTracker._window_tag(45.0) == "45s"
