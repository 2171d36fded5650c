"""The adaptive batching window: pure arithmetic under a fake clock.

The controller's contract: window ∝ expected batch fill (arrival rate ×
ceiling, the rate the inverse of an EWMA of inter-arrival gaps), capped
by the SLO term, zeroed for a full queue and whenever it expects less
than one more arrival, at most the ceiling, every decision exported to
the metrics registry.  All of it is deterministic given the call
sequence, so each property pins down exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.adaptive import AdaptiveWindow
from repro.obs.metrics import Metrics


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _controller(**kwargs):
    defaults = dict(ceiling_ms=20.0, max_batch=8, clock=FakeClock())
    defaults.update(kwargs)
    return AdaptiveWindow(**defaults)


def _drive_rate(win, per_second: float, arrivals: int = 200):
    """Feed a steady arrival stream until the EWMA converges."""
    t = 100.0
    for _ in range(arrivals):
        t += 1.0 / per_second
        win.on_arrival(1, now=t)
    return t


class TestWindowDecision:
    def test_idle_stream_gets_zero_window(self):
        win = _controller()
        assert win.window_ms() == 0.0  # no arrivals at all
        _drive_rate(win, per_second=1.0)  # 1/s × 20ms ≪ max_batch=8
        assert win.window_ms() < 0.1

    def test_heavy_stream_opens_to_ceiling(self):
        win = _controller()
        # 1000/s × 20ms = 20 expected ≥ max_batch=8 → full ceiling
        _drive_rate(win, per_second=1000.0)
        assert win.window_ms() == pytest.approx(20.0)

    def test_window_proportional_to_fill(self):
        win = _controller()
        # 200/s × 20ms = 4 expected = half of max_batch → half ceiling
        _drive_rate(win, per_second=200.0)
        assert win.window_ms() == pytest.approx(10.0, rel=0.1)

    def test_full_queue_never_waits(self):
        win = _controller()
        _drive_rate(win, per_second=1000.0)
        assert win.window_ms(queue_depth=8) == 0.0

    def test_same_instant_burst_counts_as_high_load(self):
        win = _controller()
        for _ in range(50):
            win.on_arrival(1, now=5.0)  # dt == 0 must not divide by zero
        assert win.rate > 1000.0


class TestServingRates:
    """The serving defaults (20 ms ceiling, 256-row batches): below about
    800 req/s no window expects a second request, so none opens."""

    WARMUP = 20  # arrivals before the gap estimate has forgotten its first gap

    def _stream(self, times):
        win = _controller(max_batch=256)
        rates, windows = [], []
        for t in times:
            win.on_arrival(1, now=t)
            rates.append(win.rate)
            windows.append(win.window_ms())
        return np.array(rates[self.WARMUP:]), np.array(windows[self.WARMUP:])

    def test_poisson_arrivals_read_their_rate_and_get_no_window(self):
        gaps = np.random.default_rng(23).exponential(1 / 180, size=4000)
        rates, windows = self._stream(100.0 + np.cumsum(gaps))
        assert np.median(rates) == pytest.approx(180.0, rel=0.15)
        # only a burst of arrivals well under a millisecond apart opens one
        assert np.mean(windows > 0) < 0.01

    def test_arrival_pairs_read_their_rate_and_get_no_window(self):
        # 90 pairs a second, each pair's two arrivals 50 us apart
        starts = 100.0 + np.arange(2000) / 90.0
        rates, windows = self._stream(np.sort(np.concatenate([starts, starts + 50e-6])))
        assert np.median(rates) == pytest.approx(180.0, rel=0.15)
        assert rates.max() < 800.0
        assert not windows.any()

    def test_steady_load_keeps_the_proportional_window(self):
        win = _controller(max_batch=256)
        _drive_rate(win, per_second=1000.0)
        # 1000/s x 20 ms = 20 expected of 256: the fill-proportional window
        assert win.window_ms() == pytest.approx(20.0 * 20 / 256)


class TestSloTerm:
    def test_p95_above_slo_shrinks_window(self):
        win = _controller(slo_p95_ms=5.0)
        _drive_rate(win, per_second=1000.0)
        base = win.window_ms()
        assert base == pytest.approx(20.0)
        for _ in range(100):
            win.on_latency(10.0)  # p95 = 2× the SLO
        assert win.window_ms() == pytest.approx(base * 0.5)

    def test_p95_under_slo_leaves_window_alone(self):
        win = _controller(slo_p95_ms=5.0)
        _drive_rate(win, per_second=1000.0)
        for _ in range(100):
            win.on_latency(1.0)
        assert win.window_ms() == pytest.approx(20.0)

    def test_observed_p95_nearest_rank(self):
        win = _controller()
        assert win.observed_p95_ms() is None
        for v in range(1, 101):
            win.on_latency(float(v))
        assert win.observed_p95_ms() == 95.0


class TestRateEstimate:
    def test_decay_idle_caps_rate_after_silence(self):
        clock = FakeClock()
        win = _controller(clock=clock)
        t = _drive_rate(win, per_second=1000.0)
        assert win.rate > 500.0
        win.decay_idle(now=t + 2.0)  # 2s of silence → rate ≤ ~0.4/s
        assert win.rate < 1.0
        assert win.window_ms() < 0.1

    def test_decay_idle_never_raises_rate(self):
        win = _controller()
        t = _drive_rate(win, per_second=5.0)
        before = win.rate
        win.decay_idle(now=t + 1e-4)  # near-zero gap: cap is huge
        assert win.rate == before


class TestExportAndValidation:
    def test_every_decision_emits_gauge_and_series(self):
        metrics = Metrics()
        win = _controller(metrics=metrics)
        _drive_rate(win, per_second=1000.0)
        for _ in range(3):
            value = win.window_ms()
        assert metrics.gauges["net.window_ms"] == pytest.approx(value)
        ticks = metrics.histograms["net.window_ticks"]
        assert ticks.count == 3
        assert ticks.sum == pytest.approx(3 * value)
        assert metrics.series == {}

    def test_validation(self):
        with pytest.raises(ValueError, match="ceiling_ms"):
            _controller(ceiling_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            _controller(max_batch=0)
        with pytest.raises(ValueError, match="alpha"):
            _controller(alpha=0.0)
