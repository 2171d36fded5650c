"""SLO-aware adaptive batching window.

The micro-batcher's ``max_wait_ms`` is a latency/throughput dial: at 0
every request executes alone (lowest possible latency, worst per-row
cost), at its ceiling batches fill (best amortization, every request
pays the window in latency).  No fixed setting is right across load
levels — an idle service should answer instantly, an overloaded one
should batch hard — so :class:`AdaptiveWindow` moves the dial
continuously:

- the **arrival rate**, the inverse of an EWMA of inter-arrival gaps,
  estimates how many requests one full window would collect; the window
  opens in proportion to that fill (``rate * ceiling >= max_batch`` ⇒
  full ceiling), so waiting is only ever spent where it buys
  amortization;
- a window in which the rate expects less than one more request stays
  shut (``rate * window < 1`` ⇒ 0): it would only delay a batch of one.
  With a 20 ms ceiling and 256-row batches that is every rate below
  about 800 req/s;
- an observed **p95 latency** (ring buffer over recent requests) caps
  the result: while p95 exceeds the SLO the window shrinks
  proportionally, trading throughput back for latency until the SLO
  holds.

Every decision is exported as the ``net.window_ms`` gauge plus one
observation of the ``net.window_ticks`` histogram, so the controller's
behavior under any load trace is auditable from the metrics sinks alone,
in constant memory however long the server runs.  The
controller is pure arithmetic over an injectable clock — no asyncio, no
threads — and deterministic given the same call sequence.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Optional

from ..obs.metrics import Metrics

__all__ = ["AdaptiveWindow"]


class AdaptiveWindow:
    """Load- and SLO-proportional ``max_wait_ms`` controller.

    Parameters
    ----------
    ceiling_ms:
        The largest window ever issued (the fixed ``max_wait_ms`` a
        non-adaptive server would use).
    max_batch:
        The batcher's batch-size bound; with arrivals at rate ``r`` the
        controller targets the window that would collect ``max_batch``
        requests: ``ceiling * min(1, r * ceiling / max_batch)``.
    slo_p95_ms:
        Shrink the window whenever observed p95 latency exceeds this
        (``None`` disables the latency term).
    alpha:
        EWMA smoothing factor for the inter-arrival gap, in (0, 1];
        higher reacts faster.
    latency_window:
        Ring-buffer length for the p95 estimate.
    metrics:
        Registry receiving the ``net.window_ms`` gauge and
        ``net.window_ticks`` histogram (``None`` records nothing).
    clock:
        Monotonic-seconds source, injectable for tests.
    """

    def __init__(
        self,
        *,
        ceiling_ms: float,
        max_batch: int,
        slo_p95_ms: Optional[float] = None,
        alpha: float = 0.2,
        latency_window: int = 256,
        metrics: Optional[Metrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ceiling_ms < 0:
            raise ValueError(f"ceiling_ms must be >= 0, got {ceiling_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.ceiling_ms = float(ceiling_ms)
        self.max_batch = int(max_batch)
        self.slo_p95_ms = slo_p95_ms
        self.alpha = float(alpha)
        self.metrics = metrics
        self.clock = clock
        self._gap: Optional[float] = None  # EWMA seconds per arrival
        self._last_arrival: Optional[float] = None
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))

    # -- observations ------------------------------------------------------

    @property
    def rate(self) -> float:
        """The arrival-rate estimate (requests/second): the inverse of
        the EWMA inter-arrival gap, 0 before the second arrival.

        Averaging gaps rather than their inverses keeps the estimate
        unbiased: a Poisson stream's short gaps have unbounded inverses,
        and an EWMA of ``1 / gap`` at a mean 180 req/s reads near
        1,700 req/s.
        """
        return 1.0 / self._gap if self._gap else 0.0

    def on_arrival(self, count: int = 1, now: Optional[float] = None) -> None:
        """Fold ``count`` request arrivals at ``now`` into the gap EWMA
        (one gap of ``(now - last) / count`` seconds per arrival)."""
        if count < 1:
            return
        if now is None:
            now = self.clock()
        if self._last_arrival is None:
            self._last_arrival = now
            return
        # a same-instant burst counts as one microsecond, so it registers
        # as high load rather than dividing by zero
        gap = max(now - self._last_arrival, 1e-6) / count
        self._last_arrival = now
        if self._gap is None:
            self._gap = gap
        else:
            self._gap = self.alpha * gap + (1.0 - self.alpha) * self._gap

    def decay_idle(self, now: Optional[float] = None) -> None:
        """Fold an arrival-free stretch into the gap estimate.

        The EWMA only updates on arrivals, so a stream that stops would
        leave the rate frozen high; the flusher calls this on idle ticks.
        A silence of ``s`` seconds caps the rate at ``(1 - alpha) / s``.
        """
        if self._last_arrival is None or self._gap is None:
            return
        if now is None:
            now = self.clock()
        silence = now - self._last_arrival
        if silence <= 0:
            return
        cap = (1.0 - self.alpha) / silence
        if self.rate > cap:
            self._gap = 1.0 / cap if cap else None

    def on_latency(self, latency_ms: float) -> None:
        """Record one fulfilled request's wall latency (milliseconds)."""
        self._latencies.append(float(latency_ms))

    def observed_p95_ms(self) -> Optional[float]:
        """The p95 estimate the window decision uses, over the ring
        buffer (``None`` while no latency has been observed)."""
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        # nearest-rank p95 over the ring buffer
        rank = max(0, int(-(-0.95 * len(ordered) // 1)) - 1)
        return ordered[rank]

    # -- the decision ------------------------------------------------------

    def window_ms(self, queue_depth: int = 0) -> float:
        """The batching window to use right now, in milliseconds.

        Load-proportional base, SLO cap, zero when the window expects
        less than one more arrival, at most ``ceiling_ms``; every call
        emits one gauge tick.
        """
        rate = self.rate
        expected = rate * (self.ceiling_ms / 1e3)  # arrivals/ceiling
        fill = min(1.0, expected / self.max_batch)
        window = self.ceiling_ms * fill
        if queue_depth >= self.max_batch:
            window = 0.0  # a full batch must never wait
        if self.slo_p95_ms is not None and window > 0:
            p95 = self.observed_p95_ms()
            if p95 is not None and p95 > self.slo_p95_ms:
                window *= self.slo_p95_ms / p95
        if rate * window / 1e3 < 1.0:
            window = 0.0  # no request would join: answer the one waiting
        if self.metrics is not None:
            self.metrics.set_gauge("net.window_ms", window)
            self.metrics.observe_hist("net.window_ticks", window)
        return window
