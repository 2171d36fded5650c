"""Admission control: token-bucket rate limiting + bounded in-flight.

Load a server accepts but cannot serve in time is worse than load it
refuses immediately: refused requests cost one packet, queued ones hold
memory, stretch every later request's latency, and eventually blow the
SLO for *all* traffic.  The admission layer therefore sheds early:

- a :class:`TokenBucket` bounds the *sustained* request rate (burst
  capacity on top), answering 429 with an honest ``Retry-After`` when
  drained;
- an in-flight bound caps admitted-but-unanswered requests — the
  server's queueing is bounded by construction, so backpressure reaches
  clients instead of accumulating invisibly;
- per-request deadline budgets turn a stale answer into a fast 504
  (``net.deadline_exceeded``) instead of burning batch capacity on a
  response nobody is waiting for.

Everything takes an injectable monotonic clock, so the tests drive time
deterministically; nothing here touches asyncio.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from ..obs.metrics import MetricsView

__all__ = ["AdmissionController", "NetStats", "TokenBucket"]


class NetStats(MetricsView):
    """Front-end metrics, namespaced ``net.*`` in the metrics registry.

    Counters: ``requests`` (every request hitting an admission-gated
    endpoint), ``accepted``, ``rejected_rate`` (429 from the token
    bucket), ``rejected_inflight`` (429 from the in-flight bound),
    ``rejected_draining`` (503 while draining), ``deadline_exceeded``
    (504), ``queries`` / ``query_points`` / ``mutations`` / ``commits``
    (endpoint traffic), ``http_errors``.
    Gauges: ``inflight`` (admitted and unanswered right now),
    ``draining`` (0/1), ``tenants``.
    Histograms: ``request_ms`` — per-request wall latency, bucketed
    (mergeable, Prometheus ``histogram`` exposition, p50/p95/p99
    computable server-side; was a raw sample series before ISSUE 9).
    """

    _NS = "net"
    _COUNTER_FIELDS = (
        "requests",
        "accepted",
        "rejected_rate",
        "rejected_inflight",
        "rejected_draining",
        "deadline_exceeded",
        "queries",
        "query_points",
        "mutations",
        "commits",
        "http_errors",
    )
    _GAUGE_FIELDS = ("inflight", "draining", "tenants")
    _HISTOGRAM_FIELDS = ("request_ms",)


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``try_acquire`` either takes one token or reports how long until one
    will be available (the ``Retry-After`` the server sends).  A
    ``rate`` of ``None`` disables limiting — every acquire succeeds.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: int = 1,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = int(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._last = clock()

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        self._refill(self.clock())
        return self._tokens

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)

    def try_acquire(self) -> Tuple[bool, float]:
        """Take one token if available.

        Returns ``(True, 0.0)`` on success, else ``(False, wait_s)``
        where ``wait_s`` is the time until the bucket next holds a full
        token.
        """
        if self.rate is None:
            return True, 0.0
        now = self.clock()
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


class AdmissionController:
    """The gate every ``/v1/*`` request passes before touching an index.

    Combines the token bucket with the in-flight bound and keeps the
    ``net.*`` admission counters.  ``admit()`` raises nothing — it
    returns ``(ok, retry_after_s, reason)`` and lets the server render
    the 429 — so it stays usable outside the HTTP layer (the load
    generator's self-serve mode, unit tests).
    """

    def __init__(
        self,
        *,
        rate: Optional[float] = None,
        burst: int = 256,
        max_inflight: int = 1024,
        stats: Optional[NetStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.bucket = TokenBucket(rate, burst, clock=clock)
        self.max_inflight = int(max_inflight)
        self.stats = stats if stats is not None else NetStats()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Admitted requests not yet released."""
        return self._inflight

    def admit(self) -> Tuple[bool, float, str]:
        """Try to admit one request.

        Returns ``(True, 0.0, "")`` on success — the caller MUST pair it
        with exactly one :meth:`release` — or ``(False, retry_after_s,
        reason)`` with ``reason`` in ``{"rate", "inflight"}``.
        """
        self.stats.requests += 1
        if self._inflight >= self.max_inflight:
            self.stats.rejected_inflight += 1
            # in-flight drains at the serving rate; one batch window is
            # an honest lower bound for "try again"
            return False, 0.05, "inflight"
        ok, wait_s = self.bucket.try_acquire()
        if not ok:
            self.stats.rejected_rate += 1
            return False, wait_s, "rate"
        self._inflight += 1
        self.stats.accepted += 1
        self.stats.inflight = self._inflight
        return True, 0.0, ""

    def release(self) -> None:
        """Mark one admitted request answered (or abandoned)."""
        if self._inflight <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._inflight -= 1
        self.stats.inflight = self._inflight
