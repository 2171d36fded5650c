"""Runtime observability for the serving path: request timelines, a
flight recorder, and SLO burn-rate tracking.

Three pieces, all pure consumers of already-measured numbers — none of
them charges the (depth, work) ledger, and none of them touches request
*content*, so tracing on/off leaves responses byte-stable:

- :class:`RequestTimeline` — one request's life as a record: when it was
  admitted, how long it queued, which batch executed it (and how big
  that batch was), the execute wall time, the index version that
  answered, cache-hit status, and the final HTTP status.
- :class:`FlightRecorder` — a bounded ring of the last N timelines plus
  a slowest-K retention heap, so "what just happened" and "what were the
  worst requests" are both answerable from a live server
  (``GET /debug/requests`` / ``GET /debug/slow``) without logging every
  request.
- :class:`SLOTracker` — per-tenant rolling SLO attainment and
  multi-window burn rates (5m/1h by default) computed from time-binned
  histograms: each bin counts total/within-target/error requests, so
  attainment and error rate are exact over any whole-bin window, and a
  per-bin :class:`~repro.obs.metrics.Histogram` gives the rolling p95
  that ``/debug/vars`` and the drain summary report.

Burn-rate semantics follow the standard multi-window definition: with an
objective of ``obj`` (fraction of requests that must meet the latency
target), ``burn_rate = (1 - attainment) / (1 - obj)`` over the window —
1.0 means the error budget is being spent exactly at the sustainable
rate, >1 means faster.  The 5m window catches fast burns, the 1h window
filters noise; alerting on both high is the classic Google SRE recipe.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, Metrics

__all__ = ["FlightRecorder", "RequestTimeline", "SLOTracker"]


@dataclass
class RequestTimeline:
    """One request's end-to-end timeline, as recorded by the server.

    All durations are milliseconds; ``admitted_at`` is a wall-clock epoch
    timestamp (``time.time()``).  Batch fields are ``None`` for requests
    that never rode the batcher (direct-execute paths, mutations,
    admission rejections).
    """

    request_id: str
    kind: str = ""
    tenant: Optional[str] = None
    status: int = 0
    admitted_at: float = 0.0
    queued_ms: Optional[float] = None
    execute_ms: Optional[float] = None
    total_ms: float = 0.0
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    index_version: Optional[int] = None
    cache_hit: Optional[bool] = None
    points: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 400

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class FlightRecorder:
    """Bounded retention of request timelines: last-N ring + slowest-K heap.

    ``record`` is O(log K) worst case and allocation-light, so it sits on
    the request hot path without moving the overhead budget.  ``recent``
    returns newest-first; ``slowest`` returns worst-first by ``total_ms``.
    """

    def __init__(self, capacity: int = 256, slow_k: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_k < 0:
            raise ValueError(f"slow_k must be >= 0, got {slow_k}")
        self.capacity = capacity
        self.slow_k = slow_k
        self._ring: Deque[RequestTimeline] = deque(maxlen=capacity)
        # min-heap of (total_ms, seq, timeline): the root is the *fastest*
        # retained entry, evicted first when something slower arrives.
        self._slow: List[Tuple[float, int, RequestTimeline]] = []
        self._seq = itertools.count()
        self.recorded = 0

    def record(self, timeline: RequestTimeline) -> None:
        self._ring.append(timeline)
        self.recorded += 1
        if self.slow_k == 0:
            return
        entry = (timeline.total_ms, next(self._seq), timeline)
        if len(self._slow) < self.slow_k:
            heapq.heappush(self._slow, entry)
        elif entry[0] > self._slow[0][0]:
            heapq.heapreplace(self._slow, entry)

    def recent(self, limit: Optional[int] = None) -> List[RequestTimeline]:
        """The most recent timelines, newest first."""
        out = list(self._ring)
        out.reverse()
        return out if limit is None else out[:limit]

    def slowest(self, limit: Optional[int] = None) -> List[RequestTimeline]:
        """The slowest retained timelines, worst first."""
        out = [t for _, _, t in sorted(self._slow, reverse=True)]
        return out if limit is None else out[:limit]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump: counts plus both retention sets."""
        return {
            "recorded": self.recorded,
            "capacity": self.capacity,
            "slow_k": self.slow_k,
            "recent": [t.to_dict() for t in self.recent()],
            "slowest": [t.to_dict() for t in self.slowest()],
        }

    def __len__(self) -> int:
        return len(self._ring)


@dataclass
class _Bin:
    """One time bin of SLO accounting."""

    index: int  # floor(now / bin_s) — absolute bin number
    total: int = 0
    fast: int = 0  # requests meeting the latency target
    errors: int = 0
    hist: Histogram = field(default_factory=Histogram)


class SLOTracker:
    """Rolling SLO attainment + multi-window burn rates for one tenant.

    ``record(latency_ms, ok)`` files each request into a time bin
    (``bin_s`` wide); ``attainment``/``burn_rate``/``error_rate`` fold
    the bins covering the requested window.  Windows are whole-bin, so
    numbers are exact counts, not decayed estimates.  ``p95_ms()``
    merges the bins of the shortest window on every call.

    When ``metrics``/``prefix`` are given, :meth:`export` publishes
    ``<prefix>.attainment_5m``-style gauges into the registry (the
    server calls it at scrape time, so gauges are fresh without paying
    the fold on every request).
    """

    def __init__(
        self,
        target_ms: float,
        *,
        objective: float = 0.95,
        error_objective: float = 0.999,
        windows_s: Sequence[float] = (300.0, 3600.0),
        bin_s: float = 5.0,
        metrics: Optional[Metrics] = None,
        prefix: str = "net.slo",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if target_ms <= 0:
            raise ValueError(f"target_ms must be positive, got {target_ms}")
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if not 0.0 < error_objective < 1.0:
            raise ValueError(
                f"error_objective must be in (0, 1), got {error_objective}"
            )
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive, got {bin_s}")
        if not windows_s:
            raise ValueError("need at least one window")
        self.target_ms = target_ms
        self.objective = objective
        self.error_objective = error_objective
        self.windows_s = tuple(sorted(float(w) for w in windows_s))
        if self.windows_s[0] < bin_s:
            raise ValueError("smallest window must cover at least one bin")
        self.bin_s = bin_s
        self.metrics = metrics
        self.prefix = prefix
        self.clock = clock
        self.total = 0
        self.errors = 0
        self._bins: Deque[_Bin] = deque()
        self._max_bins = int(self.windows_s[-1] / bin_s) + 1

    # -- recording -------------------------------------------------------

    def _bin(self) -> _Bin:
        idx = int(self.clock() / self.bin_s)
        if not self._bins or self._bins[-1].index != idx:
            self._bins.append(_Bin(index=idx))
            while len(self._bins) > self._max_bins:
                self._bins.popleft()
        return self._bins[-1]

    def record(self, latency_ms: float, ok: bool = True) -> None:
        """File one completed request: its latency and success flag."""
        b = self._bin()
        b.total += 1
        self.total += 1
        if not ok:
            b.errors += 1
            self.errors += 1
        elif latency_ms <= self.target_ms:
            # only successful responses can meet the latency SLO
            b.fast += 1
        b.hist.observe(latency_ms)

    # -- window folds ----------------------------------------------------

    def _window_bins(self, window_s: float) -> List[_Bin]:
        cutoff = int(self.clock() / self.bin_s) - int(window_s / self.bin_s)
        return [b for b in self._bins if b.index > cutoff]

    def _window_counts(self, window_s: float) -> Tuple[int, int, int]:
        total = fast = errors = 0
        for b in self._window_bins(window_s):
            total += b.total
            fast += b.fast
            errors += b.errors
        return total, fast, errors

    def attainment(self, window_s: Optional[float] = None) -> Optional[float]:
        """Fraction of requests in the window that met the latency target
        (``None`` when the window is empty)."""
        total, fast, _ = self._window_counts(window_s or self.windows_s[0])
        return fast / total if total else None

    def error_rate(self, window_s: Optional[float] = None) -> Optional[float]:
        total, _, errors = self._window_counts(window_s or self.windows_s[0])
        return errors / total if total else None

    def burn_rate(self, window_s: Optional[float] = None) -> Optional[float]:
        """Latency error-budget burn rate over the window: 1.0 = spending
        the budget exactly at the sustainable rate, >1 = faster."""
        att = self.attainment(window_s)
        if att is None:
            return None
        return (1.0 - att) / (1.0 - self.objective)

    def error_burn_rate(self, window_s: Optional[float] = None) -> Optional[float]:
        rate = self.error_rate(window_s)
        if rate is None:
            return None
        return rate / (1.0 - self.error_objective)

    def p95_ms(self) -> Optional[float]:
        """Rolling p95 over the shortest window, as of this call."""
        merged: Optional[Histogram] = None
        for b in self._window_bins(self.windows_s[0]):
            if merged is None:
                merged = Histogram(b.hist.bounds)
            merged.merge(b.hist)
        return merged.percentile(95) if merged is not None else None

    # -- export ----------------------------------------------------------

    @staticmethod
    def _window_tag(window_s: float) -> str:
        if window_s % 3600 == 0:
            return f"{int(window_s // 3600)}h"
        if window_s % 60 == 0:
            return f"{int(window_s // 60)}m"
        return f"{int(window_s)}s"

    def export(self) -> Dict[str, float]:
        """Publish per-window gauges into the registry (if bound) and
        return them.  Empty windows export nothing (absence over lies)."""
        out: Dict[str, float] = {
            f"{self.prefix}.target_ms": self.target_ms,
            f"{self.prefix}.objective": self.objective,
        }
        for window_s in self.windows_s:
            tag = self._window_tag(window_s)
            for name, value in (
                ("attainment", self.attainment(window_s)),
                ("burn_rate", self.burn_rate(window_s)),
                ("error_rate", self.error_rate(window_s)),
                ("error_burn_rate", self.error_burn_rate(window_s)),
            ):
                if value is not None:
                    out[f"{self.prefix}.{name}_{tag}"] = value
        if self.metrics is not None:
            for key, value in out.items():
                self.metrics.set_gauge(key, value)
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot for drain summaries and CLI output."""
        windows = {}
        for window_s in self.windows_s:
            total, fast, errors = self._window_counts(window_s)
            windows[self._window_tag(window_s)] = {
                "total": total,
                "attainment": fast / total if total else None,
                "burn_rate": (
                    (1.0 - fast / total) / (1.0 - self.objective) if total else None
                ),
                "error_rate": errors / total if total else None,
            }
        return {
            "target_ms": self.target_ms,
            "objective": self.objective,
            "error_objective": self.error_objective,
            "total": self.total,
            "errors": self.errors,
            "p95_ms": self.p95_ms(),
            "windows": windows,
        }
