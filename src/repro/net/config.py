"""Configuration for the network front-end, `CommonConfig`-style.

One frozen-by-convention dataclass carries every knob of the serving
front-end — socket, batching window, admission control, deadlines,
drain — so :func:`repro.api.net_serve`, the ``repro net`` CLI and the
tests all construct servers the same way.  Validation happens eagerly in
``__post_init__`` (mirroring :class:`repro.core.config.CommonConfig`),
so a bad knob fails at construction, not mid-request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["NetConfig"]


@dataclass
class NetConfig:
    """Every knob of the asyncio serving front-end.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        port is reported by :meth:`~repro.net.server.NetServer.start`),
        which is what the tests and the loopback benchmark use.
    max_batch:
        Batch-size bound of each tenant's
        :class:`~repro.serve.batcher.Batcher` — a full queue executes
        immediately regardless of the window.
    max_wait_ms:
        The batching-window *ceiling*: no admitted request waits longer
        than this for its batch to fill.  With ``adaptive=True`` the
        effective window moves between 0 and this ceiling with load;
        with ``adaptive=False`` it is pinned at the ceiling.
    adaptive:
        SLO-aware window adaptation (see :mod:`repro.net.adaptive`):
        shrink toward 0 when the queue is shallow and arrivals are slow,
        grow toward the ceiling under load.
    slo_p95_ms:
        Latency target the adaptive controller steers under: when the
        observed p95 request latency exceeds it, the window shrinks even
        under load.  ``None`` disables the latency term (pure
        load-proportional control).
    rate, burst:
        Token-bucket admission: sustained requests/second and bucket
        capacity.  ``rate=None`` disables rate limiting (the in-flight
        bound still applies).
    max_inflight:
        Bound on admitted-but-unanswered requests; past it the server
        sheds load with HTTP 429 + ``Retry-After`` instead of queueing
        without bound.
    deadline_ms:
        Default per-request latency budget; a request not answered
        within it gets HTTP 504 and a ``net.deadline_exceeded`` count
        (requests may override per call, capped at this default when
        set).  ``None`` means no default deadline.
    cache_size:
        Entries of each tenant's :class:`~repro.serve.cache.ResultCache`
        (``0`` disables caching), exactly as in :func:`repro.api.serve`.
    serve_workers:
        Fan batches across a per-tenant
        :class:`~repro.serve.mp.ServingPool` of this many worker
        processes (``None`` = serve in-process).
    drain_timeout_s:
        Upper bound on the graceful-drain wait for in-flight requests;
        past it the drain proceeds anyway (never leaking the pool).
    max_body_bytes:
        Largest accepted request body (HTTP 413 past it).
    trace_requests:
        Record a :class:`~repro.obs.rt.RequestTimeline` per request into
        the flight recorder (and feed the SLO tracker).  Off, the
        ``/debug/*`` endpoints answer with an empty recorder; responses
        are byte-identical either way (``X-Request-Id`` is always
        echoed/assigned — tracing only decides whether a timeline is
        *retained*).
    recorder_capacity, recorder_slow_k:
        Flight-recorder retention: ring size for the last-N timelines
        and K for the slowest-request heap.
    slo_objective, slo_error_objective:
        SLO targets per tenant: the fraction of requests that must meet
        ``slo_p95_ms`` (latency objective) and the availability
        objective the error burn rate is computed against.  Trackers are
        created only when ``slo_p95_ms`` is set.
    """

    host: str = "127.0.0.1"
    port: int = 8377
    max_batch: int = 256
    max_wait_ms: float = 20.0
    adaptive: bool = True
    slo_p95_ms: Optional[float] = None
    rate: Optional[float] = None
    burst: int = 256
    max_inflight: int = 1024
    deadline_ms: Optional[float] = None
    cache_size: int = 1024
    serve_workers: Optional[int] = None
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 8 << 20
    trace_requests: bool = True
    recorder_capacity: int = 256
    recorder_slow_k: int = 16
    slo_objective: float = 0.95
    slo_error_objective: float = 0.999

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.slo_p95_ms is not None and self.slo_p95_ms <= 0:
            raise ValueError(f"slo_p95_ms must be > 0, got {self.slo_p95_ms}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.recorder_capacity < 1:
            raise ValueError(
                f"recorder_capacity must be >= 1, got {self.recorder_capacity}"
            )
        if self.recorder_slow_k < 0:
            raise ValueError(
                f"recorder_slow_k must be >= 0, got {self.recorder_slow_k}"
            )
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError(
                f"slo_objective must be in (0, 1), got {self.slo_objective}"
            )
        if not 0.0 < self.slo_error_objective < 1.0:
            raise ValueError(
                f"slo_error_objective must be in (0, 1), got {self.slo_error_objective}"
            )
