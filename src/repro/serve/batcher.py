"""Micro-batching request queue over a :class:`~repro.serve.index.ServingIndex`.

Single-point requests are cheap to answer but expensive to answer *one
at a time*: every call pays the full descent machinery for one row.  The
:class:`Batcher` collects requests into batches of up to ``max_batch``
points (or whatever has accumulated after ``max_wait_ms``) and executes
them through the vectorized batch descent, amortizing the fixed costs —
the same build-once/query-many split ParGeo's batched query layers
exploit.

The batcher is deliberately synchronous and single-threaded: ``submit``
returns a :class:`Ticket` immediately, and tickets are fulfilled when a
batch executes — on the ``submit`` that fills the batch, on a ``poll``
whose oldest request has waited past ``max_wait_ms``, or on an explicit
``flush``.  Determinism is the point: given the same request stream and
knobs, the same batches execute in the same order, and because batch
answers are bit-identical to per-point answers (see
:mod:`repro.serve.index`), the knobs can never change a result — only
the wall-clock.

An optional :class:`~repro.serve.cache.ResultCache` short-circuits
repeated points before they reach the queue; an optional
:class:`~repro.pvm.machine.Machine` records ``serve.batch`` spans (when
traced) and receives the ``serve.*`` metrics.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..obs.metrics import MetricsView
from ..pvm.machine import Machine
from .cache import ResultCache
from .index import ServingIndex

__all__ = ["Batcher", "ServeStats", "Ticket"]


class ServeStats(MetricsView):
    """Serving metrics, namespaced ``serve.*`` in the metrics registry.

    Counters: ``requests`` (accepted), ``served`` (fulfilled through an
    executed batch), ``batches``, ``cache_hits``, ``cache_misses``,
    ``swaps`` (hot index swaps absorbed mid-stream), ``dropped``
    (tickets abandoned by a no-flush shutdown).
    Gauges: ``queue_depth`` (pending requests right now), ``qps``
    (served+cached requests over the wall-clock since the first submit),
    ``last_batch_ms``, ``index_version`` (the version currently served).
    Histograms: ``batch_ms`` (execute wall per batch), ``queue_wait_ms``
    (submit-to-execute-start per ticket), ``request_ms``
    (submit-to-fulfill per ticket, cache hits included at ~0) — the
    server-side latency distributions p50/p95/p99 are computed from —
    and ``queue_depth_flush``, the queue depth sampled at each
    batch-flush trigger (the *served* depth distribution, as opposed to
    the instantaneous gauge).
    """

    _NS = "serve"
    _COUNTER_FIELDS = (
        "requests",
        "served",
        "batches",
        "cache_hits",
        "cache_misses",
        "swaps",
        "dropped",
    )
    _GAUGE_FIELDS = ("queue_depth", "qps", "last_batch_ms", "index_version")
    _HISTOGRAM_FIELDS = ("batch_ms", "queue_wait_ms", "request_ms", "queue_depth_flush")


class Ticket:
    """One accepted request: filled in when its batch executes.

    ``value`` is the per-request response (``(indices, sq_dists)`` rows
    for knn, a ball-id array for covering); reading it before ``done``
    raises.  ``submitted_at``/``completed_at`` are clock readings for
    latency accounting; ``cached`` marks cache hits (fulfilled on
    submit).  ``batch_id``/``batch_size``/``execute_ms`` identify the
    batch that answered (``None`` until fulfilled, and forever for cache
    hits) so request timelines can attribute queue vs execute time.
    """

    __slots__ = (
        "done", "cached", "submitted_at", "completed_at", "_value",
        "batch_id", "batch_size", "execute_ms",
    )

    def __init__(self, submitted_at: float) -> None:
        self.done = False
        self.cached = False
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self._value: Any = None
        self.batch_id: Optional[int] = None
        self.batch_size: Optional[int] = None
        self.execute_ms: Optional[float] = None

    @property
    def value(self) -> Any:
        if not self.done:
            raise RuntimeError("ticket not fulfilled yet; flush() the batcher")
        return self._value

    def _fulfill(self, value: Any, now: float, cached: bool = False) -> None:
        self._value = value
        self.done = True
        self.cached = cached
        self.completed_at = now

    @property
    def latency_s(self) -> float:
        """Submit-to-fulfill wall seconds (raises before fulfillment)."""
        if self.completed_at is None:
            raise RuntimeError("ticket not fulfilled yet")
        return self.completed_at - self.submitted_at


class Batcher:
    """Collects point requests and serves them in vectorized batches.

    Parameters
    ----------
    index:
        The frozen serving artifact.
    kind:
        Request kind every submit uses, ``"knn"`` or ``"covering"``.
    k:
        Neighbors per knn request (default: the index's ``k``).
    max_batch:
        Execute as soon as this many requests are pending.
    max_wait_ms:
        A ``poll()`` executes the pending batch once its *oldest* request
        has waited this long; ``None`` means only ``max_batch``/``flush``
        trigger execution.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    machine:
        Optional machine whose tracer records ``serve.batch`` spans and
        whose metrics registry receives the ``serve.*`` stats.
    pool:
        Optional :class:`~repro.serve.mp.ServingPool` the batcher owns:
        batches fan out across its workers and ``close()`` shuts it down.
        Without one, batches execute on ``index``.
    clock:
        Monotonic-seconds source, injectable for tests.
    """

    def __init__(
        self,
        index: ServingIndex,
        *,
        kind: str = "knn",
        k: Optional[int] = None,
        max_batch: int = 256,
        max_wait_ms: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        machine: Optional[Machine] = None,
        pool: Optional[Any] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms is not None and max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.index = index
        self.kind = kind
        self.k = index.resolve_k(k) if kind == "knn" else index.k
        self.max_batch = int(max_batch)
        self.max_wait_ms = max_wait_ms
        self.cache = cache
        self.machine = machine
        self.pool = pool
        #: Executes one batch, ``(kind, queries, k) -> BatchResponse``: the
        #: pool when the batcher owns one, else the served index.
        self.executor = pool.execute if pool is not None else index.execute
        self.clock = clock
        self.stats = ServeStats(metrics=machine.metrics if machine is not None else None)
        self.stats.index_version = index.version
        self._queue_points: List[np.ndarray] = []
        self._queue_tickets: List[Ticket] = []
        self._first_submit: Optional[float] = None
        self._batch_seq = 0
        self._closed = False
        if kind not in ("knn", "covering"):
            raise ValueError(f"unknown request kind {kind!r}")

    # -- intake ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests queued but not yet executed."""
        return len(self._queue_tickets)

    def submit(self, point: np.ndarray) -> Ticket:
        """Accept one query point; returns its :class:`Ticket`.

        Cache hits fulfill immediately; otherwise the point queues, and
        reaching ``max_batch`` executes the batch before returning.  A
        point of the wrong shape or with a NaN/inf coordinate raises
        ``ValueError`` here, so it never reaches a batch whose other
        requests it would fail.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        p = np.ascontiguousarray(point, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] != self.index.d:
            raise ValueError(f"expected a ({self.index.d},) point, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("query point must be finite")
        now = self.clock()
        if self._first_submit is None:
            self._first_submit = now
        self.stats.requests += 1
        ticket = Ticket(now)
        if self.cache is not None:
            key = self.cache.make_key(self.kind, self.k, p, self.index.version)
            hit = self.cache.get(key)
            if hit is not None:
                ticket._fulfill(hit, now, cached=True)
                self.stats.cache_hits += 1
                self.stats.request_ms.observe(0.0)
                self._update_qps(now)
                return ticket
            self.stats.cache_misses += 1
        self._queue_points.append(p)
        self._queue_tickets.append(ticket)
        self.stats.queue_depth = self.pending
        if self.pending >= self.max_batch:
            self.flush()
        return ticket

    def submit_many(self, points: np.ndarray) -> List[Ticket]:
        """Submit each row of ``points``; batches execute as they fill.

        Every row is checked before any is queued: a bad row rejects the
        whole call.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.index.d:
            raise ValueError(f"expected (m, {self.index.d}) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("query points must be finite")
        return [self.submit(row) for row in pts]

    # -- execution ---------------------------------------------------------

    def poll(self) -> int:
        """Execute the pending batch if its oldest request has waited
        past ``max_wait_ms``; returns the number of requests served."""
        if (
            self.max_wait_ms is None
            or not self._queue_tickets
            or (self.clock() - self._queue_tickets[0].submitted_at) * 1e3 < self.max_wait_ms
        ):
            return 0
        return self.flush()

    def flush(self) -> int:
        """Execute everything pending (in ``max_batch`` chunks); returns
        the number of requests served.  A no-op on an empty queue."""
        served = 0
        if self._queue_tickets:
            # sample the depth at the flush trigger (before executing):
            # the distribution of served batch sizes, exported as the
            # serve.queue_depth_flush histogram through both sinks
            self.stats.queue_depth = self.pending
            self.stats.queue_depth_flush.observe(self.pending)
        while self._queue_tickets:
            chunk = min(self.max_batch, len(self._queue_tickets))
            points = self._queue_points[:chunk]
            tickets = self._queue_tickets[:chunk]
            del self._queue_points[:chunk]
            del self._queue_tickets[:chunk]
            self._execute(np.stack(points), tickets)
            served += chunk
        self.stats.queue_depth = self.pending
        return served

    def _execute(self, batch: np.ndarray, tickets: Sequence[Ticket]) -> None:
        m = batch.shape[0]
        t0 = self.clock()
        if self.machine is not None and self.machine.tracer is not None:
            with self.machine.span(
                "serve.batch", n=m, kind=self.kind, k=self.k, pending=self.pending
            ):
                response = self.executor(self.kind, batch, self.k)
        else:
            response = self.executor(self.kind, batch, self.k)
        now = self.clock()
        per_request = self.index.split_response(self.kind, response, m)
        self._batch_seq += 1
        execute_ms = (now - t0) * 1e3
        self.stats.batch_ms.observe(execute_ms)
        for point, ticket, value in zip(batch, tickets, per_request):
            ticket._fulfill(value, now)
            ticket.batch_id = self._batch_seq
            ticket.batch_size = m
            ticket.execute_ms = execute_ms
            self.stats.queue_wait_ms.observe(max(0.0, (t0 - ticket.submitted_at) * 1e3))
            self.stats.request_ms.observe(max(0.0, (now - ticket.submitted_at) * 1e3))
            if self.cache is not None:
                self.cache.put(
                    self.cache.make_key(self.kind, self.k, point, self.index.version),
                    value,
                )
        self.stats.batches += 1
        self.stats.served += m
        self.stats.last_batch_ms = execute_ms
        self._update_qps(now)

    # -- hot swap ----------------------------------------------------------

    def swap_index(self, index: ServingIndex) -> int:
        """Atomically switch serving to a new index version, zero downtime.

        The pending queue is flushed against the *old* index first — a
        request accepted under version ``v`` is always answered by
        version ``v``, so no ticket ever sees a torn read.  Requests
        submitted after this call are answered by the new index, and the
        version-keyed cache guarantees no stale entry can match them.

        When the batcher drives a :class:`~repro.serve.mp.ServingPool`,
        the pool's workers are re-seeded via
        :meth:`~repro.serve.mp.ServingPool.swap` before the batcher
        rebinds; in-process the rebind alone suffices.  The batcher keeps
        no reference to the old index, so a superseded version is freed
        once its last caller lets go of it.

        Returns the number of pending requests flushed against the old
        index.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        if index.d != self.index.d:
            raise ValueError(
                f"dimension mismatch: serving {self.index.d}-D, new index is {index.d}-D"
            )
        if self.kind == "covering" and index.system is None:
            raise ValueError("covering batcher needs an index with a k-neighborhood system")
        flushed = self.flush()
        if self.pool is not None:
            self.pool.swap(index)
        else:
            self.executor = index.execute
        self.index = index
        self.stats.swaps += 1
        self.stats.index_version = index.version
        if self.cache is not None:
            # stale entries could never *match* again (keys carry the
            # version), but they would occupy LRU slots until they age
            # out — evict them eagerly so repeated swaps stay bounded
            # by live entries, not by capacity times version count
            self.cache.evict_stale(index.version)
        return flushed

    def _update_qps(self, now: float) -> None:
        answered = self.stats.served + self.stats.cache_hits
        if self._first_submit is None or answered == 0:
            return
        elapsed = now - self._first_submit
        self.stats.qps = answered / elapsed if elapsed > 0 else float("inf")

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, flush: bool = True) -> None:
        """Stop accepting requests; by default serve what's pending first.

        With ``flush=False`` pending tickets stay unfulfilled (the
        mid-stream shutdown path) — the queue is dropped, never half-run.
        The dropped count lands in the ``serve.dropped`` counter, and the
        ``queue_depth`` gauge is deliberately *left alone*: zeroing it
        here made a mid-drain ``/metrics`` scrape report an empty queue
        while tickets were still being abandoned.  The drain protocol
        clears the gauge once the whole shutdown has completed
        (:func:`repro.net.drain.drain`).
        """
        if self._closed:
            return
        if flush:
            self.flush()
        else:
            self.stats.dropped += self.pending
            self._queue_points.clear()
            self._queue_tickets.clear()
        self._closed = True
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "Batcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close(flush=exc == (None, None, None))
