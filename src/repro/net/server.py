"""The asyncio HTTP front-end: admission → micro-batch → execute → respond.

:class:`NetServer` is the network face of the serving stack — the same
shape as a model-inference front-end.  A request's life:

1. **admission** (:mod:`repro.net.admission`): token bucket + in-flight
   bound; shed load answers 429 with ``Retry-After`` before touching an
   index.
2. **batching**: default-``k`` knn queries join the tenant's
   :class:`~repro.serve.batcher.Batcher` queue; a per-tenant flusher
   task executes the queue when the batching window — fixed, or steered
   by :class:`~repro.net.adaptive.AdaptiveWindow` — elapses (a full
   batch executes immediately on submit, as always).  Requests that the
   shared batcher cannot carry (``k`` override, ``kind="covering"``)
   execute directly against the same snapshot — per-row answers are
   batch-independent, so both paths are bit-identical to
   ``Batcher.submit`` on the same index version.
3. **deadline**: a request not answered within its budget gets 504 and
   a ``net.deadline_exceeded`` count; its batch slot still executes
   (the answer is simply not delivered).
4. **respond**: JSON over keep-alive HTTP/1.1; ``json.dumps`` uses
   ``repr`` floats, so float64 answers survive the wire bit-exactly.

Mutations (``POST /v1/mutate``) run on the same event loop, serialized
with queries by construction: a commit hot-swaps the tenant's batcher to
the new snapshot, which flushes the pending queue against the *old*
version first — no torn reads mid-traffic.  A rejected mutate request
leaves the tenant's pending mutations as it found them.

The server is single-loop and single-threaded; batch execution blocks
the loop for one batch's wall time.  That is a deliberate trade — it is
what serializes queries and swaps without locks, and the batch *is* the
unit of throughput — mirroring the synchronous design of the batcher
itself.  :class:`ServerThread` runs the whole loop on a background
thread for tests, benchmarks and the in-process load generator.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import Metrics
from ..obs.rt import FlightRecorder, RequestTimeline, SLOTracker
from ..serve.batcher import Ticket
from .adaptive import AdaptiveWindow
from .admission import AdmissionController, NetStats
from .config import NetConfig
from .http import (
    HttpError,
    Request,
    error_payload,
    json_response,
    read_request,
    render_response,
)
from .tenancy import DEFAULT_TENANT, Tenant, TenantManager

__all__ = ["NetServer", "ServerThread"]


class _TenantLoop:
    """Per-tenant flusher state: the waiter list, window controller and
    SLO tracker."""

    __slots__ = ("tenant", "window", "slo", "waiters", "event", "task")

    def __init__(
        self,
        tenant: Tenant,
        window: Optional[AdaptiveWindow],
        slo: Optional[SLOTracker] = None,
    ) -> None:
        self.tenant = tenant
        self.window = window
        self.slo = slo
        self.waiters: List[Tuple[Ticket, "asyncio.Future[None]"]] = []
        self.event = asyncio.Event()
        self.task: Optional["asyncio.Task[None]"] = None


class NetServer:
    """HTTP/1.1 JSON front-end over a :class:`TenantManager`.

    Endpoints
    ---------
    ``POST /v1/query``
        ``{"point": [..]}`` or ``{"points": [[..], ..]}``, optional
        ``"k"``, ``"kind"`` (``"knn"``/``"covering"``), ``"index"``
        (tenant name), ``"deadline_ms"``.  Responds with per-point
        ``results`` and the index ``version`` that answered.
    ``POST /v1/mutate``
        ``{"insert": [[..], ..], "delete": [ids], "commit": bool,
        "index": name}`` — buffers mutations on the tenant's mutable
        index; ``"commit": true`` commits, publishes the snapshot and
        hot-swaps serving mid-traffic.
    ``GET /healthz``
        200 with per-tenant state; 503 while draining.
    ``GET /metrics``
        Prometheus text exposition of the merged ``net.*`` + per-tenant
        ``serve.*`` registries (histogram families included; SLO gauges
        refreshed at scrape time).
    ``GET /debug/requests`` / ``GET /debug/slow`` / ``GET /debug/vars``
        The flight recorder (last-N timelines / slowest-K, optional
        ``?limit=``) and a one-stop variables dump (uptime, in-flight,
        tenants, SLO summaries, counters, gauges).

    Every request is assigned an ``X-Request-Id`` — client-supplied, or
    generated from a deterministic per-server counter — and the id is
    echoed on the response (success and error alike, whenever the
    request parsed far enough to have one).  With
    ``config.trace_requests`` the request's full timeline lands in the
    flight recorder; either way the response bytes are identical —
    tracing only decides what is *retained*.

    Parameters
    ----------
    tenants:
        The tenant map to serve (built via :class:`TenantManager.add`).
    config:
        Every front-end knob; see :class:`~repro.net.config.NetConfig`.
    metrics:
        Registry for the server's ``net.*`` stats (fresh by default).
    clock:
        Monotonic-seconds source for latency accounting, injectable for
        tests.
    """

    def __init__(
        self,
        tenants: TenantManager,
        *,
        config: Optional[NetConfig] = None,
        metrics: Optional[Metrics] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else tenants.config
        self.tenants = tenants
        self.metrics = metrics if metrics is not None else Metrics()
        self.stats = NetStats(metrics=self.metrics)
        self.clock = clock
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            max_inflight=self.config.max_inflight,
            stats=self.stats,
            clock=clock,
        )
        self.recorder = FlightRecorder(
            capacity=self.config.recorder_capacity,
            slow_k=self.config.recorder_slow_k,
        )
        self._rid_seq = 0
        self._started_at = time.time()
        self._loops: Dict[str, _TenantLoop] = {}
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns ``(host, port)``.

        With ``config.port=0`` the bound ephemeral port is reported here
        (and on :attr:`port`).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self.stats.tenants = len(self.tenants)
        self.stats.draining = 0
        for tenant in self.tenants.tenants():
            self._loop_state(tenant)
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start()`` first)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> Dict[str, Any]:
        """Gracefully drain and shut everything down; see
        :func:`repro.net.drain.drain`."""
        from .drain import drain

        return await drain(self)

    def _loop_state(self, tenant: Tenant) -> _TenantLoop:
        state = self._loops.get(tenant.name)
        if state is None:
            window = None
            if self.config.adaptive:
                window = AdaptiveWindow(
                    ceiling_ms=self.config.max_wait_ms,
                    max_batch=self.config.max_batch,
                    slo_p95_ms=self.config.slo_p95_ms,
                    metrics=self.metrics,
                    clock=self.clock,
                )
            slo = None
            if self.config.slo_p95_ms is not None:
                prefix = (
                    "net.slo"
                    if tenant.name == DEFAULT_TENANT
                    else f"net.slo.{tenant.name}"
                )
                slo = SLOTracker(
                    self.config.slo_p95_ms,
                    objective=self.config.slo_objective,
                    error_objective=self.config.slo_error_objective,
                    metrics=self.metrics,
                    prefix=prefix,
                    clock=self.clock,
                )
            state = _TenantLoop(tenant, window, slo)
            state.task = asyncio.get_running_loop().create_task(
                self._flusher(state), name=f"repro-net-flusher-{tenant.name}"
            )
            self._loops[tenant.name] = state
        return state

    # -- connection handling -----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except HttpError as exc:
                    self.stats.http_errors += 1
                    status, payload, headers = error_payload(exc)
                    writer.write(
                        json_response(
                            status, payload, keep_alive=False, extra_headers=headers
                        )
                    )
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                rid = self._request_id(request)
                try:
                    response = await self._route(request, rid)
                except HttpError as exc:
                    self.stats.http_errors += 1
                    status, payload, headers = error_payload(exc)
                    headers["X-Request-Id"] = rid
                    response = json_response(
                        status,
                        payload,
                        keep_alive=request.keep_alive,
                        extra_headers=headers,
                    )
                except Exception as exc:  # a handler bug must not kill the conn
                    self.stats.http_errors += 1
                    response = json_response(
                        500,
                        {"error": f"{type(exc).__name__}: {exc}", "status": 500},
                        keep_alive=request.keep_alive,
                        extra_headers={"X-Request-Id": rid},
                    )
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _request_id(self, request: Request) -> str:
        """The request's trace id: client-supplied, or generated.

        Generated ids come from a deterministic per-server counter, so
        two servers fed the same request stream assign the same ids —
        part of the byte-stability contract the overhead harness checks.
        """
        rid = request.headers.get("x-request-id", "").strip()
        if rid:
            return rid[:128]
        self._rid_seq += 1
        return f"r{self._rid_seq:012x}"

    async def _route(self, request: Request, rid: str) -> bytes:
        if request.path == "/healthz" and request.method == "GET":
            return self._handle_healthz(request, rid)
        if request.path == "/metrics" and request.method == "GET":
            return self._handle_metrics(request, rid)
        if request.path == "/v1/query" and request.method == "POST":
            return await self._handle_query(request, rid)
        if request.path == "/v1/mutate" and request.method == "POST":
            return await self._handle_mutate(request, rid)
        if request.path == "/debug/requests" and request.method == "GET":
            return self._handle_debug_requests(request, rid)
        if request.path == "/debug/slow" and request.method == "GET":
            return self._handle_debug_slow(request, rid)
        if request.path == "/debug/vars" and request.method == "GET":
            return self._handle_debug_vars(request, rid)
        raise HttpError(404, f"no route for {request.method} {request.path}")

    # -- plain endpoints ---------------------------------------------------

    def _handle_healthz(self, request: Request, rid: str) -> bytes:
        payload = {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "inflight": self.admission.inflight,
            "tenants": [t.describe() for t in self.tenants.tenants()],
        }
        status = 503 if self._draining else 200
        return json_response(
            status, payload, keep_alive=request.keep_alive,
            extra_headers={"X-Request-Id": rid},
        )

    def _export_slo(self) -> None:
        """Refresh every tenant's ``net.slo.*`` gauges (scrape-time, so
        the per-request path never pays the window fold)."""
        for state in self._loops.values():
            if state.slo is not None:
                state.slo.export()

    def _handle_metrics(self, request: Request, rid: str) -> bytes:
        self._export_slo()
        merged = self.tenants.collect_metrics(self.metrics)
        text = merged.to_prometheus()
        return render_response(
            200,
            text.encode(),
            content_type="text/plain; version=0.0.4",
            keep_alive=request.keep_alive,
            extra_headers={"X-Request-Id": rid},
        )

    # -- debug endpoints ---------------------------------------------------

    @staticmethod
    def _debug_limit(request: Request) -> Optional[int]:
        raw = request.query.get("limit")
        if raw is None:
            return None
        try:
            limit = int(raw)
        except ValueError:
            raise HttpError(400, f"bad limit {raw!r}") from None
        if limit < 0:
            raise HttpError(400, f"limit must be >= 0, got {limit}")
        return limit

    def _handle_debug_requests(self, request: Request, rid: str) -> bytes:
        payload = {
            "tracing": self.config.trace_requests,
            "recorded": self.recorder.recorded,
            "requests": [
                t.to_dict() for t in self.recorder.recent(self._debug_limit(request))
            ],
        }
        return json_response(
            200, payload, keep_alive=request.keep_alive,
            extra_headers={"X-Request-Id": rid},
        )

    def _handle_debug_slow(self, request: Request, rid: str) -> bytes:
        payload = {
            "tracing": self.config.trace_requests,
            "recorded": self.recorder.recorded,
            "slowest": [
                t.to_dict() for t in self.recorder.slowest(self._debug_limit(request))
            ],
        }
        return json_response(
            200, payload, keep_alive=request.keep_alive,
            extra_headers={"X-Request-Id": rid},
        )

    def _handle_debug_vars(self, request: Request, rid: str) -> bytes:
        self._export_slo()
        merged = self.tenants.collect_metrics(self.metrics)
        payload = {
            "uptime_s": time.time() - self._started_at,
            "draining": self._draining,
            "inflight": self.admission.inflight,
            "tracing": self.config.trace_requests,
            "tenants": [t.describe() for t in self.tenants.tenants()],
            "recorder": {
                "recorded": self.recorder.recorded,
                "retained": len(self.recorder),
                "capacity": self.recorder.capacity,
                "slow_k": self.recorder.slow_k,
            },
            "slo": {
                name: state.slo.summary()
                for name, state in sorted(self._loops.items())
                if state.slo is not None
            },
            "counters": dict(sorted(merged.counters.items())),
            "gauges": dict(sorted(merged.gauges.items())),
        }
        return json_response(
            200, payload, keep_alive=request.keep_alive,
            extra_headers={"X-Request-Id": rid},
        )

    # -- admission-gated endpoints -----------------------------------------

    def _admit(self) -> None:
        if self._draining:
            self.stats.requests += 1
            self.stats.rejected_draining += 1
            raise HttpError(503, "server is draining; not admitting requests")
        ok, retry_after, reason = self.admission.admit()
        if not ok:
            raise HttpError(
                429,
                f"over capacity ({reason}); retry after {retry_after:.3f}s",
                retry_after=retry_after,
            )

    def _record_rejection(self, rid: str, kind: str, exc: HttpError) -> None:
        """File a timeline for a request refused at the door."""
        if not self.config.trace_requests:
            return
        self.recorder.record(
            RequestTimeline(
                request_id=rid,
                kind=kind,
                status=exc.status,
                admitted_at=time.time(),
                error=exc.message,
            )
        )

    async def _handle_query(self, request: Request, rid: str) -> bytes:
        try:
            self._admit()
        except HttpError as exc:
            self._record_rejection(rid, "query", exc)
            raise
        t0 = self.clock()
        tl = RequestTimeline(request_id=rid, kind="query", admitted_at=time.time())
        state: Optional[_TenantLoop] = None
        try:
            try:
                payload = request.json()
                tenant = self._resolve_tenant(payload)
                points = self._parse_points(payload, tenant.d)
                kind = payload.get("kind", "knn")
                if kind not in ("knn", "covering"):
                    raise HttpError(400, f"unknown kind {kind!r}")
                tl.kind = kind
                tl.tenant = tenant.name
                k = payload.get("k")
                if k is not None:
                    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                        raise HttpError(400, f"k must be a positive integer, got {k!r}")
                deadline_ms = self._resolve_deadline(payload)
                state = self._loop_state(tenant)
                m = points.shape[0]
                tl.points = m
                self.stats.queries += 1
                self.stats.query_points += m
                if state.window is not None:
                    state.window.on_arrival(count=m)
                version = tenant.version
                tl.index_version = version
                if kind == "knn" and (k is None or k == tenant.k):
                    tickets = await self._submit_batched(
                        tenant, state, points, deadline_ms
                    )
                    values = [t.value for t in tickets]
                    tl.cache_hit = all(t.cached for t in tickets)
                    executed = [t for t in tickets if not t.cached]
                    if executed:
                        # multi-point requests may span batches: report the
                        # first batch's identity, the worst queue wait and
                        # the worst execute (what the request's tail paid)
                        tl.batch_id = executed[0].batch_id
                        tl.batch_size = executed[0].batch_size
                        tl.execute_ms = max(t.execute_ms or 0.0 for t in executed)
                        tl.queued_ms = max(
                            max(
                                0.0,
                                (t.completed_at - t.submitted_at) * 1e3
                                - (t.execute_ms or 0.0),
                            )
                            for t in executed
                        )
                    else:
                        tl.queued_ms = 0.0
                        tl.execute_ms = 0.0
                else:
                    # k override / covering: direct execution against the
                    # same snapshot — batch-independent, so still bit-identical
                    te0 = self.clock()
                    values = tenant.execute_direct(kind, points, k)
                    tl.execute_ms = (self.clock() - te0) * 1e3
                    tl.queued_ms = 0.0
                    tl.cache_hit = False
                results = _serialize_results(kind, values)
                latency_ms = (self.clock() - t0) * 1e3
                self.stats.request_ms.observe(latency_ms)
                if state.window is not None:
                    state.window.on_latency(latency_ms)
                tl.status = 200
                body = {
                    "index": tenant.name,
                    "version": version,
                    "kind": kind,
                    "k": tenant.k if (kind == "knn" and k is None) else k,
                    "results": results,
                }
                return json_response(
                    200, body, keep_alive=request.keep_alive,
                    extra_headers={"X-Request-Id": rid},
                )
            except HttpError as exc:
                tl.status = exc.status
                tl.error = exc.message
                raise
            except Exception as exc:
                tl.status = 500
                tl.error = f"{type(exc).__name__}: {exc}"
                raise
        finally:
            tl.total_ms = (self.clock() - t0) * 1e3
            if self.config.trace_requests:
                self.recorder.record(tl)
            if state is not None and state.slo is not None:
                state.slo.record(tl.total_ms, ok=tl.ok)
            self.admission.release()

    async def _handle_mutate(self, request: Request, rid: str) -> bytes:
        try:
            self._admit()
        except HttpError as exc:
            self._record_rejection(rid, "mutate", exc)
            raise
        t0 = self.clock()
        tl = RequestTimeline(request_id=rid, kind="mutate", admitted_at=time.time())
        try:
            payload = request.json()
            tenant = self._resolve_tenant(payload)
            tl.tenant = tenant.name
            inserts = None
            if "insert" in payload:
                inserts = self._parse_points(
                    {"points": payload["insert"]}, tenant.index.d
                )
            deletes = payload.get("delete")
            if deletes is not None:
                if not isinstance(deletes, list) or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in deletes
                ):
                    raise HttpError(400, '"delete" must be a list of integer ids')
            commit = payload.get("commit", False)
            if not isinstance(commit, bool):
                raise HttpError(400, '"commit" must be a boolean')
            n_ops = (0 if inserts is None else inserts.shape[0]) + (
                0 if deletes is None else len(deletes)
            )
            try:
                info, flushed = tenant.mutate(inserts, deletes, commit=commit)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from None
            # the swap flushed queued tickets against the old version;
            # resolve their waiting requests now
            state = self._loops.get(tenant.name)
            if state is not None:
                self._settle(state)
            self.stats.mutations += n_ops
            tl.points = n_ops
            committed = info is not None and not info.noop
            if committed:
                self.stats.commits += 1
            ins_pending, del_pending = tenant.index.pending
            tl.index_version = tenant.version
            tl.status = 200
            body: Dict[str, Any] = {
                "index": tenant.name,
                "version": tenant.version,
                "committed": committed,
                "flushed": flushed,
                "pending": {"inserts": ins_pending, "deletes": del_pending},
            }
            if info is not None:
                body["commit"] = {
                    "version": info.version,
                    "n": info.n,
                    "inserted": info.inserted,
                    "deleted": info.deleted,
                    "churn": info.churn,
                    "punted": info.punted,
                    "noop": info.noop,
                }
            return json_response(
                200, body, keep_alive=request.keep_alive,
                extra_headers={"X-Request-Id": rid},
            )
        except HttpError as exc:
            tl.status = exc.status
            tl.error = exc.message
            raise
        except Exception as exc:
            tl.status = 500
            tl.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            tl.total_ms = tl.execute_ms = (self.clock() - t0) * 1e3
            if self.config.trace_requests:
                self.recorder.record(tl)
            self.admission.release()

    # -- request plumbing --------------------------------------------------

    def _resolve_tenant(self, payload: Dict[str, Any]) -> Tenant:
        name = payload.get("index")
        if name is not None and not isinstance(name, str):
            raise HttpError(400, f'"index" must be a string, got {name!r}')
        try:
            return self.tenants.get(name)
        except KeyError as exc:
            raise HttpError(404, str(exc)) from None

    def _resolve_deadline(self, payload: Dict[str, Any]) -> Optional[float]:
        deadline = payload.get("deadline_ms", None)
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
                raise HttpError(400, f"deadline_ms must be a number, got {deadline!r}")
            if deadline <= 0:
                raise HttpError(400, f"deadline_ms must be > 0, got {deadline}")
        configured = self.config.deadline_ms
        if deadline is None:
            return configured
        if configured is not None:
            return min(float(deadline), configured)
        return float(deadline)

    @staticmethod
    def _parse_points(payload: Dict[str, Any], d: int) -> np.ndarray:
        if ("point" in payload) == ("points" in payload):
            raise HttpError(400, 'provide exactly one of "point" or "points"')
        raw = payload.get("point", payload.get("points"))
        try:
            pts = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed points: {exc}") from None
        if "point" in payload:
            if pts.ndim != 1:
                raise HttpError(400, f'"point" must be a flat list, got shape {pts.shape}')
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise HttpError(400, f"expected (m, {d}) points, got shape {pts.shape}")
        if pts.shape[1] != d:
            raise HttpError(
                400, f"dimension mismatch: index is {d}-D, points are {pts.shape[1]}-D"
            )
        if not np.all(np.isfinite(pts)):
            raise HttpError(400, "points must be finite")
        return pts

    # -- the batched read path ---------------------------------------------

    def _window_ms(self, state: _TenantLoop) -> float:
        if state.window is None:
            return self.config.max_wait_ms
        return state.window.window_ms(queue_depth=state.tenant.batcher.pending)

    def _settle(self, state: _TenantLoop) -> None:
        """Resolve waiter futures whose tickets a flush fulfilled."""
        remaining: List[Tuple[Ticket, "asyncio.Future[None]"]] = []
        for ticket, fut in state.waiters:
            if ticket.done:
                if not fut.done():
                    fut.set_result(None)
            else:
                remaining.append((ticket, fut))
        state.waiters[:] = remaining

    async def _submit_batched(
        self,
        tenant: Tenant,
        state: _TenantLoop,
        points: np.ndarray,
        deadline_ms: Optional[float],
    ) -> List[Ticket]:
        # submit() may auto-flush at max_batch, fulfilling earlier
        # waiters' tickets along the way — settle them before waiting
        tickets = [tenant.batcher.submit(row) for row in points]
        self._settle(state)
        pending = [t for t in tickets if not t.done]
        if pending:
            if self._window_ms(state) <= 0.0:
                tenant.batcher.flush()
                self._settle(state)
            else:
                loop = asyncio.get_running_loop()
                futures = []
                for ticket in pending:
                    fut: "asyncio.Future[None]" = loop.create_future()
                    state.waiters.append((ticket, fut))
                    futures.append(fut)
                state.event.set()
                timeout = deadline_ms / 1e3 if deadline_ms is not None else None
                try:
                    await asyncio.wait_for(asyncio.gather(*futures), timeout)
                except asyncio.TimeoutError:
                    self.stats.deadline_exceeded += 1
                    raise HttpError(
                        504, f"deadline of {deadline_ms:g}ms exceeded"
                    ) from None
        return tickets

    async def _flusher(self, state: _TenantLoop) -> None:
        """Per-tenant batch trigger: flush when the window elapses.

        Sleeps while the queue is empty (woken by the first waiter);
        otherwise compares the oldest waiter's age against the current
        window — fixed, or the adaptive controller's latest decision —
        and flushes when due.  Uses the batcher's own clock so ticket
        timestamps compare exactly.
        """
        tenant = state.tenant
        try:
            while True:
                if not state.waiters:
                    state.event.clear()
                    if state.window is not None:
                        state.window.decay_idle(tenant.batcher.clock())
                    await state.event.wait()
                    continue
                window_ms = self._window_ms(state)
                oldest = state.waiters[0][0].submitted_at
                elapsed_ms = (tenant.batcher.clock() - oldest) * 1e3
                if elapsed_ms >= window_ms:
                    tenant.batcher.flush()
                    self._settle(state)
                else:
                    # re-check at the earlier of window expiry and a 5ms
                    # tick (the adaptive window may shrink mid-wait)
                    await asyncio.sleep(min(window_ms - elapsed_ms, 5.0) / 1e3)
        except asyncio.CancelledError:
            pass


def _serialize_results(kind: str, values: List[Any]) -> List[Dict[str, Any]]:
    results = []
    if kind == "knn":
        for idx, sq in values:
            results.append({"ids": idx.tolist(), "sq_dists": sq.tolist()})
    else:
        for ids in values:
            results.append({"ids": ids.tolist()})
    return results


class ServerThread:
    """A :class:`NetServer` running its own event loop on a thread.

    The harness the tests, benchmarks and ``repro net load --self-serve``
    use: start, read :attr:`port`, talk HTTP over loopback, then
    :meth:`stop` (a full graceful drain).  The thread runs its own
    stdlib asyncio loop.
    """

    def __init__(self, server: NetServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.drain_summary: Optional[Dict[str, Any]] = None

    @property
    def port(self) -> int:
        port = self.server.port
        if port is None:
            raise RuntimeError("server thread not started")
        return port

    def start(self, timeout_s: float = 10.0) -> "ServerThread":
        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                try:
                    loop.run_until_complete(self.server.start())
                except BaseException as exc:  # surface bind errors to start()
                    self._startup_error = exc
                    return
                finally:
                    self._started.set()
                loop.run_forever()
                # stop() stopped the loop; the drain already ran on it
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, name="repro-net-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout_s)
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def stop(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Drain gracefully, stop the loop, join the thread."""
        if self._thread is None or self._loop is None:
            raise RuntimeError("server thread not started")
        if self.drain_summary is None:
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            self.drain_summary = future.result(timeout_s)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout_s)
        return self.drain_summary

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
