"""End-to-end request observability on the HTTP front-end (ISSUE 9).

The acceptance contract: every response carries an ``X-Request-Id``
(client-supplied ids round-trip verbatim, generated ids are
deterministic), the ``/debug/*`` endpoints serve the flight recorder
with a queued/execute breakdown, tracing on/off leaves response bytes
identical, the drain summary reports server-side histogram percentiles
and SLO state, and the seeded load generator asserts id round-trip on
every request.
"""

from __future__ import annotations

import asyncio


from repro.api import net_serve
from repro.net import NetConfig, ServerThread, http_fetch, run_load
from repro.workloads import uniform_cube

N = 300
D = 2
SEED = 23


def _fetch(port, path, payload=None, method="POST", headers=None):
    return asyncio.run(http_fetch("127.0.0.1", port, path, payload,
                                  method=method, headers=headers))


def _server(k=2, **cfg_kwargs):
    cfg_kwargs.setdefault("port", 0)
    cfg = NetConfig(**cfg_kwargs)
    pts = uniform_cube(N, D, seed=SEED)
    return net_serve(pts, k, net=cfg, seed=SEED + 1)


def _point(i=0):
    pts = uniform_cube(N, D, seed=SEED)
    return {"point": pts[i].tolist()}


class TestRequestId:
    def test_client_id_round_trips(self):
        with ServerThread(_server()) as st:
            status, _, _, headers = _fetch(
                st.port, "/v1/query", _point(),
                headers={"X-Request-Id": "my-id-042"})
        assert status == 200
        assert headers["x-request-id"] == "my-id-042"

    def test_generated_ids_are_deterministic(self):
        with ServerThread(_server()) as st:
            ids = []
            for i in range(3):
                status, _, _, headers = _fetch(st.port, "/v1/query", _point(i))
                assert status == 200
                ids.append(headers["x-request-id"])
        # per-server counter: r + 12 hex digits, strictly sequential
        assert ids == ["r000000000001", "r000000000002", "r000000000003"]

    def test_error_responses_carry_the_id(self):
        with ServerThread(_server()) as st:
            status, _, _, headers = _fetch(
                st.port, "/v1/query", {"point": "garbage"},
                headers={"X-Request-Id": "bad-req"})
            assert status == 400
            assert headers["x-request-id"] == "bad-req"
            status, _, _, headers = _fetch(
                st.port, "/nope", method="GET",
                headers={"X-Request-Id": "lost-route"})
            assert status == 404
            assert headers["x-request-id"] == "lost-route"

    def test_get_endpoints_carry_the_id(self):
        with ServerThread(_server()) as st:
            for path in ("/healthz", "/metrics", "/debug/vars"):
                _, _, _, headers = _fetch(st.port, path, method="GET")
                assert headers.get("x-request-id"), path

    def test_oversized_client_id_is_trimmed(self):
        with ServerThread(_server()) as st:
            status, _, _, headers = _fetch(
                st.port, "/v1/query", _point(),
                headers={"X-Request-Id": "x" * 500})
        assert status == 200
        assert headers["x-request-id"] == "x" * 128


class TestDebugEndpoints:
    def test_requests_and_slow_report_breakdown(self):
        with ServerThread(_server()) as st:
            for i in range(5):
                status, _, _, _ = _fetch(
                    st.port, "/v1/query", _point(i),
                    headers={"X-Request-Id": f"q-{i}"})
                assert status == 200
            status, body, _, _ = _fetch(st.port, "/debug/requests", method="GET")
            assert status == 200
            assert body["tracing"] is True and body["recorded"] == 5
            newest = body["requests"][0]
            assert newest["request_id"] == "q-4"
            assert newest["status"] == 200 and newest["kind"] == "knn"
            status, body, _, _ = _fetch(st.port, "/debug/slow", method="GET")
            assert status == 200
            worst = body["slowest"][0]
            # the breakdown the satellite requires: queue vs execute wall
            assert worst["queued_ms"] is not None
            assert worst["execute_ms"] is not None
            assert worst["total_ms"] >= worst["execute_ms"]
            assert worst["batch_size"] >= 1

    def test_limit_param_and_validation(self):
        with ServerThread(_server()) as st:
            for i in range(4):
                _fetch(st.port, "/v1/query", _point(i))
            status, body, _, _ = _fetch(
                st.port, "/debug/requests?limit=2", method="GET")
            assert status == 200 and len(body["requests"]) == 2
            status, _, _, _ = _fetch(
                st.port, "/debug/requests?limit=-1", method="GET")
            assert status == 400
            status, _, _, _ = _fetch(
                st.port, "/debug/slow?limit=zap", method="GET")
            assert status == 400

    def test_vars_snapshot(self):
        with ServerThread(_server(slo_p95_ms=100.0)) as st:
            _fetch(st.port, "/v1/query", _point())
            status, body, _, _ = _fetch(st.port, "/debug/vars", method="GET")
            assert status == 200
            assert body["tracing"] is True and not body["draining"]
            assert body["recorder"]["recorded"] == 1
            assert body["tenants"][0]["name"] == "default"
            assert "default" in body["slo"]
            assert body["counters"]["net.requests"] >= 1

    def test_tracing_off_keeps_debug_empty(self):
        with ServerThread(_server(trace_requests=False)) as st:
            _fetch(st.port, "/v1/query", _point())
            status, body, _, _ = _fetch(st.port, "/debug/requests", method="GET")
        assert status == 200
        assert body["tracing"] is False
        assert body["recorded"] == 0 and body["requests"] == []


class TestByteStability:
    def test_traced_and_untraced_responses_identical(self):
        """The zero-cost guarantee: tracing only decides *retention*."""
        pts = uniform_cube(N, D, seed=SEED)
        stream = [
            ("/v1/query", {"point": pts[i].tolist()}, f"s-{i}")
            for i in range(6)
        ] + [
            ("/v1/query", {"points": pts[6:9].tolist(), "k": 1}, "s-multi"),
            ("/v1/query", {"point": "bad"}, "s-bad"),
        ]

        def _drive(traced):
            out = []
            with ServerThread(_server(trace_requests=traced)) as st:
                for path, payload, rid in stream:
                    status, _, text, headers = _fetch(
                        st.port, path, payload,
                        headers={"X-Request-Id": rid})
                    out.append((status, text, headers["x-request-id"]))
            return out

        assert _drive(True) == _drive(False)


class TestMetricsAndDrain:
    def test_metrics_exposition_has_histograms_and_slo(self):
        with ServerThread(_server(slo_p95_ms=100.0)) as st:
            for i in range(3):
                _fetch(st.port, "/v1/query", _point(i))
            _, _, text, _ = _fetch(st.port, "/metrics", method="GET")
        assert "# TYPE repro_net_request_ms histogram" in text
        assert 'repro_net_request_ms_bucket{key="net.request_ms",le="+Inf"} 3.0' in text
        assert "# TYPE repro_serve_batch_ms histogram" in text
        assert "# TYPE repro_serve_queue_wait_ms histogram" in text
        assert 'repro_net_slo_target_ms{key="net.slo.target_ms"} 100.0' in text
        assert "repro_net_slo_attainment_5m" in text

    def test_drain_summary_reports_histogram_and_slo(self):
        st = ServerThread(_server(slo_p95_ms=100.0)).start()
        try:
            for i in range(4):
                status, _, _, _ = _fetch(st.port, "/v1/query", _point(i))
                assert status == 200
        finally:
            summary = st.stop()
        assert summary["clean"]
        rq = summary["request_ms"]
        assert rq["count"] == 4 and rq["p95"] >= rq["p50"] > 0
        slo = summary["slo"]["default"]
        assert slo["target_ms"] == 100.0 and slo["total"] == 4
        assert slo["windows"]["5m"]["attainment"] == 1.0

    def test_queue_depth_gauge_zeroed_only_after_drain(self):
        """The satellite fix: close(flush=False) leaves the gauge; the
        drain zeroes it once close_all completes."""
        st = ServerThread(_server()).start()
        try:
            _fetch(st.port, "/v1/query", _point())
            tenant = st.server.tenants.get()
        finally:
            summary = st.stop()
        assert summary["clean"]
        assert tenant.batcher.stats.queue_depth == 0


class TestLoadgenRoundTrip:
    def test_seeded_ids_round_trip_with_zero_mismatches(self):
        pts = uniform_cube(N, D, seed=SEED)
        with ServerThread(_server()) as st:
            result = asyncio.run(run_load(
                "127.0.0.1", st.port, qps=120.0, duration_s=0.5,
                points=pts, k=2, seed=5))
        assert result.sent >= 50
        assert result.ok == result.sent
        assert result.id_mismatches == 0
        assert result.to_dict()["id_mismatches"] == 0

    def test_rejections_also_counted_not_mismatched(self):
        pts = uniform_cube(N, D, seed=SEED)
        with ServerThread(_server(max_inflight=1, max_wait_ms=50.0,
                                  adaptive=False)) as st:
            result = asyncio.run(run_load(
                "127.0.0.1", st.port, qps=300.0, duration_s=0.4,
                points=pts, k=2, seed=6))
        # 429s still echo the request id, so no mismatches either way
        assert result.id_mismatches == 0
        assert result.sent == result.ok + result.rejected + result.errors
