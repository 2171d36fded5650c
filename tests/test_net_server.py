"""Loopback integration of the HTTP front-end.

The acceptance contract (ISSUE 8): every ``/v1/query`` answer is
bit-identical to ``Batcher.submit`` against the same index version —
including under a mid-traffic mutate commit + hot swap — no request is
dropped during a graceful drain, overload sheds with 429s, deadlines
return 504, and a pooled server drains leak-free.

Every test spins its own :class:`ServerThread` on an ephemeral port and
talks real HTTP over loopback via the shared minimal client.
"""

from __future__ import annotations

import asyncio
import glob
import json
import socket
import threading

import numpy as np
import pytest

from repro.api import net_serve
from repro.core.online import equivalence_report
from repro.net import NetConfig, ServerThread, http_request
from repro.parallel.shm import SHM_PREFIX
from repro.workloads import uniform_cube

N = 400
D = 2
SEED = 17


def _request(port, path, payload=None, method="POST", timeout_s=30.0):
    return asyncio.run(http_request("127.0.0.1", port, path, payload,
                                    method=method, timeout_s=timeout_s))


def _server(k=2, points=None, **cfg_kwargs):
    cfg_kwargs.setdefault("port", 0)
    cfg = NetConfig(**cfg_kwargs)
    pts = points if points is not None else uniform_cube(N, D, seed=SEED)
    return net_serve(pts, k, net=cfg, seed=SEED + 1)


def _as_f64(nested):
    return np.asarray(nested, dtype=np.float64)


class TestEndpoints:
    def test_healthz_reports_tenants(self):
        with ServerThread(_server()) as st:
            status, body, _ = _request(st.port, "/healthz", method="GET")
        assert status == 200
        assert body["status"] == "ok" and not body["draining"]
        (tenant,) = body["tenants"]
        assert tenant["name"] == "default" and tenant["n"] == N
        assert tenant["version"] == 0

    def test_metrics_exposition(self):
        with ServerThread(_server()) as st:
            _request(st.port, "/v1/query", {"point": [0.5, 0.5]})
            status, _, text = _request(st.port, "/metrics", method="GET")
        assert status == 200
        assert "repro_net_requests_total" in text
        assert "repro_net_queries_total" in text
        assert "repro_serve_served_total" in text  # default tenant, unprefixed

    def test_unknown_route_404(self):
        with ServerThread(_server()) as st:
            status, body, _ = _request(st.port, "/v1/nope", {})
        assert status == 404 and "no route" in body["error"]

    @pytest.mark.parametrize("payload,fragment", [
        ({"point": [0.1]}, "dimension mismatch"),
        ({"point": [0.1, 0.2], "points": [[0.1, 0.2]]}, "exactly one"),
        ({}, "exactly one"),
        ({"point": [float("nan"), 0.0]}, "finite"),
        ({"point": [0.1, 0.2], "k": 0}, "positive integer"),
        ({"point": [0.1, 0.2], "kind": "telepathy"}, "unknown kind"),
        ({"point": [0.1, 0.2], "index": "nope"}, "unknown index"),
        ({"point": [0.1, 0.2], "deadline_ms": -1}, "deadline_ms"),
    ])
    def test_bad_query_payloads_4xx(self, payload, fragment):
        with ServerThread(_server()) as st:
            status, body, _ = _request(st.port, "/v1/query", payload)
        assert status in (400, 404)
        assert fragment in body["error"]

    def test_malformed_json_body_400(self):
        async def _send_garbage(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 5\r\nConnection: close\r\n\r\n{nope")
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            return raw

        with ServerThread(_server()) as st:
            # empty body parses as {} -> must name a point
            status, body, _ = _request(st.port, "/v1/query", None)
            assert status == 400 and "exactly one" in body["error"]
            raw = asyncio.run(_send_garbage(st.port))
        head, _, tail = raw.partition(b"\r\n\r\n")
        assert b"400 Bad Request" in head
        assert b"malformed JSON" in tail


class TestLoopbackEquivalence:
    def test_single_queries_bit_identical_to_batcher(self):
        server = _server(k=2)
        snap = server.tenants.get().batcher.index
        probes = np.vstack([uniform_cube(12, D, seed=23),
                            snap.points[:4]])  # exact data points too
        want_idx, want_sq = snap.execute("knn", probes, 2)
        with ServerThread(server) as st:
            for i, probe in enumerate(probes):
                status, body, _ = _request(
                    st.port, "/v1/query", {"point": probe.tolist()})
                assert status == 200
                assert body["version"] == 0 and body["k"] == 2
                (res,) = body["results"]
                np.testing.assert_array_equal(res["ids"], want_idx[i])
                # float64 over JSON is repr-round-tripped: bit-exact
                assert _as_f64(res["sq_dists"]).tobytes() == \
                    want_sq[i].tobytes()

    def test_batched_multi_point_query(self):
        server = _server(k=1)
        snap = server.tenants.get().batcher.index
        probes = uniform_cube(9, D, seed=29)
        want_idx, want_sq = snap.execute("knn", probes, 1)
        with ServerThread(server) as st:
            status, body, _ = _request(
                st.port, "/v1/query", {"points": probes.tolist()})
        assert status == 200
        assert len(body["results"]) == 9
        for i, res in enumerate(body["results"]):
            np.testing.assert_array_equal(res["ids"], want_idx[i])
            assert _as_f64(res["sq_dists"]).tobytes() == want_sq[i].tobytes()

    def test_k_override_bypasses_batcher_but_stays_exact(self):
        server = _server(k=1)
        snap = server.tenants.get().batcher.index
        probes = uniform_cube(5, D, seed=31)
        want_idx, want_sq = snap.execute("knn", probes, 3)
        with ServerThread(server) as st:
            status, body, _ = _request(
                st.port, "/v1/query", {"points": probes.tolist(), "k": 3})
        assert status == 200 and body["k"] == 3
        for i, res in enumerate(body["results"]):
            np.testing.assert_array_equal(res["ids"], want_idx[i])
            assert _as_f64(res["sq_dists"]).tobytes() == want_sq[i].tobytes()

    def test_mutate_commit_swaps_mid_traffic(self):
        server = _server(k=1)
        tenant = server.tenants.get()
        probe = uniform_cube(1, D, seed=37)[0]
        with ServerThread(server) as st:
            status, before, _ = _request(
                st.port, "/v1/query", {"point": probe.tolist()})
            assert status == 200 and before["version"] == 0
            # delete the probe's nearest neighbor, insert replacements
            victim = before["results"][0]["ids"][0]
            rng = np.random.default_rng(41)
            status, mut, _ = _request(st.port, "/v1/mutate", {
                "insert": rng.random((3, D)).tolist(),
                "delete": [victim],
                "commit": True,
            })
            assert status == 200
            assert mut["committed"] and mut["version"] == 1
            assert mut["commit"]["inserted"] == 3
            assert mut["commit"]["deleted"] == 1
            assert mut["pending"] == {"inserts": 0, "deletes": 0}
            status, after, _ = _request(
                st.port, "/v1/query", {"point": probe.tolist()})
            assert status == 200 and after["version"] == 1
            # post-swap answers are bit-identical to the new snapshot...
            snap = tenant.batcher.index
            want_idx, want_sq = snap.execute("knn", probe[None, :], 1)
            np.testing.assert_array_equal(
                after["results"][0]["ids"], want_idx[0])
            assert _as_f64(after["results"][0]["sq_dists"]).tobytes() == \
                want_sq[0].tobytes()
            # ...and genuinely differ from the old version's
            assert after["results"][0]["ids"][0] != victim

    def test_mutate_without_commit_buffers(self):
        with ServerThread(_server()) as st:
            status, body, _ = _request(st.port, "/v1/mutate", {
                "insert": [[0.5, 0.5], [0.25, 0.75]],
            })
            assert status == 200
            assert not body["committed"] and body["version"] == 0
            assert body["pending"] == {"inserts": 2, "deletes": 0}
            status, body, _ = _request(st.port, "/v1/mutate", {
                "delete": ["x"],
            })
            assert status == 400

    @pytest.mark.parametrize("rejected,fragment", [
        ({"insert": [[0.1, 0.1]], "delete": [N]}, "delete ids"),
        ({"delete": list(range(N - 1)), "commit": True}, "commit would leave"),
    ])
    def test_rejected_mutate_leaves_pending_unchanged(self, rejected, fragment):
        """One ``/v1/mutate`` request is all-or-nothing: a 400 restores
        the pending buffers an earlier request left, and the next commit
        applies exactly the accepted mutations."""
        server = _server(k=2)
        tenant = server.tenants.get()
        points = tenant.index.points
        buffered, committed = [0.7, 0.7], [0.2, 0.3]
        with ServerThread(server) as st:
            status, body, _ = _request(st.port, "/v1/mutate", {"insert": [buffered]})
            assert status == 200 and body["pending"] == {"inserts": 1, "deletes": 0}
            status, body, _ = _request(st.port, "/v1/mutate", rejected)
            assert status == 400 and fragment in body["error"]
            assert tenant.index.pending == (1, 0)
            status, body, _ = _request(
                st.port, "/v1/mutate", {"insert": [committed], "commit": True})
            assert status == 200, body
            assert body["commit"]["inserted"] == 2 and body["commit"]["deleted"] == 0
        expected = np.vstack([points, [buffered, committed]])
        assert equivalence_report(
            tenant.index, tenant.index.fresh_like(expected)) == []

    def test_requests_leave_metric_series_bounded(self):
        """A long-running server keeps its decision records as histograms:
        no request appends to a sample series in any registry."""
        server = _server(k=1)
        registries = [server.metrics, server.tenants.get().machine.metrics]
        probes = uniform_cube(200, D, seed=53)
        with ServerThread(server) as st:
            _request(st.port, "/v1/query", {"point": probes[0].tolist()})
            before = [{k: len(v) for k, v in m.series.items()} for m in registries]
            for probe in probes:
                status, _, _ = _request(st.port, "/v1/query", {"point": probe.tolist()})
                assert status == 200
            after = [{k: len(v) for k, v in m.series.items()} for m in registries]
        assert after == before
        # every request still records its window decision
        assert server.metrics.histograms["net.window_ticks"].count >= 200

    def test_queued_requests_answered_by_old_version_across_swap(self):
        """A request admitted under version v is answered by version v,
        even when a commit + swap lands while it waits for its batch."""
        server = _server(k=1, adaptive=False, max_wait_ms=4000.0)
        tenant = server.tenants.get()
        old_snap = tenant.batcher.index
        probe = uniform_cube(1, D, seed=43)[0]
        want_idx, want_sq = old_snap.execute("knn", probe[None, :], 1)
        result = {}

        def _slow_query():
            result["response"] = _request(
                st.port, "/v1/query", {"point": probe.tolist()})

        with ServerThread(server) as st:
            t = threading.Thread(target=_slow_query)
            t.start()
            # wait until the query is actually queued in the batcher
            for _ in range(2000):
                if tenant.batcher.pending:
                    break
                threading.Event().wait(0.005)
            assert tenant.batcher.pending == 1
            status, mut, _ = _request(st.port, "/v1/mutate", {
                "insert": np.random.default_rng(47).random((2, D)).tolist(),
                "commit": True,
            })
            assert mut["committed"] and mut["flushed"] == 1
            t.join(timeout=30)
            assert not t.is_alive()
        status, body, _ = result["response"]
        assert status == 200
        assert body["version"] == 0  # the version that admitted it
        np.testing.assert_array_equal(body["results"][0]["ids"], want_idx[0])
        assert _as_f64(body["results"][0]["sq_dists"]).tobytes() == \
            want_sq[0].tobytes()


class TestBackpressure:
    def test_rate_limit_sheds_with_429_and_retry_after(self):
        server = _server(rate=1.0, burst=1)
        with ServerThread(server) as st:
            status, _, _ = _request(st.port, "/v1/query", {"point": [0.5, 0.5]})
            assert status == 200

            async def _raw():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", st.port)
                body = json.dumps({"point": [0.5, 0.5]}).encode()
                writer.write((
                    "POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n").encode() + body)
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                await writer.wait_closed()
                return raw

            raw = asyncio.run(_raw())
            head = raw.partition(b"\r\n\r\n")[0].decode()
            assert "429 Too Many Requests" in head
            assert "Retry-After: 1" in head
            status, _, text = _request(st.port, "/metrics", method="GET")
        assert 'repro_net_rejected_rate_total{key="net.rejected_rate"} 1.0' \
            in text

    def test_deadline_exceeded_is_504(self):
        # fixed 2s window, no other traffic: a 5ms deadline must fire
        server = _server(adaptive=False, max_wait_ms=2000.0)
        with ServerThread(server) as st:
            status, body, _ = _request(
                st.port, "/v1/query",
                {"point": [0.5, 0.5], "deadline_ms": 5})
            assert status == 504 and "deadline" in body["error"]
            status, _, text = _request(st.port, "/metrics", method="GET")
            assert "repro_net_deadline_exceeded_total" in text
            summary = st.stop()
        # the 504'd slot still executed at drain; nothing leaked or hung
        assert summary["clean"]

    def test_server_config_deadline_caps_requested(self):
        server = _server(adaptive=False, max_wait_ms=2000.0, deadline_ms=5.0)
        with ServerThread(server) as st:
            status, body, _ = _request(
                st.port, "/v1/query",
                {"point": [0.5, 0.5], "deadline_ms": 60000})
        assert status == 504  # capped at the server's 5ms default


class TestDrain:
    def test_drain_completes_inflight_requests(self):
        server = _server(k=1, adaptive=False, max_wait_ms=8000.0)
        snap = server.tenants.get().batcher.index
        probe = uniform_cube(1, D, seed=53)[0]
        want_idx, _ = snap.execute("knn", probe[None, :], 1)
        result = {}

        def _waiting_query():
            result["response"] = _request(
                st.port, "/v1/query", {"point": probe.tolist()})

        st = ServerThread(server).start()
        t = threading.Thread(target=_waiting_query)
        t.start()
        for _ in range(2000):
            if server.tenants.get().batcher.pending:
                break
            threading.Event().wait(0.005)
        summary = st.stop()
        t.join(timeout=30)
        assert not t.is_alive()
        status, body, _ = result["response"]
        assert status == 200  # drained, not dropped
        np.testing.assert_array_equal(body["results"][0]["ids"], want_idx[0])
        assert summary["clean"] and summary["inflight_remaining"] == 0
        assert summary["flushed"] >= 1

    def test_drain_is_idempotent_and_rejects_new_requests(self):
        server = _server()
        st = ServerThread(server).start()
        first = st.stop()
        assert st.stop() is first
        assert server.draining
        with pytest.raises((ConnectionError, OSError)):
            _request(st.port, "/healthz", method="GET", timeout_s=2.0)

    def test_pooled_server_drains_leak_free(self):
        before = set(glob.glob(f"/dev/shm/{SHM_PREFIX}*"))
        server = _server(k=1, serve_workers=2)
        snap = server.tenants.get().batcher.index
        probes = uniform_cube(6, D, seed=59)
        want_idx, _ = snap.execute("knn", probes, 1)
        with ServerThread(server) as st:
            status, body, _ = _request(
                st.port, "/v1/query", {"points": probes.tolist()})
            assert status == 200
            for i, res in enumerate(body["results"]):
                np.testing.assert_array_equal(res["ids"], want_idx[i])
        assert set(glob.glob(f"/dev/shm/{SHM_PREFIX}*")) <= before


class TestReadPathFaults:
    """A client that goes away mid-request costs only its own connection."""

    @staticmethod
    def _raw_query(port, point):
        body = json.dumps({"point": point}).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        return sock

    @staticmethod
    def _wait_pending(server, count):
        for _ in range(2000):
            if server.tenants.get().batcher.pending >= count:
                return
            threading.Event().wait(0.005)
        raise AssertionError(f"never saw {count} pending requests")

    def test_client_disconnect_mid_batch_spares_the_batch(self):
        server = _server(adaptive=False, max_wait_ms=2000.0)
        snap = server.tenants.get().batcher.index
        gone, stays = uniform_cube(2, D, seed=61)
        want_idx, want_sq = snap.execute("knn", stays[None, :], 2)
        result = {}
        st = ServerThread(server).start()
        try:
            sock = self._raw_query(st.port, gone.tolist())
            self._wait_pending(server, 1)
            t = threading.Thread(target=lambda: result.update(
                r=_request(st.port, "/v1/query", {"point": stays.tolist()})))
            t.start()
            self._wait_pending(server, 2)
            sock.close()  # leaves while its request waits in the window
            t.join(timeout=30)
            assert not t.is_alive()
            status, body, _ = result["r"]
            assert status == 200
            np.testing.assert_array_equal(body["results"][0]["ids"], want_idx[0])
            assert _as_f64(body["results"][0]["sq_dists"]).tobytes() == want_sq[0].tobytes()
            assert not server._loops["default"].task.done()  # the flusher lives on
            assert server.stats.http_errors == 0
        finally:
            summary = st.stop()
        assert summary["clean"] and summary["inflight_remaining"] == 0

    def test_truncated_body_closes_only_its_connection(self):
        server = _server(adaptive=False, max_wait_ms=2000.0)
        with ServerThread(server) as st:
            sock = socket.create_connection(("127.0.0.1", st.port), timeout=10)
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n{\"point\": [0.5,"
            )
            sock.shutdown(socket.SHUT_WR)  # the rest of the body never comes
            answer = b""
            while chunk := sock.recv(4096):
                answer += chunk
            sock.close()
            assert answer == b""  # closed with no response at all
            assert server.stats.http_errors == 0
            assert server.stats.queries == 0
            status, body, _ = _request(st.port, "/v1/query", {"points": [[0.5, 0.5]], "k": 1})
            assert status == 200 and len(body["results"]) == 1
