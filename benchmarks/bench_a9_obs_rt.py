"""A9 — Request observability: does the server-side view tell the truth?

PR 9 gives the network front-end per-request observability: log-linear
latency histograms (``net.request_ms``), per-request timelines in a
flight recorder behind ``/debug/requests`` / ``/debug/slow``, and SLO
burn-rate gauges.  Those numbers are only useful if they agree with
what a *client* actually experiences — a histogram whose p95 drifts
from client truth steers capacity planning wrong, and a flight recorder
whose "slowest" entries lack the queued/execute split cannot answer the
one question it exists for (is the tail the window or the work?).

The experiment: build one n = 100k index, serve it on a loopback socket
with a fixed batching window (the regime where server- and client-side
tails are honestly comparable: the window, not client-side queueing,
dominates), drive it with the seeded open-loop generator, and compare
the server's drain-time histogram percentiles against the client's
measured latencies for the identical request stream.

Acceptance (ISSUE 9):

- the server-side ``net.request_ms`` p95 is within **15%** of the
  loadgen client's p95 (the histogram's log-linear buckets plus the
  admit-to-serialize measurement window must not distort the tail);
- ``/debug/slow`` returns the K slowest requests, every one carrying
  the queued vs execute breakdown, in worst-first order;
- the trace round-trip is intact: every response echoed its seeded
  ``X-Request-Id`` (``id_mismatches == 0``) and the drain is clean.
"""

from __future__ import annotations

import asyncio
import time

from repro.api import build_index
from repro.net import (
    NetConfig,
    NetServer,
    ServerThread,
    TenantManager,
    http_request,
    run_load,
)
from repro.pvm import Machine
from repro.workloads import uniform_cube

from common import bench_seed, record_bench_run, table_bench, write_table

N = 100_000
D = 2
K = 1
MAX_BATCH = 256
WAIT_MS = 10.0  # fixed window: the tail is the window, on both sides
QPS = 150.0
DURATION_S = 4.0
SLOW_K = 16

_MAX_P95_GAP = 0.15  # |server p95 - client p95| / client p95


@table_bench
def test_a9_obs_rt_table():
    pts = uniform_cube(N, D, bench_seed(91))
    t0 = time.perf_counter()
    mutable = build_index(pts, K, seed=bench_seed(92)).mutable
    build_s = time.perf_counter() - t0

    machine = Machine()
    config = NetConfig(
        port=0, max_batch=MAX_BATCH, adaptive=False, max_wait_ms=WAIT_MS,
        slo_p95_ms=50.0, recorder_slow_k=SLOW_K,
    )
    manager = TenantManager(config=config)
    manager.add("default", mutable, machine=machine)
    server = NetServer(manager, config=config)

    with ServerThread(server) as thread:
        result = asyncio.run(run_load(
            "127.0.0.1", thread.port, qps=QPS, duration_s=DURATION_S,
            points=mutable.points, k=K, arrivals="fixed", seed=bench_seed(93),
        ))
        status, slow_body, _ = asyncio.run(http_request(
            "127.0.0.1", thread.port, f"/debug/slow?limit={SLOW_K}",
            method="GET"))
        assert status == 200
    summary = thread.drain_summary

    # trace round-trip + clean run: the comparison below is meaningless
    # unless both sides saw the identical request stream
    assert result.id_mismatches == 0, (
        f"{result.id_mismatches} responses lost their X-Request-Id")
    assert result.errors == 0 and result.rejected == 0
    assert result.ok == result.sent
    assert summary["clean"], "drain dropped requests"
    rq = summary["request_ms"]
    assert rq["count"] == result.ok, (
        f"server histogram saw {rq['count']} requests, client sent {result.ok}")

    gap = abs(rq["p95"] - result.p95_ms) / result.p95_ms
    assert gap <= _MAX_P95_GAP, (
        f"server-side p95 {rq['p95']:.2f}ms drifts {gap:.1%} from client "
        f"p95 {result.p95_ms:.2f}ms (budget {_MAX_P95_GAP:.0%})"
    )

    slowest = slow_body["slowest"]
    assert len(slowest) == SLOW_K, (
        f"/debug/slow returned {len(slowest)} entries, expected {SLOW_K}")
    totals = [entry["total_ms"] for entry in slowest]
    assert totals == sorted(totals, reverse=True), "slowest not worst-first"
    for entry in slowest:
        assert entry["queued_ms"] is not None, entry["request_id"]
        assert entry["execute_ms"] is not None, entry["request_id"]
        # the split accounts for the total (serialize overhead aside)
        assert entry["total_ms"] >= entry["execute_ms"] - 1e-6

    record_bench_run(
        "a9_obs_rt", machine,
        params={"n": N, "d": D, "k": K, "qps": QPS, "duration_s": DURATION_S,
                "max_batch": MAX_BATCH, "wait_ms": WAIT_MS, "slow_k": SLOW_K},
        extra={
            "client": result.to_dict(),
            "server_request_ms": rq,
            "p95_gap_fraction": gap,
            "slowest_total_ms": totals[0],
            "slowest_queued_ms": slowest[0]["queued_ms"],
            "slowest_execute_ms": slowest[0]["execute_ms"],
        },
    )

    rows = [
        ("client", result.ok, f"{result.p50_ms:.2f}", f"{result.p95_ms:.2f}",
         f"{result.p99_ms:.2f}",
         f"{max(result.latencies_ms):.2f}" if result.latencies_ms else "-"),
        ("server", rq["count"], f"{rq['p50']:.2f}", f"{rq['p95']:.2f}",
         f"{rq['p99']:.2f}", f"{rq['max']:.2f}"),
        ("note", "", "", "", "",
         f"build {build_s:.2f}s; p95 gap {gap:.1%} <= {_MAX_P95_GAP:.0%}; "
         f"slowest {totals[0]:.2f}ms = queued {slowest[0]['queued_ms']:.2f}ms "
         f"+ exec {slowest[0]['execute_ms']:.2f}ms; id_mismatches 0"),
    ]
    write_table(
        "a9_obs_rt",
        "A9  request observability: server-side histogram vs client truth "
        f"(knn over HTTP, d={D}, k={K}, n={N:,}; open-loop fixed arrivals "
        f"{QPS:g} qps x {DURATION_S:g}s, fixed window {WAIT_MS:g}ms, "
        f"max_batch {MAX_BATCH}; server side = net.request_ms log-linear "
        "histogram at drain)",
        ["side", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
    )
