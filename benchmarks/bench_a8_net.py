"""A8 — Network front-end: adaptive batching windows vs fixed settings.

The batching window is a latency/throughput dial with no correct fixed
setting: window=0 answers an idle stream instantly but collapses under
load (every request pays the full per-batch machinery alone), while a
fixed ceiling batches well under load but taxes every idle-stream
request the whole window.  The adaptive controller
(:class:`repro.net.adaptive.AdaptiveWindow`) moves the dial with the
arrival-rate EWMA, and this experiment measures whether that wins *both*
regimes over real HTTP:

- build one n = 100k index, serve it through :class:`NetServer` on a
  loopback socket (``ServerThread``), one fresh server per window
  policy: **adaptive**, **ceiling** (fixed ``max_wait_ms``), **zero**
  (``max_wait_ms = 0``);
- drive each with the seeded open-loop generator
  (:func:`repro.net.loadgen.run_load`, fixed arrivals) at a low, a
  moderate and an overload QPS level, measuring latency from each
  request's *scheduled* arrival.

Acceptance (ISSUE 8): at the low level adaptive p99 must be >= 1.3x
lower than the fixed ceiling's (idle requests shouldn't pay the window),
and at the overload level adaptive sustained QPS must be >= 1.3x higher
than window=0's (load should batch).  Exactness is not at stake —
every served answer is bit-identical to the direct batcher path
(tests/test_net_server.py pins the loopback-equivalence contract) — so
the latency/throughput frontier is the entire story.  Single-core
honest-reporting note: client and server share the host, so overload
latencies include client-side queueing, as they would for a co-located
sidecar.
"""

from __future__ import annotations

import asyncio
import time


from repro.api import build_index
from repro.net import NetConfig, NetServer, ServerThread, TenantManager, run_load
from repro.pvm import Machine
from repro.workloads import uniform_cube

from common import bench_seed, record_bench_run, table_bench, write_table

N = 100_000
D = 2
K = 1
CEILING_MS = 20.0
MAX_BATCH = 256
QPS_LOW, QPS_MID, QPS_HIGH = 50.0, 1000.0, 2000.0
# (qps, seconds): the low level runs longer so its p99 rests on 200
# samples; one solo execution is ~4ms on this host, so 50/s keeps the
# core unsaturated (the regime where the window tax is the whole story)
LEVELS = [(QPS_LOW, 4.0), (QPS_MID, 2.0), (QPS_HIGH, 2.0)]

_MIN_LOW_QPS_P99_RATIO = 1.3  # ceiling p99 / adaptive p99 at QPS_LOW
_MIN_OVERLOAD_QPS_RATIO = 1.3  # adaptive / zero sustained QPS at QPS_HIGH

POLICIES = {
    "adaptive": dict(adaptive=True, max_wait_ms=CEILING_MS),
    "ceiling": dict(adaptive=False, max_wait_ms=CEILING_MS),
    "zero": dict(adaptive=False, max_wait_ms=0.0),
}


def _run_policy(mutable, policy_kwargs, levels, seed):
    """One fresh loopback server per policy; sweep it, return results."""
    machine = Machine()
    config = NetConfig(port=0, max_batch=MAX_BATCH, **policy_kwargs)
    manager = TenantManager(config=config)
    manager.add("default", mutable, machine=machine)
    server = NetServer(manager, config=config)
    results = []
    with ServerThread(server) as thread:
        # warm the serving path (first-batch setup, allocator, caches)
        # before measuring — every policy gets the identical warmup
        asyncio.run(run_load(
            "127.0.0.1", thread.port, qps=100.0, duration_s=0.5,
            points=mutable.points, k=K, arrivals="fixed", seed=seed + 1,
        ))
        for qps, duration_s in levels:
            results.append(asyncio.run(run_load(
                "127.0.0.1", thread.port, qps=qps, duration_s=duration_s,
                points=mutable.points, k=K, arrivals="fixed", seed=seed,
            )))
    return machine, results, thread.drain_summary


@table_bench
def test_a8_net_table():
    pts = uniform_cube(N, D, bench_seed(81))
    t0 = time.perf_counter()
    mutable = build_index(pts, K, seed=bench_seed(82)).mutable
    build_s = time.perf_counter() - t0

    by_policy = {}
    rows = []
    for policy, kwargs in POLICIES.items():
        machine, results, summary = _run_policy(
            mutable, kwargs, LEVELS, seed=bench_seed(83))
        assert summary["clean"], f"{policy}: drain dropped requests"
        by_policy[policy] = results
        for r in results:
            record_bench_run(
                "a8_net", machine,
                params={"n": N, "d": D, "k": K, "policy": policy,
                        "qps": r.qps_target, "max_batch": MAX_BATCH,
                        "ceiling_ms": CEILING_MS},
                extra=r.to_dict(),
            )
            rows.append((policy, f"{r.qps_target:.0f}", r.sent, r.ok,
                         r.rejected, f"{r.achieved_qps:,.0f}",
                         f"{r.p50_ms:.2f}", f"{r.p95_ms:.2f}",
                         f"{r.p99_ms:.2f}"))

    low = {p: rs[0] for p, rs in by_policy.items()}
    high = {p: rs[-1] for p, rs in by_policy.items()}
    p99_ratio = low["ceiling"].p99_ms / low["adaptive"].p99_ms
    qps_ratio = high["adaptive"].achieved_qps / high["zero"].achieved_qps
    assert p99_ratio >= _MIN_LOW_QPS_P99_RATIO, (
        f"adaptive must cut low-QPS p99 >= {_MIN_LOW_QPS_P99_RATIO}x vs the "
        f"fixed ceiling, got {p99_ratio:.2f}x "
        f"({low['ceiling'].p99_ms:.2f}ms vs {low['adaptive'].p99_ms:.2f}ms)"
    )
    assert qps_ratio >= _MIN_OVERLOAD_QPS_RATIO, (
        f"adaptive must sustain >= {_MIN_OVERLOAD_QPS_RATIO}x the QPS of "
        f"window=0 under overload, got {qps_ratio:.2f}x "
        f"({high['adaptive'].achieved_qps:,.0f} vs "
        f"{high['zero'].achieved_qps:,.0f})"
    )
    rows.append(("note", "", "", "", "", "", "", "",
                 f"build {build_s:.2f}s; low-QPS p99 adaptive vs ceiling "
                 f"{p99_ratio:.2f}x >= {_MIN_LOW_QPS_P99_RATIO}x; overload "
                 f"QPS adaptive vs zero {qps_ratio:.2f}x >= "
                 f"{_MIN_OVERLOAD_QPS_RATIO}x"))

    write_table(
        "a8_net",
        "A8  network front-end: batching-window policy vs load "
        f"(knn over HTTP, d={D}, k={K}, n={N:,}; open-loop fixed arrivals, "
        f"{LEVELS[0][1]:g}s low / {LEVELS[-1][1]:g}s overload levels; "
        "latency measured from scheduled arrival; "
        f"ceiling {CEILING_MS:g}ms, max_batch {MAX_BATCH})",
        ["policy", "qps", "sent", "ok", "429", "ach QPS",
         "p50 ms", "p95 ms", "p99 ms"],
        rows,
    )
