"""The ``serve-point`` and ``serve-churn`` workloads: the stock HTTP server
(``python -m repro net serve``, every flag but the inputs at its default)
in its own process, loaded by :mod:`httpload` from this process.

``serve-point``: fresh uniform single-point ``/v1/query`` requests, in
cycles of an open-loop stretch at :data:`POINT_RATE` and a closed-loop
stretch on every connection.
``serve-churn``: connection 1 reads Zipf-distributed points from a fixed
pool four times the size of the server's result cache; connection 2
commits a few inserts and deletes through ``/v1/mutate`` every
:data:`COMMIT_PERIOD_S`, and :data:`BURST_COMMITS` more back to back once
the reads have stopped.  A seeded sample of answers is checked against
brute force over the point set of the version that answered, which the
client rebuilds from its own mutation stream (survivors keep their order,
inserts are appended).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

from common import HERE, ROOT, WORK, median, nproc, proc_peak_rss_mb, program_env, quantile
from httpload import Client, Lane, Request, perf
from layers import self_by_layer

N, D, K = 100_000, 2, 2
SETUP_REPEATS = 3
WARMUP_REQUESTS = 64
#: serve-point: open-loop rate, about half the closed-loop capacity
#: (360-385 req/s) of the default server, measured on a two-core host at
#: the commit that added this benchmark.
POINT_RATE = 180.0
#: serve-point: open-loop / closed-loop cycles per run, and the share of
#: each cycle spent open-loop.
CYCLES = 5
OPEN_SHARE = 0.6
#: serve-churn: read rate, pool size, Zipf exponent and commit period.
#: A 10 + 10 commit blocks the event loop for about 1.1 s and leaves a
#: backlog of reads behind it; at this period that stays under a third of
#: the reads, so the read median stays clear of it.
CHURN_READ_RATE = 100.0
CHURN_POOL = 4096
ZIPF_S = 1.0
COMMIT_PERIOD_S = 6.0
COMMIT_INSERTS = COMMIT_DELETES = 10
#: serve-churn: commits sent back to back after the reads stop, so that
#: the commit median rests on more than the few commits a run has room for.
BURST_COMMITS = 4
#: Share of answers checked against brute force, and the cap per run.
CHECK_SHARE = 0.1
CHECK_MAX = 500
START_TIMEOUT_S = 150.0
PR_SET_PDEATHSIG = 1


def make_points(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).random((N, D))


def _die_with_parent() -> None:
    """Have the kernel SIGTERM the server if the benchmark dies first."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class Server:
    """One ``repro net serve`` process; ``traced_out`` runs it under the
    layer-wrapper launcher, which writes its numbers there on exit."""

    def __init__(self, points_path: str, traced_out: Optional[str] = None) -> None:
        args = ["net", "serve", "--points-file", points_path, "-k", str(K), "--port", "0"]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), traced_out, *args]
        self.log_path = points_path + ".log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                                     stderr=self.log, preexec_fn=_die_with_parent)
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = perf() + START_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while perf() < deadline:
            ready, _, _ = select.select([fd], [], [], 1.0)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                m = re.search(rb"on http://[^:]+:(\d+) ", buf)
                if m:
                    return int(m.group(1))
        with open(self.log_path, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"server did not start; stdout {buf!r}; stderr {tail}")

    def _wait_healthy(self) -> None:
        deadline = perf() + 30.0
        while True:
            try:
                if get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if perf() > deadline:
                raise RuntimeError("server never answered /healthz with 200")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


_SAMPLE = re.compile(r'^(\w+)\{key="([^"]*)"(?:,le="([^"]*)")?\} (\S+)$')


def scrape(port: int) -> Dict[str, Any]:
    """Counters, series sums and histogram buckets from ``/metrics``."""
    status, body = get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values: Dict[str, float] = {}
    buckets: Dict[str, List[tuple]] = {}
    for line in body.decode().splitlines():
        m = _SAMPLE.match(line)
        if m is None:
            continue
        name, key, le, value = m.groups()
        if le is not None:
            buckets.setdefault(key, []).append((float(le), float(value)))
        elif name.endswith("_total"):
            values[key] = float(value)
        else:
            values[key + name[name.rfind("_"):]] = float(value)
    return {"values": values, "buckets": buckets}


def delta(before, after, key: str) -> float:
    return after["values"].get(key, 0.0) - before["values"].get(key, 0.0)


def hist_quantile(before, after, key: str, q: float) -> float:
    """``q``-quantile of the observations between two scrapes, linearly
    interpolated inside the bucket that holds it."""
    b = dict(before["buckets"].get(key, ()))
    rows = [(le, cum - b.get(le, 0.0)) for le, cum in after["buckets"].get(key, ())]
    if not rows or rows[-1][1] <= 0:
        return 0.0
    target = max(1.0, np.ceil(q * rows[-1][1]))
    lo, prev = 0.0, 0.0
    for le, cum in rows:
        if cum >= target:
            if le == float("inf"):
                return lo
            return lo + (target - prev) / (cum - prev) * (le - lo)
        if cum > prev:
            prev = cum
        lo = le
    return lo


def _query(point: np.ndarray, check: bool) -> Request:
    body = json.dumps({"point": point.tolist()}).encode()
    return Request("/v1/query", body, (point, check))


def _fresh_query(rng: np.random.Generator) -> Request:
    """A query for a new uniform point, checked with :data:`CHECK_SHARE`."""
    return _query(rng.random(D), bool(rng.random() < CHECK_SHARE))


def _answers_ok(req: Request, versions: Dict[int, np.ndarray]) -> bool:
    point, _ = req.meta
    try:
        body = json.loads(req.response)
        pts = versions[body["version"]]
        result = body["results"][0]
        ids = np.asarray(result["ids"], dtype=np.int64)
        sq = np.asarray(result["sq_dists"], dtype=np.float64)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    d = ((pts - point) ** 2).sum(axis=1)
    best = np.sort(np.partition(d, K - 1)[:K])
    return (ids.shape == (K,) and np.unique(ids).shape[0] == K
            and np.allclose(d[ids], best, rtol=1e-9, atol=0.0)
            and np.allclose(sq, best, rtol=1e-9, atol=0.0))


def _point_phases(client: Client, seed: int, seconds: float) -> Dict[str, Any]:
    """:data:`CYCLES` cycles of an open-loop stretch then a closed-loop
    stretch; each figure is the median of its per-cycle values, so one
    noisy stretch of the host does not set it."""
    conns = list(range(len(client.conns)))
    cycle_s = seconds / CYCLES
    # the i-th open-loop and the i-th closed-loop request do not depend on
    # timing; how many closed-loop requests a cycle sends does
    open_rng = np.random.default_rng([seed, 1])
    closed_rng = np.random.default_rng([seed, 2])
    requests: List[Request] = []
    lateness: List[float] = []
    p50, p90, p99, rtt, rps = [], [], [], [], []
    for _ in range(CYCLES):
        t0 = perf() + 0.01
        dues = [t0 + i / POINT_RATE for i in range(int(OPEN_SHARE * cycle_s * POINT_RATE))]
        open_lane = Lane(conns, lambda i: _fresh_query(open_rng), dues)
        client.run([open_lane], dues[-1])
        t1 = perf()
        closed_lane = Lane(conns, lambda i: _fresh_query(closed_rng))
        client.run([closed_lane], t0 + cycle_s)
        t2 = perf()
        ok_open = [r.latency_s * 1e3 for r in open_lane.done if r.ok]
        ok_closed = [r for r in closed_lane.done if r.ok]
        p50.append(quantile(ok_open, 0.5))
        p90.append(quantile(ok_open, 0.9))
        p99.append(quantile(ok_open, 0.99))
        rtt.append(quantile([(r.done - r.sent) * 1e3 for r in ok_closed], 0.5))
        rps.append(len(ok_closed) / (t2 - t1))
        requests += open_lane.done + closed_lane.done
        lateness += [r.late * 1e3 for r in open_lane.done]
    return {
        "requests": requests,
        "p50_ms": median(p50),
        "ref_ms": median(rtt),
        "lateness_ms": lateness,
        "report": {
            "point_p50_ms": (median(p50), "ms"),
            "point_p90_ms": (median(p90), "ms"),
            "point_p99_ms": (median(p99), "ms"),
            "point_max_rps": (median(rps), "req/s"),
        },
    }


def _mutation_stream(rng: np.random.Generator, pts: np.ndarray, commits: int):
    """Seeded commits and the point set of every version they produce."""
    versions = {0: pts}
    bodies = []
    cur = pts
    for v in range(1, commits + 1):
        dels = np.sort(rng.choice(cur.shape[0], COMMIT_DELETES, replace=False))
        ins = rng.random((COMMIT_INSERTS, D))
        keep = np.ones(cur.shape[0], dtype=bool)
        keep[dels] = False
        cur = np.concatenate([cur[keep], ins])
        versions[v] = cur
        bodies.append(json.dumps({"insert": ins.tolist(), "delete": dels.tolist(),
                                  "commit": True}).encode())
    return versions, bodies


def _churn_phases(client: Client, seed: int, seconds: float,
                  versions: Dict[int, np.ndarray], bodies: List[bytes]) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    pool = rng.random((CHURN_POOL, D))
    weights = 1.0 / np.arange(1, CHURN_POOL + 1) ** ZIPF_S
    n_reads = int(seconds * CHURN_READ_RATE)
    picks = rng.permutation(CHURN_POOL)[rng.choice(CHURN_POOL, n_reads, p=weights / weights.sum())]
    t0 = perf() + 0.05
    read_dues = [t0 + i / CHURN_READ_RATE for i in range(n_reads)]
    commit_dues = [t0 + (j + 0.5) * COMMIT_PERIOD_S for j in range(int(seconds / COMMIT_PERIOD_S))]
    checks = rng.random(n_reads) < CHECK_SHARE
    reads = Lane([0], lambda i: _query(pool[picks[i]], checks[i]), read_dues)
    commits = Lane([1], lambda j: Request("/v1/mutate", bodies[j], j + 1), commit_dues)
    client.run([reads, commits], read_dues[-1])
    # the few commits the read stream has room for make no steady median
    first = len(commit_dues)
    now = perf()
    burst = Lane([1], lambda j: Request("/v1/mutate", bodies[first + j], first + j + 1),
                 [now] * (len(bodies) - first))
    client.run([burst], now)
    ok_reads = [r.latency_s * 1e3 for r in reads.done if r.ok]
    commit_ms = []
    for req in commits.done + burst.done:
        if req.ok:
            body = json.loads(req.response)
            if not (body.get("committed") and body.get("version") == req.meta
                    and not body["commit"]["punted"]):
                req.error = f"commit answered {body!r}"
                continue
            commit_ms.append((req.done - req.sent) * 1e3)
    return {
        "requests": reads.done + commits.done + burst.done,
        "p50_ms": quantile(ok_reads, 0.5),
        "ref_ms": quantile(commit_ms, 0.5),
        "lateness_ms": [r.late * 1e3 for r in reads.done + commits.done + burst.done],
        "report": {
            "churn_read_p50_ms": (quantile(ok_reads, 0.5), "ms"),
            "churn_read_p90_ms": (quantile(ok_reads, 0.9), "ms"),
            "churn_read_p99_ms": (quantile(ok_reads, 0.99), "ms"),
            "commit_p50_ms": (quantile(commit_ms, 0.5), "ms"),
            "read_samples": (len(ok_reads), "count"),
            "commits": (len(commit_ms), "count"),
        },
    }


def session(workload: str, seed: int, seconds: float, work: str,
            traced: bool = False) -> Dict[str, Any]:
    """Start a server, load it for ``seconds``, stop it, check answers."""
    t0 = perf()
    pts = make_points(seed)
    path = os.path.join(work, "points.npy")
    np.save(path, pts)
    traced_out = os.path.join(work, "layers.json") if traced else None
    server = Server(path, traced_out)
    setup_s = perf() - t0
    client = None
    try:
        churn = workload == "serve-churn"
        connections = 2 if churn else max(1, min(2, nproc()))
        client = Client("127.0.0.1", server.port, connections)
        # its own stream: no point the phases send, so no cache entry they hit
        warm = np.random.default_rng([seed, 3]).random((WARMUP_REQUESTS, D))
        now = perf()
        client.run([Lane(range(connections), lambda i: _query(warm[i], False),
                         [now] * WARMUP_REQUESTS)], now)
        before = scrape(server.port)
        cpu0, wall0 = time.process_time(), perf()
        if churn:
            versions, bodies = _mutation_stream(np.random.default_rng([seed, 2]), pts,
                                                int(seconds / COMMIT_PERIOD_S) + BURST_COMMITS)
            out = _churn_phases(client, seed, seconds, versions, bodies)
        else:
            versions = {0: pts}
            out = _point_phases(client, seed, seconds)
        cpu_share = (time.process_time() - cpu0) / (perf() - wall0)
        after = scrape(server.port)
        rss_mb = proc_peak_rss_mb(server.proc.pid)
    finally:
        if client is not None:
            client.close()
        server.stop()
    requests = out["requests"]
    checked = [r for r in requests if r.ok and r.path == "/v1/query" and r.meta[1]][:CHECK_MAX]
    mismatches = sum(not _answers_ok(r, versions) for r in checked)
    out.update(
        setup_s=setup_s,
        peak_rss_mb=rss_mb,
        attempted=len(requests),
        failed=sum(not r.ok for r in requests) + mismatches,
        mismatches=mismatches,
        checked=len(checked),
        before=before,
        after=after,
        cpu_share=cpu_share,
        connections=connections,
    )
    if traced:
        with open(traced_out) as fh:
            out["layers"] = json.load(fh)
    return out


def _setup_only(seed: int, work: str) -> float:
    t0 = perf()
    pts = make_points(seed)
    path = os.path.join(work, "points.npy")
    np.save(path, pts)
    Server(path).stop()
    return perf() - t0


def _workdir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


def end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    work = _workdir()
    try:
        run = session(workload, seed, seconds, work)
        setups = [run["setup_s"]] + [_setup_only(seed, work) for _ in range(SETUP_REPEATS - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = dict(run["report"])
    report["answers_checked"] = (run["checked"], "count")
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "mismatches": run["mismatches"],
        "metrics": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "p50_ms": (run["p50_ms"], "ms"),
            "ref_ms": (run["ref_ms"], "ms"),
        },
        "report": report,
    }


def traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """An untraced session, then a session under the launcher; returns
    every per-layer metric the server and the client expose."""
    work = _workdir()
    try:
        base = session(workload, seed, seconds, work)
        run = session(workload, seed, seconds, work, traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lay = run["layers"]
    ops = lay["ops"]
    b, a = run["before"], run["after"]

    def op(name):
        return ops.get(name, {"calls": 0, "elems": 0, "self_s": 0.0, "incl_s": 0.0, "samples": []})

    batches = delta(b, a, "serve.batches")
    hits, misses = delta(b, a, "serve.cache_hits"), delta(b, a, "serve.cache_misses")
    ticks = delta(b, a, "net.window_ticks_count")
    execute, parse, render = op("execute"), op("parse"), op("render")
    commits = [c for c in lay["commits"] if not c["noop"]]
    gc_ms = [s * 1e3 for s in op("gc")["samples"]]
    ledger = lay["ledger"] or {"depth": 0, "work": 0, "sections": {}}
    return {
        "attempted": base["attempted"] + run["attempted"],
        "failed": base["failed"] + run["failed"],
        "mismatches": base["mismatches"] + run["mismatches"],
        "ops": ops,
        "wall_s": lay["wall_s"],
        "layer_self_s": self_by_layer(ops),
        "pvm.depth": ledger["depth"],
        "pvm.work": ledger["work"],
        "pvm.work.divide": ledger["sections"].get("divide", 0.0),
        "pvm.work.base": ledger["sections"].get("base", 0.0),
        "pvm.work.correct": ledger["sections"].get("correct", 0.0),
        "serve.batches": batches,
        "serve.batch_rows_mean": delta(b, a, "serve.served") / batches if batches else 0.0,
        "serve.queue_wait_ms.p50": hist_quantile(b, a, "serve.queue_wait_ms", 0.5),
        "serve.queue_wait_ms.p99": hist_quantile(b, a, "serve.queue_wait_ms", 0.99),
        "serve.batch_ms.p50": hist_quantile(b, a, "serve.batch_ms", 0.5),
        "serve.batch_ms.p99": hist_quantile(b, a, "serve.batch_ms", 0.99),
        "serve.execute_us_per_row": (execute["incl_s"] / execute["elems"] * 1e6
                                     if execute["elems"] else 0.0),
        "serve.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.swap_ms.p50": median(op("swap_index")["samples"]) * 1e3,
        "online.commit_s.p50": median(op("commit")["samples"]),
        "online.snapshot_ms.p50": median(op("snapshot")["samples"]) * 1e3,
        "online.reused_fraction": (sum(c["reused_fraction"] for c in commits) / len(commits)
                                   if commits else 0.0),
        "online.touched_leaves": (sum(c["touched_leaves"] for c in commits) / len(commits)
                                  if commits else 0.0),
        "online.punts": sum(c["punted"] for c in commits),
        "net.request_ms.p50": hist_quantile(b, a, "net.request_ms", 0.5),
        "net.request_ms.p99": hist_quantile(b, a, "net.request_ms", 0.99),
        "net.parse_us.mean": parse["incl_s"] / parse["calls"] * 1e6 if parse["calls"] else 0.0,
        "net.render_us.mean": render["incl_s"] / render["calls"] * 1e6 if render["calls"] else 0.0,
        "net.window_ms.mean": delta(b, a, "net.window_ticks_sum") / ticks if ticks else 0.0,
        "net.rejected": sum(delta(b, a, f"net.rejected_{why}")
                            for why in ("rate", "inflight", "draining")),
        "net.deadline_exceeded": delta(b, a, "net.deadline_exceeded"),
        "python.gc_ms.sum": sum(gc_ms),
        "python.gc_ms.max": max(gc_ms, default=0.0),
        "client.lateness_ms.p99": quantile(run["lateness_ms"], 0.99),
        "client.cpu_share": run["cpu_share"],
        "client.connections": run["connections"],
        "trace_overhead": run["p50_ms"] / base["p50_ms"] - 1.0,
    }
