"""Self-benchmark of tracing overhead against its budget.

Tracing is passive by contract — it may cost wall-clock, never ledger.
This module measures both sides of that contract on a repeatable
workload:

- **ledger delta** between a traced and an untraced run of the same
  seed must be exactly zero (depth, work, sections and counters);
- **wall-clock overhead** of tracing (plus sink export) should stay
  under the documented budget of 5% at n=100k (see
  ``docs/observability.md``, "Overhead budget").

Run it as a module::

    PYTHONPATH=src python -m repro.obs.overhead --n 100000 --repeats 3

which prints the measurement and appends it to
``benchmarks/results/obs_overhead.json``.  The committed baseline in
that file documents the overhead at the time the budget was set;
:mod:`scripts.check_bench_regression` re-asserts the zero-ledger-delta
half (machine-independent), while the wall half is informational —
wall-clock is hardware-dependent and is not gated exactly.

The same contract extends to *request tracing* on the network front-end
(ISSUE 9): :func:`measure_net_overhead` drives an identical sequential
loopback request stream against a traced and an untraced
:class:`~repro.net.server.NetServer` and checks both halves — responses
must be **byte-identical** (status, body, echoed ``X-Request-Id``) and
the traced wall-clock must stay within the same 5% budget.  Run with
``--net`` (writes ``benchmarks/results/obs_net_overhead.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

__all__ = [
    "NetOverheadReport",
    "OverheadReport",
    "main",
    "measure_net_overhead",
    "measure_overhead",
]

#: Wall-clock overhead budget for tracing, as a fraction (5%).
OVERHEAD_BUDGET = 0.05


@dataclass
class OverheadReport:
    """One overhead measurement: tracing vs not, same seed and workload."""

    n: int
    d: int
    k: int
    engine: str
    repeats: int
    wall_untraced_s: float
    wall_traced_s: float
    overhead_fraction: float
    span_count: int
    ledger_delta: float  # |traced - untraced| over depth+work+sections; 0 exactly
    budget_fraction: float = OVERHEAD_BUDGET

    @property
    def within_budget(self) -> bool:
        return self.overhead_fraction <= self.budget_fraction


def measure_overhead(
    n: int = 100_000,
    *,
    d: int = 2,
    k: int = 1,
    engine: str = "frontier",
    workers: Optional[int] = None,
    repeats: int = 3,
    seed: int = 0,
) -> OverheadReport:
    """Measure tracing overhead: best-of-``repeats`` traced vs untraced.

    Both sides run the same seed on fresh machines; the ledger comparison
    is exact (any nonzero delta is a bug — tracing must be passive).
    Best-of timing is used to suppress scheduler noise.
    """
    from ..api import all_knn, run_traced
    from ..pvm import Machine
    from ..workloads import uniform_cube

    pts = uniform_cube(n, d, seed)
    wall_untraced = float("inf")
    wall_traced = float("inf")
    ref_machine = traced_machine = None
    span_count = 0
    for _ in range(max(1, repeats)):
        machine = Machine()
        t0 = time.perf_counter()
        all_knn(pts, k, method="fast", machine=machine, seed=seed,
                engine=engine, workers=workers)
        wall_untraced = min(wall_untraced, time.perf_counter() - t0)
        ref_machine = machine
        machine = Machine()
        t0 = time.perf_counter()
        _, tracer = run_traced(pts, k, method="fast", machine=machine,
                               seed=seed, engine=engine, workers=workers)
        wall_traced = min(wall_traced, time.perf_counter() - t0)
        traced_machine = machine
        span_count = tracer.span_count()
    delta = abs(ref_machine.total.depth - traced_machine.total.depth)
    delta += abs(ref_machine.total.work - traced_machine.total.work)
    for name in set(ref_machine.sections) | set(traced_machine.sections):
        a = ref_machine.sections.get(name)
        b = traced_machine.sections.get(name)
        if a is None or b is None:
            delta += float("inf")
        else:
            delta += abs(a.depth - b.depth) + abs(a.work - b.work)
    if ref_machine.counters != traced_machine.counters:
        delta += float("inf")
    return OverheadReport(
        n=n, d=d, k=k, engine=engine, repeats=repeats,
        wall_untraced_s=wall_untraced,
        wall_traced_s=wall_traced,
        overhead_fraction=(wall_traced - wall_untraced) / max(wall_untraced, 1e-12),
        span_count=span_count,
        ledger_delta=delta,
    )


@dataclass
class NetOverheadReport:
    """Request-tracing overhead on the network front-end.

    ``byte_identical`` is the exactness half: every response from the
    traced server (status line, JSON body, echoed ``X-Request-Id``)
    matched the untraced server's byte for byte.  ``overhead_fraction``
    is best-of-``repeats`` traced vs untraced wall time for the whole
    sequential request stream.
    """

    n: int
    d: int
    k: int
    requests: int
    repeats: int
    wall_untraced_s: float
    wall_traced_s: float
    overhead_fraction: float
    byte_identical: bool
    budget_fraction: float = OVERHEAD_BUDGET

    @property
    def within_budget(self) -> bool:
        return self.overhead_fraction <= self.budget_fraction


def measure_net_overhead(
    n: int = 100_000,
    *,
    d: int = 2,
    k: int = 1,
    requests: int = 400,
    repeats: int = 3,
    seed: int = 0,
) -> NetOverheadReport:
    """Measure request-tracing overhead over loopback HTTP.

    One index is built once; each side (``trace_requests`` on / off)
    gets a fresh loopback :class:`~repro.net.server.ServerThread` with an
    otherwise identical :class:`~repro.net.config.NetConfig`
    (``max_wait_ms=0``, cache off, so every request pays one real
    execution) and is driven ``repeats`` times with the same seeded
    sequential stream of single-point queries carrying deterministic
    client-supplied request ids.  Responses from the first pass on each
    side are byte-compared; wall time is best-of-``repeats``.
    """
    import asyncio

    from ..api import build_index
    from ..net import NetConfig, NetServer, ServerThread, TenantManager, http_fetch
    from ..workloads import uniform_cube
    import numpy as np

    pts = uniform_cube(n, d, seed)
    mutable = build_index(pts, k, seed=seed).mutable
    rng = np.random.default_rng(seed + 1)
    rows = rng.integers(0, pts.shape[0], size=requests).tolist()

    async def _drive(port: int) -> Tuple[float, List[Tuple[int, str, str]]]:
        responses: List[Tuple[int, str, str]] = []
        t0 = time.perf_counter()
        for i, row in enumerate(rows):
            status, _, text, headers = await http_fetch(
                "127.0.0.1", port, "/v1/query",
                {"point": pts[row].tolist(), "k": k},
                headers={"X-Request-Id": f"ov-{seed:08x}-{i:06d}"},
            )
            responses.append((status, text, headers.get("x-request-id", "")))
        return time.perf_counter() - t0, responses

    def _side(traced: bool) -> Tuple[float, List[Tuple[int, str, str]]]:
        config = NetConfig(
            port=0, adaptive=False, max_wait_ms=0.0, cache_size=0,
            trace_requests=traced,
        )
        manager = TenantManager(config=config)
        manager.add("default", mutable)
        best = float("inf")
        first: List[Tuple[int, str, str]] = []
        with ServerThread(NetServer(manager, config=config)) as thread:
            for rep in range(max(1, repeats)):
                wall, responses = asyncio.run(_drive(thread.port))
                best = min(best, wall)
                if rep == 0:
                    first = responses
        return best, first

    wall_untraced, ref = _side(False)
    wall_traced, traced_responses = _side(True)
    return NetOverheadReport(
        n=n, d=d, k=k, requests=requests, repeats=repeats,
        wall_untraced_s=wall_untraced,
        wall_traced_s=wall_traced,
        overhead_fraction=(wall_traced - wall_untraced) / max(wall_untraced, 1e-12),
        byte_identical=traced_responses == ref,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure tracing overhead (wall-clock and ledger delta)."
    )
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--engine", default="frontier")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--net", action="store_true",
                        help="measure request-tracing overhead on the "
                             "network front-end instead of span tracing")
    parser.add_argument("--requests", type=int, default=400,
                        help="loopback requests per pass (--net only)")
    parser.add_argument("--out", default=None,
                        help="append the report to this JSON list file "
                             "(default: benchmarks/results/obs_overhead.json, "
                             "or obs_net_overhead.json with --net)")
    parser.add_argument("--no-write", action="store_true",
                        help="print only; do not touch the results file")
    args = parser.parse_args(argv)
    if args.net:
        report = measure_net_overhead(
            args.n, d=args.d, k=args.k, requests=args.requests,
            repeats=args.repeats, seed=args.seed,
        )
        print(f"n={report.n} requests={report.requests} "
              f"repeats={report.repeats}")
        print(f"untraced {report.wall_untraced_s:.3f}s  "
              f"traced {report.wall_traced_s:.3f}s  "
              f"overhead {report.overhead_fraction:+.2%} "
              f"(budget {report.budget_fraction:.0%})")
        print(f"responses byte-identical: {report.byte_identical}")
        default_name = "obs_net_overhead.json"
        failed = not report.byte_identical or not report.within_budget
    else:
        report = measure_overhead(
            args.n, d=args.d, k=args.k, engine=args.engine,
            workers=args.workers, repeats=args.repeats, seed=args.seed,
        )
        print(f"n={report.n} engine={report.engine} spans={report.span_count}")
        print(f"untraced {report.wall_untraced_s:.3f}s  "
              f"traced {report.wall_traced_s:.3f}s  "
              f"overhead {report.overhead_fraction:+.2%} "
              f"(budget {report.budget_fraction:.0%})")
        print(f"ledger delta: {report.ledger_delta} "
              f"({'exact' if report.ledger_delta == 0 else 'VIOLATION'})")
        default_name = "obs_overhead.json"
        failed = report.ledger_delta != 0 or not report.within_budget
    if not args.no_write:
        out = args.out
        if out is None:
            out = os.path.join(
                os.path.dirname(os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))))),
                "benchmarks", "results", default_name,
            )
        records = []
        if os.path.exists(out):
            try:
                with open(out) as fh:
                    loaded = json.load(fh)
                if isinstance(loaded, list):
                    records = loaded
            except (OSError, ValueError):
                records = []
        record = asdict(report)
        record["timestamp"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        records.append(record)
        with open(out, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
