"""Command-line interface: run the paper's algorithms from a shell.

Subcommands
-----------
``repro knn``
    Compute the exact k-NN graph of a generated workload (or a points
    file) with any of the five algorithms; print the cost ledger, phase
    breakdown and stats; optionally save the edge list.
``repro separators``
    Draw MTTV sphere separators for a workload and print their quality
    against the k-NN ball system, next to the Bentley hyperplane cut.
``repro scaling``
    Depth/work sweep of the fast vs simple algorithm over problem sizes.
``repro dissect``
    Recursive separator tree + nested dissection fill report.
``repro trace``
    Run an algorithm under the observability layer: print the ASCII
    flame summary and per-level (depth, work) breakdown, verify the span
    tree against the cost ledger, and optionally write a Chrome-trace
    JSON with ``--trace-out``.  ``--flame FILE`` prints the flame
    summary of a previously saved trace and ``--compare A B`` diffs two
    saved traces' per-level exclusive-work breakdowns — no run needed.
``repro serve``
    Build (or ``--load-index``) a serving index, then stream a query
    workload through the micro-batching :class:`repro.serve.Batcher`
    (optionally across ``--serve-workers`` processes) and report
    p50/p95/p99 latency, QPS and cache hit rate.  With ``--mutations-file`` the
    stream is interleaved with insert/delete commits and zero-downtime
    hot swaps, reporting latency per index version.  See
    ``docs/serving.md`` and ``docs/online_index.md``.
``repro update``
    Replay an insert/delete mutation stream (a JSONL file, or a seeded
    generated one) against a :class:`repro.core.online.MutableIndex`,
    printing per-commit absorb/rebuild stats; ``--check`` gates every
    commit on exact equivalence (neighbors, tree, ledger, counters)
    against a from-scratch build.  See ``docs/online_index.md``.
``repro net serve`` / ``repro net load``
    The asyncio network front-end: serve a built index over HTTP/1.1
    JSON (``POST /v1/query``, ``POST /v1/mutate``, ``GET /healthz``,
    ``GET /metrics``) with admission control, load-adaptive batching
    windows and graceful SIGTERM drain — or run a seeded open-loop
    fixed-QPS/Poisson load sweep against a server (``--self-serve``
    spins up a loopback one) and print the p50/p99-vs-QPS table.  See
    ``docs/networking.md``.

``--trace-out PATH`` is also accepted by ``knn`` and ``scaling``, as are
the telemetry sinks ``--events-out PATH`` (JSONL event log) and
``--metrics-out PATH`` (Prometheus text exposition) — see
``docs/observability.md``.

Entry points: ``repro`` (console script) or ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .core import DTYPES, ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Separator based parallel divide and conquer (Frieze-Miller-Teng, SPAA 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_args(p: argparse.ArgumentParser, help_suffix: str) -> None:
        p.add_argument("--engine", default=None, choices=list(ENGINES),
                       help=f"DnC execution engine (same output; {help_suffix}")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for --engine frontier-mp "
                            "(default: one per CPU)")
        p.add_argument("--dtype", default=None, choices=list(DTYPES),
                       help="point storage dtype (float32 halves memory; "
                            "distance arithmetic stays float64)")

    def add_telemetry_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--events-out", default=None, metavar="PATH",
                       help="write the run's JSONL telemetry event log here "
                            "(simulated algorithms only; implies tracing)")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the run's metrics registry here in "
                            "Prometheus text exposition format")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="uniform",
                       help="workload name (uniform, ball, gaussian, clustered, grid, annulus, collinear)")
        p.add_argument("--points-file", default=None,
                       help=".npz/.npy file with an (n, d) float array (overrides --workload)")
        p.add_argument("-n", "--n", type=int, default=4096, help="number of points")
        p.add_argument("-d", "--d", type=int, default=2, help="dimension")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    knn = sub.add_parser("knn", help="compute the exact k-NN graph")
    add_workload_args(knn)
    knn.add_argument("-k", "--k", type=int, default=1, help="neighbors per point")
    knn.add_argument("--algo", default="fast",
                     choices=["fast", "simple", "query", "kdtree", "grid", "brute"])
    knn.add_argument("--scan", default="unit", choices=["unit", "loglog", "log"],
                     help="SCAN cost policy of the simulated machine")
    add_engine_args(knn, "frontier batches whole tree levels, frontier-mp "
                         "runs them on worker processes — see docs/engines.md)")
    knn.add_argument("--check", action="store_true", help="verify against brute force")
    knn.add_argument("--out", default=None, help="save edges to this .npz file")
    knn.add_argument("--trace-out", default=None, metavar="PATH",
                     help="record a span trace and write Chrome-trace JSON here")
    add_telemetry_args(knn)

    seps = sub.add_parser("separators", help="separator quality report")
    add_workload_args(seps)
    seps.add_argument("-k", "--k", type=int, default=1)
    seps.add_argument("--draws", type=int, default=10)

    scaling = sub.add_parser("scaling", help="fast vs simple depth sweep")
    scaling.add_argument("--sizes", type=int, nargs="+",
                         default=[1024, 2048, 4096, 8192])
    scaling.add_argument("-d", "--d", type=int, default=2)
    scaling.add_argument("-k", "--k", type=int, default=1)
    scaling.add_argument("--seed", type=int, default=0)
    add_engine_args(scaling, "used for both algorithms)")
    scaling.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write a Chrome-trace JSON of the largest fast run")
    add_telemetry_args(scaling)

    dissect = sub.add_parser("dissect", help="separator tree + nested dissection")
    add_workload_args(dissect)
    dissect.add_argument("-k", "--k", type=int, default=2)
    dissect.add_argument("--min-size", type=int, default=32)
    dissect.add_argument("--fill", action="store_true",
                         help="also count elimination fill (slow for large n)")

    trace = sub.add_parser(
        "trace", help="run an algorithm under tracing; print + export the span tree"
    )
    trace.add_argument("target", nargs="?", default="knn", choices=["knn"],
                       help="what to trace (currently: the all-kNN computation)")
    add_workload_args(trace)
    trace.add_argument("-k", "--k", type=int, default=1, help="neighbors per point")
    trace.add_argument("--method", default="fast", choices=["fast", "simple", "query"],
                       help="algorithm to run (see repro.api.all_knn)")
    trace.add_argument("--scan", default="unit", choices=["unit", "loglog", "log"],
                       help="SCAN cost policy of the simulated machine")
    add_engine_args(trace, "the frontier engines emit per-level spans "
                           "instead of per-node spans)")
    trace.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the Chrome-trace JSON here")
    add_telemetry_args(trace)
    trace.add_argument("--flame-width", type=int, default=40,
                       help="bar width of the ASCII flame summary")
    trace.add_argument("--flame", default=None, metavar="TRACE.json",
                       help="print the ASCII flame summary of a saved trace "
                            "file and exit (no run)")
    trace.add_argument("--compare", nargs=2, default=None,
                       metavar=("A.json", "B.json"),
                       help="diff two saved traces' per-level exclusive-work "
                            "breakdowns and exit (no run)")

    serve = sub.add_parser(
        "serve", help="serve a k-NN query workload through the batching layer"
    )
    add_workload_args(serve)
    serve.add_argument("-k", "--k", type=int, default=1, help="neighbors per query")
    serve.add_argument("--kind", default="knn", choices=["knn", "covering"],
                       help="request kind: exact k-NN for new points, or the "
                            "Section-3 covering-balls query")
    serve.add_argument("--queries", type=int, default=1024, metavar="M",
                       help="number of query points to generate (same workload "
                            "family, fresh seed)")
    serve.add_argument("--queries-file", default=None, metavar="PATH",
                       help="serve queries from this saved workload file "
                            "(repro.workloads.io format or a plain .npy/.npz; "
                            "overrides --queries)")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="execute as soon as this many requests are pending")
    serve.add_argument("--max-wait-ms", type=float, default=None,
                       help="also execute once the oldest pending request has "
                            "waited this long (default: batch-size only)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU result-cache entries (0 disables caching)")
    serve.add_argument("--serve-workers", type=int, default=None, metavar="N",
                       help="fan batches across N serving worker processes "
                            "(default: serve on this process)")
    serve.add_argument("--repeat", type=int, default=1,
                       help="stream the query workload this many times "
                            "(repeats exercise the cache)")
    add_engine_args(serve, "used for the offline index build)")
    serve.add_argument("--load-index", default=None, metavar="PATH",
                       help="serve from a saved ServingIndex instead of building")
    serve.add_argument("--save-index", default=None, metavar="PATH",
                       help="save the built ServingIndex here")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record serve.batch spans and write Chrome-trace "
                            "JSON here")
    serve.add_argument("--mutations-file", default=None, metavar="PATH",
                       help="JSONL insert/delete/commit stream to interleave "
                            "with the query workload: each commit hot-swaps "
                            "the serving stack to the new index version "
                            "(incompatible with --load-index)")
    serve.add_argument("--churn-threshold", type=float, default=0.05,
                       help="mutation fraction above which a commit rebuilds "
                            "from scratch instead of absorbing")
    add_telemetry_args(serve)

    update = sub.add_parser(
        "update", help="replay an insert/delete stream through the online index"
    )
    add_workload_args(update)
    update.add_argument("-k", "--k", type=int, default=1, help="neighbors per point")
    update.add_argument("--mutations-file", default=None, metavar="PATH",
                        help="JSONL mutation stream (ops: insert/delete/commit); "
                             "default: a seeded generated stream")
    update.add_argument("--commits", type=int, default=5,
                        help="generated stream: number of commits")
    update.add_argument("--batch", type=int, default=32,
                        help="generated stream: mutations per commit")
    update.add_argument("--delete-fraction", type=float, default=0.5,
                        help="generated stream: fraction of each batch that "
                             "deletes (the rest inserts)")
    update.add_argument("--churn-threshold", type=float, default=0.05,
                        help="mutation fraction above which a commit rebuilds "
                             "from scratch instead of absorbing")
    update.add_argument("--check", action="store_true",
                        help="verify every commit is bit-identical (neighbors, "
                             "tree, ledger, counters) to a from-scratch build")
    update.add_argument("--save-index", default=None, metavar="PATH",
                        help="save the final version's ServingIndex snapshot")
    update.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the last commit "
                             "(update.absorb / update.rebuild spans)")
    add_telemetry_args(update)

    net = sub.add_parser(
        "net", help="network front-end: serve over HTTP, or generate load"
    )
    netsub = net.add_subparsers(dest="net_command", required=True)

    nserve = netsub.add_parser(
        "serve", help="serve k-NN over HTTP (asyncio front-end; SIGTERM drains)"
    )
    add_workload_args(nserve)
    nserve.add_argument("-k", "--k", type=int, default=1, help="neighbors per query")
    nserve.add_argument("--host", default="127.0.0.1", help="listen address")
    nserve.add_argument("--port", type=int, default=8377,
                        help="listen port (0 binds an ephemeral port)")
    nserve.add_argument("--max-batch", type=int, default=256,
                        help="micro-batch size bound per tenant")
    nserve.add_argument("--max-wait-ms", type=float, default=20.0,
                        help="batching-window ceiling in milliseconds")
    nserve.add_argument("--no-adaptive", action="store_true",
                        help="pin the batching window at the ceiling instead of "
                             "adapting it to load (see docs/networking.md)")
    nserve.add_argument("--slo-p95-ms", type=float, default=None,
                        help="p95 latency target the adaptive window steers "
                             "under (default: pure load-proportional control)")
    nserve.add_argument("--rate", type=float, default=None,
                        help="token-bucket admission rate, requests/second "
                             "(default: unlimited)")
    nserve.add_argument("--burst", type=int, default=256,
                        help="token-bucket burst capacity")
    nserve.add_argument("--max-inflight", type=int, default=1024,
                        help="bound on admitted-but-unanswered requests "
                             "(HTTP 429 past it)")
    nserve.add_argument("--deadline-ms", type=float, default=None,
                        help="default per-request latency budget (HTTP 504 "
                             "past it; default: none)")
    nserve.add_argument("--cache-size", type=int, default=1024,
                        help="LRU result-cache entries per tenant (0 disables)")
    nserve.add_argument("--serve-workers", type=int, default=None, metavar="N",
                        help="fan batches across N serving worker processes")
    nserve.add_argument("--drain-timeout-s", type=float, default=10.0,
                        help="upper bound on the graceful-drain wait")
    nserve.add_argument("--no-trace-requests", action="store_true",
                        help="do not retain per-request timelines (responses "
                             "are byte-identical either way; /debug/* answer "
                             "empty)")
    nserve.add_argument("--recorder-capacity", type=int, default=256,
                        help="flight-recorder ring size (last-N timelines)")
    nserve.add_argument("--recorder-slow-k", type=int, default=16,
                        help="slowest-request timelines retained")
    nserve.add_argument("--slo-objective", type=float, default=0.95,
                        help="fraction of requests that must meet --slo-p95-ms "
                             "(SLO tracking needs --slo-p95-ms)")
    nserve.add_argument("--slo-error-objective", type=float, default=0.999,
                        help="availability objective for the error burn rate")

    nload = netsub.add_parser(
        "load", help="open-loop fixed-QPS load sweep against a net server"
    )
    add_workload_args(nload)
    nload.add_argument("-k", "--k", type=int, default=1, help="neighbors per query")
    nload.add_argument("--self-serve", action="store_true",
                       help="start an in-process loopback server over the "
                            "workload and load-test it (default: target "
                            "--host/--port)")
    nload.add_argument("--host", default="127.0.0.1", help="target server host")
    nload.add_argument("--port", type=int, default=8377, help="target server port")
    nload.add_argument("--qps", type=float, nargs="+", default=[200.0, 1000.0],
                       help="target request rates to sweep")
    nload.add_argument("--duration", type=float, default=2.0,
                       help="seconds per QPS level")
    nload.add_argument("--arrivals", default="fixed", choices=["fixed", "poisson"],
                       help="arrival process (seeded; open-loop either way)")
    nload.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline carried in each query")
    nload.add_argument("--max-batch", type=int, default=256,
                       help="self-serve: micro-batch size bound")
    nload.add_argument("--max-wait-ms", type=float, default=20.0,
                       help="self-serve: batching-window ceiling")
    nload.add_argument("--modes", nargs="+", default=["adaptive"],
                       choices=["adaptive", "ceiling", "zero"],
                       help="self-serve: batching-window policies to compare "
                            "(adaptive, fixed at the ceiling, fixed at 0)")
    nload.add_argument("--out", default=None, metavar="PATH",
                       help="also write the p50/p99-vs-QPS table here")
    nload.add_argument("--debug-dump", default=None, metavar="PATH",
                       help="after the sweep, fetch the server's flight "
                            "recorder (/debug/requests, /debug/slow, "
                            "/debug/vars) and write the JSON dump here")

    ndebug = netsub.add_parser(
        "debug", help="inspect a live net server's flight recorder and vars"
    )
    ndebug.add_argument("what", nargs="?", default="vars",
                        choices=["requests", "slow", "vars"],
                        help="requests: last-N timelines; slow: slowest-K "
                             "with queued/execute breakdown; vars: one-stop "
                             "server state dump")
    ndebug.add_argument("--host", default="127.0.0.1", help="target server host")
    ndebug.add_argument("--port", type=int, default=8377, help="target server port")
    ndebug.add_argument("--limit", type=int, default=None,
                        help="cap on returned timelines (requests/slow)")
    ndebug.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw JSON instead of a table")
    return parser


def _load_points(args: argparse.Namespace) -> np.ndarray:
    from .workloads import make_workload

    if args.points_file:
        loaded = np.load(args.points_file)
        arr = loaded["points"] if hasattr(loaded, "files") else loaded
        return np.asarray(arr, dtype=np.float64)
    return make_workload(args.workload, args.n, args.d, args.seed)


def _write_trace_file(path: str, tracer, machine, **meta) -> None:
    from .obs import write_trace

    write_trace(path, tracer, total=machine.total,
                metrics=machine.metrics.to_dict(), meta=meta)
    print(f"wrote trace {path}")


def _note_telemetry(args: argparse.Namespace) -> None:
    if getattr(args, "events_out", None):
        print(f"wrote events {args.events_out}")
    if getattr(args, "metrics_out", None):
        print(f"wrote metrics {args.metrics_out}")


def _cmd_knn(args: argparse.Namespace) -> int:
    from .api import all_knn, run_traced
    from .baselines import brute_force_knn, grid_knn, kdtree_knn
    from .core import knn_graph_edges
    from .pvm import Machine, brent_time

    pts = _load_points(args)
    n = pts.shape[0]
    machine = Machine(scan=args.scan)
    simulated = args.algo in ("fast", "simple", "query", "brute")
    stats = None
    if simulated:
        if args.trace_out or args.events_out or args.metrics_out:
            result, tracer = run_traced(pts, args.k, method=args.algo,
                                        machine=machine, seed=args.seed,
                                        engine=args.engine, workers=args.workers,
                                        dtype=args.dtype,
                                        events_out=args.events_out,
                                        metrics_out=args.metrics_out)
            _note_telemetry(args)
        else:
            result, tracer = all_knn(pts, args.k, method=args.algo,
                                     machine=machine, seed=args.seed,
                                     engine=args.engine, workers=args.workers,
                                     dtype=args.dtype), None
        system, stats = result.system, result.stats
    elif args.algo == "kdtree":
        system, tracer = kdtree_knn(pts, args.k), None
    else:
        system, tracer = grid_knn(pts, args.k), None
    edges = knn_graph_edges(system)
    print(f"{args.algo}: n={n} d={pts.shape[1]} k={args.k} -> {edges.shape[0]} edges")
    if simulated:
        cost = machine.total
        print(f"simulated cost: depth={cost.depth:.0f} work={cost.work:.0f} "
              f"T_n={brent_time(cost, n):.0f}")
        for name, c in sorted(machine.sections.items()):
            print(f"  phase {name:<8} work={c.work:.0f}")
    if stats is not None and hasattr(stats, "punts"):
        print(f"punts={stats.punts} separator_draws={stats.separator_attempts}")
    if tracer is not None and args.trace_out:
        _write_trace_file(args.trace_out, tracer, machine, command="knn",
                          algo=args.algo, n=n, d=int(pts.shape[1]), k=args.k)
    if args.check:
        # check against brute force over the *stored* points, so a
        # --dtype float32 run is compared on its own coordinates
        ref = brute_force_knn(system.points, args.k)
        ok = system.same_distances(ref)
        print(f"brute-force check: {'OK' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    if args.out:
        np.savez(args.out, edges=edges, points=pts,
                 neighbor_indices=system.neighbor_indices,
                 neighbor_sq_dists=system.neighbor_sq_dists)
        print(f"saved {args.out}")
    return 0


def _cmd_separators(args: argparse.Namespace) -> int:
    from .baselines import brute_force_knn
    from .separators import MTTVSeparatorSampler, ball_split, default_delta, median_hyperplane

    pts = _load_points(args)
    balls = brute_force_knn(pts, args.k).to_ball_system()
    d = pts.shape[1]
    sampler = MTTVSeparatorSampler(pts, seed=args.seed)
    print(f"target delta = {default_delta(d, 0.05):.3f}; "
          f"sqrt-law scale n^{(d - 1) / d:.2f} = {pts.shape[0] ** ((d - 1) / d):.0f}")
    print(f"{'draw':>4} {'kind':<11} {'split':>6} {'iota':>6}")
    for i in range(args.draws):
        sep = sampler.draw()
        rep = ball_split(sep, balls)
        print(f"{i:>4} {type(sep).__name__:<11} {rep.split_ratio:>6.3f} {rep.intersection_number:>6}")
    plane = median_hyperplane(pts)
    rep = ball_split(plane, balls)
    print(f"{'--':>4} {'MedianCut':<11} {rep.split_ratio:>6.3f} {rep.intersection_number:>6}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .api import all_knn, run_traced
    from .pvm import Machine
    from .workloads import uniform_cube

    rows = []
    largest = max(args.sizes)
    telemetry = args.trace_out or args.events_out or args.metrics_out
    print(f"{'n':>8} {'fast depth':>11} {'simple depth':>13} {'ratio':>6}")
    for n in args.sizes:
        pts = uniform_cube(n, args.d, args.seed + n)
        fast_machine = Machine()
        if telemetry and n == largest:
            fast, tracer = run_traced(pts, args.k, method="fast",
                                      machine=fast_machine, seed=args.seed,
                                      engine=args.engine, workers=args.workers,
                                      dtype=args.dtype,
                                      events_out=args.events_out,
                                      metrics_out=args.metrics_out)
            if args.trace_out:
                _write_trace_file(args.trace_out, tracer, fast_machine,
                                  command="scaling", algo="fast", n=n,
                                  d=args.d, k=args.k)
            _note_telemetry(args)
        else:
            fast = all_knn(pts, args.k, method="fast", machine=fast_machine,
                           seed=args.seed, engine=args.engine, workers=args.workers,
                           dtype=args.dtype)
        simple = all_knn(pts, args.k, method="simple", machine=Machine(),
                         seed=args.seed, engine=args.engine, workers=args.workers,
                         dtype=args.dtype)
        rows.append((n, fast.cost.depth, simple.cost.depth))
        print(f"{n:>8} {fast.cost.depth:>11.0f} {simple.cost.depth:>13.0f} "
              f"{simple.cost.depth / fast.cost.depth:>5.2f}x")
    if len(rows) >= 2:
        from .analysis import Series, ascii_chart

        print()
        print(ascii_chart(
            [Series("fast", [r[0] for r in rows], [r[1] for r in rows]),
             Series("simple", [r[0] for r in rows], [r[2] for r in rows])],
            log_x=True, title="depth vs n", width=48, height=12,
        ))
    return 0


def _cmd_dissect(args: argparse.Namespace) -> int:
    from .baselines import brute_force_knn
    from .core import (
        build_separator_tree,
        check_separation,
        elimination_fill,
        knn_graph_edges,
        nested_dissection_order,
        separator_profile,
    )

    pts = _load_points(args)
    system = brute_force_knn(pts, args.k)
    tree = build_separator_tree(system, seed=args.seed, min_size=args.min_size)
    ok = check_separation(system, tree)
    print(f"separator tree: height {tree.height()}, separation {'OK' if ok else 'VIOLATED'}")
    for m, s in separator_profile(tree)[:8]:
        print(f"  node size {m:>6} separator {s:>5}  ({s / max(m, 1) ** 0.5:.2f} x sqrt)")
    if args.fill:
        edges = knn_graph_edges(system)
        order = nested_dissection_order(tree)
        nd = elimination_fill(edges, order)
        rnd = elimination_fill(edges, np.random.default_rng(args.seed + 1).permutation(pts.shape[0]))
        print(f"fill-in: nested dissection {nd}, random {rnd} ({rnd / max(nd, 1):.1f}x)")
    return 0 if ok else 1


def _flame_from_file(path: str, width: int) -> int:
    from .obs import load_trace

    tracer, payload = load_trace(path)
    meta = payload.get("otherData", {})
    total = meta.get("total", {})
    print(f"flame summary of {path}"
          + (f"  (depth={total['depth']:.2f}, work={total['work']:.0f})"
             if total else ""))
    print()
    print(tracer.flame_summary(width=width))
    return 0


def _compare_traces(path_a: str, path_b: str) -> int:
    from .obs import load_trace

    rows = {}
    for which, path in (("a", path_a), ("b", path_b)):
        tracer, _ = load_trace(path)
        for row in tracer.per_level_breakdown():
            rows.setdefault(int(row["level"]), {})[which] = row
    print(f"per-level exclusive work: A={path_a}  B={path_b}")
    print(f"{'level':>5} {'excl work A':>14} {'excl work B':>14} "
          f"{'delta':>12} {'B/A':>7}")
    total_a = total_b = 0.0
    for level in sorted(rows):
        a = rows[level].get("a", {}).get("exclusive_work", 0.0)
        b = rows[level].get("b", {}).get("exclusive_work", 0.0)
        total_a += a
        total_b += b
        ratio = f"{b / a:>6.2f}x" if a else "     --"
        print(f"{level:>5} {a:>14.0f} {b:>14.0f} {b - a:>+12.0f} {ratio}")
    ratio = f"{total_b / total_a:>6.2f}x" if total_a else "     --"
    print(f"{'all':>5} {total_a:>14.0f} {total_b:>14.0f} "
          f"{total_b - total_a:>+12.0f} {ratio}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .api import run_traced
    from .pvm import Machine, brent_time

    if args.flame:
        return _flame_from_file(args.flame, args.flame_width)
    if args.compare:
        return _compare_traces(args.compare[0], args.compare[1])
    pts = _load_points(args)
    n, d = pts.shape
    machine = Machine(scan=args.scan)
    result, tracer = run_traced(pts, args.k, method=args.method,
                                machine=machine, seed=args.seed,
                                engine=args.engine, workers=args.workers,
                                dtype=args.dtype,
                                events_out=args.events_out,
                                metrics_out=args.metrics_out)
    _note_telemetry(args)
    cost = result.cost
    root = tracer.root
    print(f"trace {args.target}: method={args.method} n={n} d={d} k={args.k}")
    print(f"spans={tracer.span_count()}  "
          f"root (depth={root.cost.depth:.2f}, work={root.cost.work:.0f})  "
          f"ledger (depth={cost.depth:.2f}, work={cost.work:.0f})  "
          f"T_n={brent_time(cost, n):.0f}")
    print("span tree vs cost ledger: EXACT (root cost and per-level work verified)")
    print()
    print(tracer.flame_summary(width=args.flame_width))
    print()
    print(f"{'level':>5} {'spans':>6} {'incl work':>12} {'excl work':>12} {'max depth':>10}")
    for row in tracer.per_level_breakdown():
        print(f"{row['level']:>5} {row['spans']:>6} {row['inclusive_work']:>12.0f} "
              f"{row['exclusive_work']:>12.0f} {row['max_depth']:>10.2f}")
    if args.trace_out:
        print()
        _write_trace_file(args.trace_out, tracer, machine, command="trace",
                          method=args.method, n=int(n), d=int(d), k=int(args.k))
    return 0


def _load_queries(args: argparse.Namespace, d: int) -> np.ndarray:
    from .workloads import load_workload, make_workload

    if args.queries_file:
        loaded = np.load(args.queries_file)
        if hasattr(loaded, "files"):  # .npz: a saved workload record
            return np.asarray(load_workload(args.queries_file).points, dtype=np.float64)
        return np.asarray(loaded, dtype=np.float64)  # bare .npy array
    # fresh seed so queries are not the data points verbatim
    return make_workload(args.workload, args.queries, d, args.seed + 10_000)


def _load_mutation_stream(path: str):
    """Parse a JSONL mutation file into per-commit op groups.

    Each line is one op: ``{"op": "insert", "points": [[...], ...]}``,
    ``{"op": "delete", "ids": [...]}`` or ``{"op": "commit"}``.  Blank
    lines and ``#`` comments are skipped; trailing ops without a final
    commit form one last group.
    """
    import json

    groups, current = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                op = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: bad JSON: {exc}")
            kind = op.get("op")
            if kind == "commit":
                groups.append(current)
                current = []
            elif kind in ("insert", "delete"):
                current.append(op)
            else:
                raise SystemExit(
                    f"{path}:{lineno}: unknown op {kind!r} "
                    "(expected insert, delete or commit)"
                )
    if current:
        groups.append(current)
    return groups


def _generated_mutation_stream(n0: int, d: int, commits: int, batch: int,
                               delete_fraction: float, seed: int):
    """A seeded insert/delete stream in the same op-group format."""
    if not 0.0 <= delete_fraction <= 1.0:
        raise SystemExit(f"--delete-fraction must be in [0, 1], got {delete_fraction}")
    rng = np.random.default_rng(seed + 20_000)
    n = n0
    groups = []
    for _ in range(commits):
        n_del = min(int(round(batch * delete_fraction)), max(0, n - 2))
        n_ins = batch - n_del
        ops = []
        if n_ins:
            ops.append({"op": "insert", "points": rng.random((n_ins, d)).tolist()})
        if n_del:
            ids = rng.choice(n, size=n_del, replace=False)
            ops.append({"op": "delete", "ids": sorted(int(i) for i in ids)})
        groups.append(ops)
        n += n_ins - n_del
    return groups


def _apply_mutation_group(index, ops) -> tuple:
    """Buffer one op group on a MutableIndex/Index; returns (inserts, deletes)."""
    ins = dels = 0
    for op in ops:
        if op["op"] == "insert":
            pts = np.asarray(op["points"], dtype=np.float64)
            index.insert(pts)
            ins += pts.shape[0]
        else:
            ids = op["ids"]
            index.delete(ids)
            dels += len(ids)
    return ins, dels


def _commit_path(info) -> str:
    return "noop" if info.noop else ("rebuild" if info.punted else "absorb")


def _cmd_update(args: argparse.Namespace) -> int:
    import time

    from .core.online import MutableIndex, equivalence_report

    pts = _load_points(args)
    t0 = time.perf_counter()
    index = MutableIndex(
        pts, args.k, seed=args.seed,
        churn_threshold=args.churn_threshold,
        trace_commits=bool(args.trace_out or args.events_out),
    )
    build_s = time.perf_counter() - t0
    print(f"update: built v0 n={index.n} d={index.d} k={args.k} in {build_s:.2f}s "
          f"(depth={index.cost.depth:.0f} work={index.cost.work:.0f})")
    if args.mutations_file:
        groups = _load_mutation_stream(args.mutations_file)
    else:
        groups = _generated_mutation_stream(index.n, index.d, args.commits,
                                            args.batch, args.delete_fraction,
                                            args.seed)
    print(f"{'ver':>4} {'n':>8} {'+ins':>6} {'-del':>6} {'churn':>7} "
          f"{'path':<7} {'reused':>7} {'leaves':>7} {'wall':>8}"
          + ("  check" if args.check else ""))
    failures = 0
    for ops in groups:
        ins, dels = _apply_mutation_group(index, ops)
        info = index.commit()
        line = (f"{info.version:>4} {info.n:>8} {ins:>+6} {-dels:>6} "
                f"{info.churn:>6.2%} {_commit_path(info):<7} "
                f"{info.reused_fraction:>6.1%} {info.touched_leaves:>7} "
                f"{info.wall_s:>7.2f}s")
        if args.check:
            mismatches = equivalence_report(index, index.fresh_like())
            line += "  exact" if not mismatches else "  MISMATCH"
            if mismatches:
                failures += 1
        print(line)
        if args.check and mismatches:
            for m in mismatches:
                print(f"       ! {m}")
    stats = index.update_stats
    print(f"commits={stats.commits} absorbed={stats.absorbed} punts={stats.punts} "
          f"inserted={stats.inserted} deleted={stats.deleted} "
          f"final n={index.n} version={index.version}")
    if args.save_index:
        index.snapshot().save(args.save_index)
        print(f"saved index {args.save_index}")
    if args.trace_out and index.machine.tracer is not None:
        _write_trace_file(args.trace_out, index.machine.tracer, index.machine,
                          command="update", n=index.n, d=index.d, k=int(args.k),
                          version=index.version)
    if args.events_out and index.machine.tracer is not None:
        from .obs.export import write_events_jsonl

        write_events_jsonl(args.events_out, index.machine.tracer)
    if args.metrics_out:
        # one registry: the lifetime update.* metrics next to the last
        # commit's build metrics
        from .obs import Metrics

        merged = Metrics()
        merged.merge(index.update_metrics)
        merged.merge(index.machine.metrics)
        with open(args.metrics_out, "w") as fh:
            fh.write(merged.to_prometheus())
    _note_telemetry(args)
    if failures:
        print(f"equivalence check FAILED on {failures} commit(s)")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .pvm import Machine
    from .serve import Batcher, ResultCache, ServingIndex, ServingPool

    machine = Machine()
    tracing = bool(args.trace_out or args.events_out)
    if tracing:
        machine.enable_tracing()
    if args.mutations_file and args.load_index:
        raise SystemExit("--mutations-file needs a built index; it is "
                         "incompatible with --load-index")
    if args.mutations_file and args.dtype == "float32":
        raise SystemExit("--mutations-file serves through the online index, "
                         "which is float64-only; drop --dtype float32")
    if args.mutations_file and (args.engine is not None or args.workers is not None):
        raise SystemExit("--mutations-file serves through the online index, "
                         "which builds with its own profile; drop --engine "
                         "and --workers")

    mut_groups = (_load_mutation_stream(args.mutations_file)
                  if args.mutations_file else [])
    mutable = None
    t0 = time.perf_counter()
    if args.load_index:
        index = ServingIndex.load(args.load_index)
        built = "loaded"
    elif mut_groups:
        from .core.online import MutableIndex

        pts = _load_points(args)
        mutable = MutableIndex(pts, args.k, seed=args.seed,
                               churn_threshold=args.churn_threshold)
        index = mutable.snapshot(with_structure=(args.kind == "covering"))
        built = "built (online)"
    else:
        pts = _load_points(args)
        index = ServingIndex.build(
            pts, args.k, machine=machine, seed=args.seed,
            engine=args.engine, workers=args.workers,
            dtype=args.dtype,
            with_structure=(args.kind == "covering"),
        )
        built = "built"
    build_s = time.perf_counter() - t0
    if args.save_index:
        index.save(args.save_index)
        print(f"saved index {args.save_index}")

    queries = _load_queries(args, index.d)
    cache = ResultCache(args.cache_size) if args.cache_size > 0 else None
    pool = (ServingPool(index, args.serve_workers, machine=machine)
            if args.serve_workers is not None else None)
    batcher = Batcher(index, kind=args.kind, k=args.k,
                      max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                      cache=cache, machine=machine, pool=pool)

    # hot swaps spread evenly across the stream: swap j fires after
    # ceil(total * (j+1) / (groups+1)) requests have been submitted
    total = int(queries.shape[0]) * args.repeat
    swap_after = {
        -(-total * (j + 1) // (len(mut_groups) + 1)): j for j in range(len(mut_groups))
    }
    tickets = []
    ticket_versions = []
    swap_walls = []
    t1 = time.perf_counter()
    span = machine.span("serve.session", queries=int(queries.shape[0]),
                        repeat=args.repeat) if tracing else None
    if span is not None:
        span.__enter__()
    try:
        for _ in range(args.repeat):
            for row in queries:
                if len(tickets) in swap_after:
                    ops = mut_groups[swap_after[len(tickets)]]
                    ins, dels = _apply_mutation_group(mutable, ops)
                    info = mutable.commit()
                    ts = time.perf_counter()
                    batcher.swap_index(mutable.snapshot(
                        with_structure=(args.kind == "covering")))
                    swap_walls.append(time.perf_counter() - ts)
                    print(f"  swap -> v{info.version}: {_commit_path(info)} "
                          f"n={info.n} +{ins} -{dels} churn={info.churn:.2%} "
                          f"commit={info.wall_s:.2f}s swap={swap_walls[-1] * 1e3:.1f}ms")
                tickets.append(batcher.submit(row))
                ticket_versions.append(batcher.index.version)
                batcher.poll()
            # each repeat is one full pass over the workload; completing it
            # before the next makes later passes exercise the warm cache
            batcher.flush()
    finally:
        if span is not None:
            span.__exit__(None, None, None)
        batcher.close()
    wall = time.perf_counter() - t1

    lat_ms = np.array([t.latency_s for t in tickets]) * 1e3
    stats = batcher.stats
    n_req = len(tickets)
    print(f"serve: kind={args.kind} index {built} in {build_s:.2f}s "
          f"(n={index.n} d={index.d} k={args.k})")
    mode = (f"{args.serve_workers} serving workers" if args.serve_workers
            else "in-process")
    print(f"served {n_req} requests in {wall:.3f}s ({mode}); "
          f"batches={stats.batches} max_batch={args.max_batch}")
    hits, misses = stats.cache_hits, stats.cache_misses
    if cache is not None:
        total_lookups = hits + misses
        print(f"cache: {hits}/{total_lookups} hits ({hits / total_lookups:.1%})"
              if total_lookups else "cache: no lookups")
    print(f"latency p50={np.percentile(lat_ms, 50):.3f}ms "
          f"p95={np.percentile(lat_ms, 95):.3f}ms "
          f"p99={np.percentile(lat_ms, 99):.3f}ms "
          f"max={lat_ms.max():.3f}ms   QPS={n_req / wall:,.0f}")
    hist = stats.request_ms
    if hist.count:
        # the server-side histogram next to the exact client-side numbers:
        # bucketed, so quantiles are interpolated within log-linear buckets
        print(f"server-side request_ms (histogram, {hist.count} obs): "
              f"p50={hist.percentile(50):.3f}ms "
              f"p95={hist.percentile(95):.3f}ms "
              f"p99={hist.percentile(99):.3f}ms")
    if mut_groups:
        unfulfilled = sum(1 for t in tickets if not t.done)
        versions = np.array(ticket_versions)
        print(f"hot swaps: {stats.swaps} "
              f"(max swap stall {max(swap_walls) * 1e3:.1f}ms); "
              f"unfulfilled tickets: {unfulfilled}")
        print(f"{'version':>8} {'requests':>9} {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}")
        for v in np.unique(versions):
            sel = lat_ms[versions == v]
            print(f"{'v%d' % v:>8} {sel.size:>9} "
                  f"{np.percentile(sel, 50):>8.3f} {np.percentile(sel, 95):>8.3f} "
                  f"{np.percentile(sel, 99):>8.3f}")
        if unfulfilled:
            return 1
    if args.trace_out:
        _write_trace_file(args.trace_out, machine.tracer, machine,
                          command="serve", kind=args.kind, n=index.n,
                          d=index.d, k=int(args.k))
    if args.events_out:
        from .obs.export import write_events_jsonl

        write_events_jsonl(args.events_out, machine.tracer)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(machine.metrics.to_prometheus())
    _note_telemetry(args)
    return 0


def _net_config_from_args(args: argparse.Namespace):
    from .net import NetConfig

    return NetConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, adaptive=not args.no_adaptive,
        slo_p95_ms=args.slo_p95_ms, rate=args.rate, burst=args.burst,
        max_inflight=args.max_inflight, deadline_ms=args.deadline_ms,
        cache_size=args.cache_size, serve_workers=args.serve_workers,
        drain_timeout_s=args.drain_timeout_s,
        trace_requests=not args.no_trace_requests,
        recorder_capacity=args.recorder_capacity,
        recorder_slow_k=args.recorder_slow_k,
        slo_objective=args.slo_objective,
        slo_error_objective=args.slo_error_objective,
    )


def _cmd_net_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .api import net_serve
    from .net import install_signal_handlers

    pts = _load_points(args)
    cfg = _net_config_from_args(args)
    server = net_serve(pts, args.k, net=cfg, seed=args.seed)

    async def _run() -> dict:
        host, port = await server.start()
        uninstall = install_signal_handlers(server)
        tenant = server.tenants.get()
        print(f"net: serving knn (n={tenant.index.n} d={tenant.d} "
              f"k={tenant.k}) on http://{host}:{port} "
              f"adaptive={cfg.adaptive} max_batch={cfg.max_batch} "
              f"max_wait_ms={cfg.max_wait_ms:g}", flush=True)
        print("net: POST /v1/query /v1/mutate, GET /healthz /metrics; "
              "SIGTERM/SIGINT drains gracefully", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass  # drain closed the listener out from under serve_forever
        finally:
            uninstall()
        return await server.stop()  # idempotent; returns the drain summary

    summary = asyncio.run(_run())
    print(f"net: drained clean={summary['clean']} "
          f"inflight_remaining={summary['inflight_remaining']} "
          f"flushed={summary['flushed']}")
    rq = summary.get("request_ms")
    if rq:
        print(f"net: server-side request_ms ({rq['count']} obs): "
              f"p50={rq['p50']:.3f}ms p95={rq['p95']:.3f}ms "
              f"p99={rq['p99']:.3f}ms max={rq['max']:.3f}ms")
    for name, slo in sorted(summary.get("slo", {}).items()):
        w5 = slo["windows"].get("5m", {})
        p95 = slo["p95_ms"]
        att = w5.get("attainment")
        burn = w5.get("burn_rate")
        print(f"net: slo[{name}] target={slo['target_ms']:g}ms "
              f"p95={'n/a' if p95 is None else '%.3fms' % p95} "
              f"attainment_5m={'n/a' if att is None else '%.4f' % att} "
              f"burn_5m={'n/a' if burn is None else '%.2f' % burn} "
              f"errors={slo['errors']}/{slo['total']}")
    return 0 if summary["clean"] else 1


def _timeline_table(rows) -> str:
    """Fixed-width rendering of flight-recorder timeline dicts."""
    lines = [
        f"{'request id':<28} {'kind':<7} {'tenant':<10} {'st':>3} "
        f"{'total ms':>9} {'queued':>8} {'exec':>8} {'batch':>6} "
        f"{'bsz':>4} {'ver':>4} {'hit':>3}"
    ]
    for t in rows:
        lines.append(
            f"{str(t.get('request_id', ''))[:28]:<28} "
            f"{str(t.get('kind', '')):<7} "
            f"{str(t.get('tenant') or '-')[:10]:<10} "
            f"{t.get('status') or 0:>3} "
            f"{t.get('total_ms', 0.0):>9.2f} {t.get('queued_ms', 0.0):>8.2f} "
            f"{t.get('execute_ms', 0.0):>8.2f} "
            f"{t.get('batch_id') if t.get('batch_id') is not None else '-':>6} "
            f"{t.get('batch_size') if t.get('batch_size') is not None else '-':>4} "
            f"{t.get('index_version') if t.get('index_version') is not None else '-':>4} "
            f"{'y' if t.get('cache_hit') else 'n':>3}"
        )
    return "\n".join(lines)


def _fetch_debug_dump(host: str, port: int) -> dict:
    """One JSON blob from all three ``/debug/*`` endpoints of a server."""
    import asyncio

    from .net import http_request

    async def _all() -> dict:
        out = {}
        for name, path in (("requests", "/debug/requests"),
                           ("slow", "/debug/slow"),
                           ("vars", "/debug/vars")):
            status, payload, _ = await http_request(
                host, port, path, method="GET")
            out[name] = payload if status == 200 else {"http_status": status}
        return out

    return asyncio.run(_all())


def _cmd_net_debug(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .net import http_request

    path = {"requests": "/debug/requests", "slow": "/debug/slow",
            "vars": "/debug/vars"}[args.what]
    if args.limit is not None and args.what != "vars":
        path += f"?limit={args.limit}"
    try:
        status, payload, text = asyncio.run(
            http_request(args.host, args.port, path, method="GET"))
    except (ConnectionError, OSError) as exc:
        print(f"net debug: cannot reach {args.host}:{args.port}: {exc}")
        return 1
    if status != 200:
        print(f"GET {path} -> HTTP {status}: {text.strip()}")
        return 1
    if args.as_json or args.what == "vars":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    key = "requests" if args.what == "requests" else "slowest"
    rows = payload.get(key, [])
    print(f"net debug {args.what}: tracing={payload.get('tracing')} "
          f"recorded={payload.get('recorded')} showing={len(rows)}")
    if rows:
        print(_timeline_table(rows))
    return 0


def _cmd_net_load(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .net import format_table, sweep

    pts = _load_points(args)
    sections = []
    debug_dumps = {}

    def _sweep(host: str, port: int, title: str) -> None:
        results = asyncio.run(sweep(
            host, port, qps_list=args.qps, duration_s=args.duration,
            points=pts, k=args.k, deadline_ms=args.deadline_ms,
            arrivals=args.arrivals, seed=args.seed,
        ))
        sections.append(format_table(results, title=title))

    if args.self_serve:
        from .api import net_serve
        from .net import NetConfig, ServerThread

        # one fresh loopback server per window policy so the sweeps are
        # independent; port 0 keeps parallel CI jobs from colliding
        policies = {
            "adaptive": dict(adaptive=True, max_wait_ms=args.max_wait_ms),
            "ceiling": dict(adaptive=False, max_wait_ms=args.max_wait_ms),
            "zero": dict(adaptive=False, max_wait_ms=0.0),
        }
        for mode in args.modes:
            cfg = NetConfig(port=0, max_batch=args.max_batch,
                            **policies[mode])
            server = net_serve(pts, args.k, net=cfg, seed=args.seed)
            with ServerThread(server) as st:
                _sweep("127.0.0.1", st.port,
                       f"net load  window={mode} (self-serve n={pts.shape[0]:,} "
                       f"k={args.k} arrivals={args.arrivals} "
                       f"duration={args.duration:g}s/level)")
                # grab the flight recorder before the drain tears it down
                if args.debug_dump:
                    debug_dumps[mode] = _fetch_debug_dump("127.0.0.1", st.port)
    else:
        _sweep(args.host, args.port,
               f"net load  {args.host}:{args.port} "
               f"(arrivals={args.arrivals} duration={args.duration:g}s/level)")
        if args.debug_dump:
            debug_dumps["target"] = _fetch_debug_dump(args.host, args.port)

    text = "\n\n".join(sections)
    print(text)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    if args.debug_dump:
        import json

        out_dir = os.path.dirname(os.path.abspath(args.debug_dump))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.debug_dump, "w") as fh:
            json.dump(debug_dumps, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote flight-recorder dump {args.debug_dump}")
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    return {"serve": _cmd_net_serve, "load": _cmd_net_load,
            "debug": _cmd_net_debug}[args.net_command](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "knn": _cmd_knn,
        "separators": _cmd_separators,
        "scaling": _cmd_scaling,
        "dissect": _cmd_dissect,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "update": _cmd_update,
        "net": _cmd_net,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
