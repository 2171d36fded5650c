"""A7 — Kernels: wall-clock of the numpy hot-path kernels.

The build and query hot paths call the plain numpy functions of
``repro.kernels`` (side tests, fused classify+pack splits, base-case
brute force, candidate merges, vectorised query descent).  Routing
them through one module must be ~free: frontier builds and bulk queries
stay within 1.05x of the pre-refactor baseline wall-clock (constants
below, measured on the same host before ``repro.kernels`` existed).
Per-op calls, rows and self time inside a real build come from the
repository benchmark instead (``python3 perfbench/run.py --workload
build --trace 1``).

Acceptance: build/query <= 1.05x the pre-refactor baseline.  The tables
record the host's core count per row.
"""

from __future__ import annotations

import os
import time

from repro.core import FastDnCConfig, parallel_nearest_neighborhood
from repro.core.query_points import knn_query
from repro.kernels.layout import FlatTree
from repro.pvm import Machine
from repro.workloads import uniform_cube

from common import bench_seed, record_bench_run, table_bench, write_table

# Pre-refactor wall-clock on the reference host (frontier engine, d=2,
# k=2; query: 50k queries against a 200k-point tree).  These are the
# numbers the <= 1.05x no-regression bar compares against.
BASELINE_BUILD_S = {100_000: 2.013, 250_000: 5.469, 500_000: 10.716}
BASELINE_QUERY_S = 1.068
REGRESSION_BAR = 1.05
MAX_PASSES = 6  # re-measure under transient host load (see below)


def _timed_build(points, k):
    machine = Machine()
    t0 = time.perf_counter()
    res = parallel_nearest_neighborhood(
        points, k, machine=machine, seed=bench_seed(7),
        config=FastDnCConfig(engine="frontier"),
    )
    return time.perf_counter() - t0, res, machine


@table_bench
def test_a7_build_wallclock_table():
    """Frontier builds vs the pre-refactor baseline."""
    cores = os.cpu_count() or 1
    # warm the process (imports, BLAS thread pools) so the timed runs
    # compare against the baseline under the same steady-state
    # conditions it was measured in
    _timed_build(uniform_cube(20_000, 2, bench_seed(5)), 2)
    # The baseline is a constant from another point in time, so unlike
    # a3's same-run ratio the comparison does NOT cancel host load.  Keep
    # the per-size minimum over up to MAX_PASSES passes and stop as soon
    # as the bar is met: transient load retries away, a real regression
    # fails every pass.
    best = {}
    machines = {}
    worst_ratio = None
    for _ in range(MAX_PASSES):
        for n in sorted(BASELINE_BUILD_S):
            pts = uniform_cube(n, 2, bench_seed(n + 11))
            t, _, machine = _timed_build(pts, 2)
            if t < best.get(n, float("inf")):
                best[n] = t
            machines[n] = machine
        worst_ratio = max(
            best[n] / base_s for n, base_s in BASELINE_BUILD_S.items()
        )
        if worst_ratio <= REGRESSION_BAR:
            break
    rows = []
    for n, base_s in sorted(BASELINE_BUILD_S.items()):
        record_bench_run(
            "a7_kernels", machines[n],
            params={"n": n, "d": 2, "k": 2, "engine": "frontier",
                    "host_cores": cores},
            extra={"baseline_s": base_s},
            wall_seconds=best[n],
        )
        rows.append((n, cores, f"{base_s:.3f}", f"{best[n]:.3f}",
                     f"{best[n] / base_s:.3f}x"))
    rows.append(("req", "", "", "",
                 f"<= {REGRESSION_BAR:.2f}x; worst {worst_ratio:.3f}x"))
    write_table(
        "a7_kernels_build",
        "A7  frontier build wall-clock, numpy kernels (d=2, k=2)",
        ["n", "cores", "baseline s", "measured s", "vs baseline"],
        rows,
    )
    assert worst_ratio <= REGRESSION_BAR, (
        f"frontier build regressed {worst_ratio:.3f}x over the "
        f"pre-refactor baseline (bar {REGRESSION_BAR}x)"
    )


@table_bench
def test_a7_query_wallclock_table():
    """Bulk knn_query (FlatTree descent + march) vs the baseline."""
    cores = os.cpu_count() or 1
    n, q, k = 200_000, 50_000, 2
    pts = uniform_cube(n, 2, bench_seed(13))
    queries = uniform_cube(q, 2, bench_seed(17))
    _, res, _ = _timed_build(pts, k)
    layout = FlatTree.from_tree(res.tree)
    best = float("inf")
    # constant-baseline comparison: same retry-under-load policy as the
    # build table above
    for _ in range(MAX_PASSES):
        t0 = time.perf_counter()
        idx, sq = knn_query(layout, res.system.points, queries, k)
        best = min(best, time.perf_counter() - t0)
        assert idx.shape == (q, k) and sq.shape == (q, k)
        if best / BASELINE_QUERY_S <= REGRESSION_BAR:
            break
    ratio = best / BASELINE_QUERY_S
    rows = [
        (n, q, cores, f"{BASELINE_QUERY_S:.3f}", f"{best:.3f}",
         f"{ratio:.3f}x"),
        ("req", "", "", "", "", f"<= {REGRESSION_BAR:.2f}x"),
    ]
    write_table(
        "a7_kernels_query",
        "A7  bulk query wall-clock, numpy kernels (50k queries on 200k)",
        ["n", "queries", "cores", "baseline s", "measured s", "vs baseline"],
        rows,
    )
    assert ratio <= REGRESSION_BAR, (
        f"bulk query regressed {ratio:.3f}x over the "
        f"pre-refactor baseline (bar {REGRESSION_BAR}x)"
    )
