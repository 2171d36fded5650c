"""A3 — Frontier engine: wall-clock speedup of level-synchronous batching.

The frontier engine executes each level of the divide-and-conquer
recursion as one segmented batch of numpy passes (batched centerpoint
SVDs, segmented splits, level-wide candidate merges) instead of the
node-at-a-time recursion.  Both engines are bitwise equivalent on a
shared seed (tests/test_engine_equivalence.py); this experiment measures
what the batching buys in host wall-clock time.

Acceptance: >= 2x speedup for the fast algorithm at n >= 20_000.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import FastDnCConfig, parallel_nearest_neighborhood
from repro.pvm import Machine
from repro.workloads import uniform_cube

from common import bench_seed, record_bench_run, table_bench, write_table

SIZES = [5_000, 10_000, 20_000, 40_000]


def _timed_run(points, k, engine):
    machine = Machine()
    t0 = time.perf_counter()
    res = parallel_nearest_neighborhood(
        points, k, machine=machine,
        seed=bench_seed(2), config=FastDnCConfig(engine=engine),
    )
    return time.perf_counter() - t0, res, machine


@table_bench
def test_a3_engine_speedup_table():
    cores = os.cpu_count() or 1
    rows = []
    speedup_at_20k = None
    for n in SIZES:
        pts = uniform_cube(n, 2, bench_seed(n + 3))
        t_rec, rec, m_rec = _timed_run(pts, 1, "recursive")
        t_fro, fro, m_fro = _timed_run(pts, 1, "frontier")
        assert np.array_equal(rec.system.neighbor_indices, fro.system.neighbor_indices)
        assert rec.cost.depth == fro.cost.depth and rec.cost.work == fro.cost.work
        speedup = t_rec / t_fro
        if n >= 20_000 and speedup_at_20k is None:
            speedup_at_20k = speedup
        record_bench_run(
            "a3_frontier_engine", m_fro,
            params={"n": n, "d": 2, "k": 1, "engine": "frontier"},
            extra={"wall_recursive_s": t_rec, "wall_frontier_s": t_fro,
                   "speedup": speedup, "host_cores": cores},
        )
        rows.append((n, f"{t_rec:.3f}", f"{t_fro:.3f}", f"{speedup:.2f}x",
                     f"{rec.cost.depth:.0f}", "bitwise-equal"))
    rows.append(("req", "", "", ">= 2x at n>=20k",
                 f"measured {speedup_at_20k:.2f}x", ""))
    assert speedup_at_20k is not None and speedup_at_20k >= 2.0, (
        f"frontier engine speedup {speedup_at_20k:.2f}x below the 2x bar"
    )
    write_table(
        "a3_frontier_engine",
        f"A3  recursive vs frontier engine wall-clock (fast DnC, d=2, k=1; "
        f"{cores}-core host)",
        ["n", "recursive s", "frontier s", "speedup", "depth", "ledger"],
        rows,
    )
