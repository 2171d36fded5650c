"""E3 — the neighborhood query structure (Lemma 3.1 + Theorem 3.1).

Claims: height O(log n), space O(n), query time O(k + log n), and the
parallel construction runs in O(log n) depth with n processors w.h.p.
We sweep n, compare the measured height against the numeric recurrence,
and measure query descent lengths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import height_recurrence, min_valid_m0
from repro.baselines import brute_force_knn
from repro.core import NeighborhoodQueryStructure, QueryConfig
from repro.pvm import Machine
from repro.workloads import uniform_cube

from common import bench_seed, table_bench, write_table


def build(n: int, d: int, k: int, seed: int, machine=None):
    balls = brute_force_knn(uniform_cube(n, d, seed), k).to_ball_system()
    return NeighborhoodQueryStructure(balls, machine=machine, seed=seed + 1)


@table_bench
def test_e3_shape_table():
    cfg = QueryConfig()
    rows = []
    # the worst-case recurrence needs the paper's m0 validity threshold
    # (our practical build uses a smaller leaf size + explicit progress check)
    mu = cfg.mu(2)
    m0_star = max(cfg.base_case_size, min_valid_m0(0.8, mu))
    for n in (512, 1024, 2048, 4096, 8192):
        m = Machine()
        s = build(n, 2, 1, n, machine=m)
        rec_h = height_recurrence(n, 0.8, mu, m0_star)
        rows.append(
            (
                n,
                s.stats.height,
                rec_h,
                f"{s.stats.space_ratio:.2f}",
                s.stats.fallback_leaves,
                f"{m.total.depth:.0f}",
                f"{m.total.depth / math.log2(n):.1f}",
            )
        )
    write_table(
        "e3_query_structure",
        "E3  query structure shape vs n (d=2, k=1): height O(log n), space O(n), "
        "parallel build depth O(log n)",
        ["n", "height", "recurrence h(n)", "space ratio", "fallback leaves",
         "build depth", "depth/log2 n"],
        rows,
    )


@table_bench
def test_e3_query_time():
    rows = []
    for n in (1024, 4096, 16384):
        s = build(n, 2, 2, n + 7)
        rng = np.random.default_rng(1)
        queries = rng.random((400, 2))
        steps = []
        for q in queries:
            node = s.root
            depth = 0
            while not node.is_leaf:
                side = node.separator.side_of_points(q[None, :])[0]
                node = node.left if side < 0 else node.right
                depth += 1
            steps.append(depth + node.ball_ids.shape[0])
        rows.append((n, f"{np.mean(steps):.1f}", int(np.max(steps)),
                     f"{np.mean(steps) / math.log2(n):.2f}"))
    write_table(
        "e3_query_time",
        "E3b  per-query cost (descent steps + leaf balls checked): O(k + log n)",
        ["n", "mean cost", "max cost", "mean/log2 n"],
        rows,
    )


@pytest.mark.parametrize("n", [1024, 4096])
def test_bench_build(benchmark, n):
    balls = brute_force_knn(uniform_cube(n, 2, 9), 1).to_ball_system()
    benchmark(lambda: NeighborhoodQueryStructure(balls, seed=bench_seed(10)))


def test_bench_query_many(benchmark):
    s = build(4096, 2, 1, 11)
    queries = np.random.default_rng(2).random((1000, 2))
    benchmark(lambda: s.query_many(queries))
