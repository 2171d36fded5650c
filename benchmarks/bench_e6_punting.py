"""E6 — the Punting Lemma (Lemma 4.1, Corollary 4.1).

Claims: for the probabilistic (0, log m)-tree, RD(n)'s tail is bounded by
``n A e^{-c log n}``; adding a constant per node shifts by 2C log n.  We
estimate tails by Monte Carlo and print them next to the closed-form
bound, plus the weighted depth of *real* fast-DnC partition trees
(Theorem 6.1's weight assignment).
"""

from __future__ import annotations

import math


from repro.analysis import punting_tail_bound
from repro.core import ab_tree_trials, parallel_nearest_neighborhood, punted_weighted_depth, simulate_ab_tree
from repro.workloads import uniform_cube

from common import bench_seed, table_bench, write_table

TRIALS = 300


@table_bench
def test_e6_tail_vs_bound():
    rows = []
    for n in (1024, 4096, 16384):
        trials = ab_tree_trials(n, TRIALS, n)
        for c in (1.0, 1.5, 2.0, 3.0):
            threshold = 2 * c * math.log2(n)
            emp = float((trials > threshold).mean())
            rows.append((n, c, f"{threshold:.0f}", f"{emp:.3f}",
                         f"{punting_tail_bound(n, c):.3g}"))
    write_table(
        "e6_punting_tail",
        f"E6  Pr[RD(n) > 2c log2 n] — Monte Carlo ({TRIALS} trials) vs Lemma 4.1 bound",
        ["n", "c", "threshold", "empirical", "bound n*A*e^(-c ln n)"],
        rows,
    )


@table_bench
def test_e6_expected_growth():
    rows = []
    for n in (256, 1024, 4096, 16384, 65536):
        trials = ab_tree_trials(n, 120, n + 1)
        rows.append((n, f"{trials.mean():.1f}", f"{trials.max():.1f}",
                     f"{trials.mean() / math.log2(n):.2f}"))
    write_table(
        "e6_rd_growth",
        "E6b  RD(n) growth: mean stays O(log n)",
        ["n", "mean RD", "max RD", "mean/log2 n"],
        rows,
    )


@table_bench
def test_e6_real_tree_weighted_depth():
    """The lemma applied to actual runs: weight log2 m on punted nodes.

    With default parameters the fast path essentially never fails on
    uniform data (punts = 0, weighted depth 0 — the lemma's best case), so
    we also run a *stressed* configuration whose iota budget is tightened
    until a constant fraction of nodes punts; the lemma then predicts the
    weighted depth still stays O(log n).
    """
    from repro.core import FastDnCConfig

    rows = []
    stressed = FastDnCConfig(iota_factor=0.25)
    for n in (1024, 4096, 16384):
        pts = uniform_cube(n, 2, n + 2)
        for label, cfg in (("default", FastDnCConfig()), ("stressed", stressed)):
            res = parallel_nearest_neighborhood(pts, 1, seed=bench_seed(3), config=cfg)
            wd = punted_weighted_depth(res.tree)
            rows.append(
                (n, label, res.stats.punts, f"{wd:.1f}", f"{2 * math.log2(n):.1f}",
                 f"{res.cost.depth:.0f}")
            )
    write_table(
        "e6_real_weighted_depth",
        "E6c  punted weighted depth of real fast-DnC trees vs the 2 log2 n scale",
        ["n", "config", "punts", "weighted depth", "2 log2 n", "total depth"],
        rows,
    )


def test_bench_ab_tree(benchmark):
    benchmark(lambda: simulate_ab_tree(1 << 14, 5))
