"""A6 — Online updates: absorb vs full rebuild, and zero-downtime swaps.

The online index (:class:`~repro.core.online.MutableIndex`) buffers
inserts/deletes and, on ``commit()``, rebuilds only the subtrees whose
leaves the mutations touch, replaying every untouched subtree from its
recorded snapshot.  The guarantee is *bit-identical equivalence*: the
absorbed index — neighbors, tree, cost ledger, metrics — matches a
from-scratch build over the same points, so speed is the entire story
(every row below re-verifies equivalence via
:func:`~repro.core.online.equivalence_report`).

Two experiments:

- **absorb vs rebuild** (n = 120k): one commit per churn level, absorb
  wall time against a timed from-scratch rebuild of the same version.
  The acceptance bar (ISSUE 6) is >= 5x at <= 1% churn with n >= 100k.
- **hot swap** (n = 30k): a live :class:`~repro.serve.mp.ServingPool`
  stream with two mid-stream ``Batcher.swap_index`` calls.  Zero
  downtime means every ticket is fulfilled and each is answered by
  exactly the version that accepted it; the only cost is the swap stall
  (flush + shm re-export + worker re-seed), reported in ms.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.online import MutableIndex, equivalence_report
from repro.pvm import Machine
from repro.serve import Batcher, ServingPool
from repro.workloads import uniform_cube

from common import bench_seed, record_bench_run, table_bench, write_table

N_ABSORB = 120_000
K = 2
#: One commit per level: (inserted + deleted) points per commit.
CHURN_BATCHES = [12, 120, 1200]

N_SWAP = 30_000
M_SWAP_QUERIES = 4096
SWAP_WORKERS = 2

_MIN_ABSORB_SPEEDUP = 5.0


@table_bench
def test_a6_online_absorb_table():
    machine = Machine()
    pts = uniform_cube(N_ABSORB, 2, bench_seed(61))
    t0 = time.perf_counter()
    index = MutableIndex(
        pts, K, seed=bench_seed(62), churn_threshold=0.05, machine=machine
    )
    build_s = time.perf_counter() - t0

    rng = np.random.default_rng(bench_seed(63))
    rows = []
    best_speedup = 0.0
    for batch in CHURN_BATCHES:
        n_ins = batch // 2
        index.insert(rng.random((n_ins, 2)))
        index.delete(rng.choice(index.n, size=batch - n_ins, replace=False))
        info = index.commit()

        t0 = time.perf_counter()
        reference = index.fresh_like()
        rebuild_s = time.perf_counter() - t0
        problems = equivalence_report(index, reference)
        assert not problems, f"absorb diverged at batch={batch}: {problems}"

        speedup = rebuild_s / info.wall_s if info.wall_s > 0 else float("inf")
        if info.churn <= 0.01:
            best_speedup = max(best_speedup, speedup)
        record_bench_run(
            "a6_online", index.machine,
            params={"n": info.n, "d": 2, "k": K, "mode": "absorb",
                    "batch": batch, "version": info.version,
                    "host_cores": os.cpu_count() or 1},
            extra={"churn": info.churn, "punted": info.punted,
                   "reused_fraction": info.reused_fraction,
                   "touched_leaves": info.touched_leaves,
                   "absorb_s": info.wall_s, "rebuild_s": rebuild_s,
                   "speedup": speedup, "equivalent": True},
            wall_seconds=info.wall_s,
        )
        rows.append((
            info.n, info.version, batch, f"{info.churn:.4%}",
            "rebuild" if info.punted else "absorb",
            f"{info.reused_fraction:.1%}", info.touched_leaves,
            f"{info.wall_s:.3f}", f"{rebuild_s:.3f}", f"{speedup:.2f}x",
            "exact",
        ))

    assert best_speedup >= _MIN_ABSORB_SPEEDUP, (
        f"absorb at <= 1% churn (n={N_ABSORB:,}) must be >= "
        f"{_MIN_ABSORB_SPEEDUP:.0f}x a full rebuild, got {best_speedup:.2f}x"
    )
    stats = index.update_stats
    rows.append(("note", "", "", "", "", "", "",
                 "", "", "",
                 f"initial build {build_s:.2f}s; {stats.commits} commits "
                 f"({stats.absorbed} absorbed, {stats.punts} punts); "
                 f"acceptance {best_speedup:.2f}x >= "
                 f"{_MIN_ABSORB_SPEEDUP:.0f}x at <= 1% churn"))

    write_table(
        "a6_online",
        "A6  online commits, absorb vs from-scratch rebuild (d=2, "
        f"k={K}, n={N_ABSORB:,}, {os.cpu_count() or 1} cores; every row "
        "re-verified bit-identical)",
        ["n", "ver", "batch", "churn", "path", "reused", "leaves",
         "absorb_s", "rebuild_s", "speedup", "equiv"],
        rows,
    )


@table_bench
def test_a6_online_hotswap_table():
    cores = os.cpu_count() or 1
    machine = Machine()
    pts = uniform_cube(N_SWAP, 2, bench_seed(64))
    mutable = MutableIndex(
        pts, K, seed=bench_seed(65), churn_threshold=0.05, machine=machine
    )
    queries = uniform_cube(M_SWAP_QUERIES, 2, bench_seed(66))
    rng = np.random.default_rng(bench_seed(67))

    snapshots = {0: mutable.snapshot()}
    swap_at = {M_SWAP_QUERIES // 3, 2 * M_SWAP_QUERIES // 3}
    workers = min(SWAP_WORKERS, cores)
    tickets, versions, swap_ms = [], [], []
    with ServingPool(snapshots[0], workers=workers, machine=machine) as pool:
        batcher = Batcher(
            snapshots[0], kind="knn", k=K, max_batch=256, pool=pool
        )
        t0 = time.perf_counter()
        for i, row in enumerate(queries):
            if i in swap_at:
                mutable.insert(rng.random((16, 2)))
                mutable.delete(rng.choice(mutable.n, size=8, replace=False))
                mutable.commit()
                snap = mutable.snapshot()
                t_swap = time.perf_counter()
                batcher.swap_index(snap)
                swap_ms.append((time.perf_counter() - t_swap) * 1e3)
                snapshots[snap.version] = snap
            tickets.append(batcher.submit(row))
            versions.append(batcher.index.version)
        batcher.flush()
        wall = time.perf_counter() - t0
        unfulfilled = sum(1 for t in tickets if not t.done)

        # no torn reads: each ticket's answer is its accepting version's
        per_version = {v: [] for v in snapshots}
        for i, v in enumerate(versions):
            per_version[v].append(i)
        for v, idxs in per_version.items():
            want = snapshots[v].execute("knn", queries[idxs], K)
            for j, i in enumerate(idxs):
                np.testing.assert_array_equal(tickets[i].value[0], want[0][j])

    assert unfulfilled == 0, f"{unfulfilled} tickets dropped across swaps"
    qps = M_SWAP_QUERIES / wall if wall > 0 else float("inf")
    record_bench_run(
        "a6_online", machine,
        params={"n": N_SWAP, "d": 2, "k": K, "mode": "hotswap",
                "workers": workers, "host_cores": cores},
        extra={"queries": M_SWAP_QUERIES, "swaps": len(swap_ms),
               "swap_stall_ms": swap_ms, "unfulfilled": unfulfilled,
               "qps": qps, "wall_s": wall},
        wall_seconds=wall,
    )
    rows = [
        (N_SWAP, v, len(per_version[v]),
         f"{swap_ms[i - 1]:.1f}" if i > 0 else "-",
         "0 dropped")
        for i, v in enumerate(sorted(per_version))
    ]
    rows.append(("note", "", "", "",
                 f"{workers} workers, {cores} cores; {qps:,.0f} QPS "
                 f"sustained across {len(swap_ms)} swaps; all answers "
                 "match their accepting version"))
    write_table(
        "a6_online_swap",
        "A6b zero-downtime hot swap under a live ServingPool stream "
        f"(knn, d=2, k={K}, n={N_SWAP:,}, {M_SWAP_QUERIES} queries, "
        f"{cores} cores)",
        ["n", "version", "requests", "swap_stall_ms", "notes"],
        rows,
    )
