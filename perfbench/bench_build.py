"""The ``build`` workload: repeated in-process all-k-NN builds.

Uniform points in the unit square (n = 100,000, d = 2, k = 1) are built
alternately with ``engine="frontier-mp"`` at ``nproc`` workers and with
the single-process ``engine="frontier"`` baseline, until the run's time
is spent.  Every ``frontier-mp`` result must equal the serial one bit for
bit, and a seeded sample of rows must match brute force.
"""

from __future__ import annotations

import subprocess
import sys
from typing import Any, Dict

import numpy as np
import repro

from common import HERE, ROOT, children_peak_rss_mb, median, nproc, proc_peak_rss_mb
from layers import LayerTimer, Patches, hook_gc, install_build, perf, self_by_layer

N, D, K = 100_000, 2, 1
CHECK_ROWS = 256
WARMUP_N = 20_000
SETUP_REPEATS = 3


def make_points(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).random((N, D))


_SETUP_PROBE = (
    "import sys; sys.path.insert(0, {here!r}); "
    "import common; common.use_program(); "
    "import numpy, repro, bench_build; bench_build.make_points({seed}); print('ready')"
)


def setup_seconds(seed: int) -> float:
    """Median wall time of fresh processes that import the program and
    generate the input: process start until the first build could begin."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE.format(here=HERE, seed=seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        times.append(perf() - t0)
        if out.strip() != "ready":
            raise RuntimeError(f"setup probe printed {out!r}")
    return median(times)


def rows_match_brute_force(pts: np.ndarray, idx: np.ndarray, sq: np.ndarray, rows) -> bool:
    """Each sampled row's neighbors are at the k smallest true distances."""
    for r in rows:
        d = ((pts - pts[r]) ** 2).sum(axis=1)
        d[r] = np.inf
        best = np.sort(np.partition(d, K - 1)[:K])
        if not (np.allclose(d[idx[r]], best, rtol=1e-9, atol=0.0)
                and np.allclose(sq[r], best, rtol=1e-9, atol=0.0)):
            return False
    return True


def _build(pts, seed, engine):
    t0 = perf()
    res = repro.all_knn(pts, K, engine=engine, workers=nproc() if engine == "frontier-mp" else None,
                        seed=seed)
    return res, perf() - t0


def measure(seed: int, seconds: float) -> Dict[str, Any]:
    """Alternate parallel and serial builds for ``seconds``; check each."""
    pts = make_points(seed)
    rows = np.random.default_rng([seed, 1]).choice(N, CHECK_ROWS, replace=False)
    # untimed: worker start-up and first-touch costs the builds below reuse
    for engine in ("frontier-mp", "frontier"):
        _build(pts[:WARMUP_N], seed, engine)
    mp_s, serial_s = [], []
    attempted = failed = 0
    reference = None
    t_end = perf() + seconds
    while True:
        for engine, walls in (("frontier-mp", mp_s), ("frontier", serial_s)):
            res, wall = _build(pts, seed, engine)
            walls.append(wall)
            attempted += 1
            if reference is None:
                reference = (res.indices.copy(), res.sq_dists.copy())
                ok = rows_match_brute_force(pts, res.indices, res.sq_dists, rows)
            else:
                ok = (np.array_equal(res.indices, reference[0])
                      and np.array_equal(res.sq_dists, reference[1]))
            failed += not ok
        # start another pair only if at least half of it fits in the run
        if perf() + 0.5 * (median(mp_s) + median(serial_s)) > t_end:
            break
    return {
        "mp_s": mp_s,
        "serial_s": serial_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": max(proc_peak_rss_mb(), children_peak_rss_mb()),
        "indices": reference[0],
    }


def end_to_end(seed: int, seconds: float) -> Dict[str, Any]:
    setup_s = setup_seconds(seed)
    run = measure(seed, seconds)
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "mismatches": run["failed"],
        "metrics": {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "p50_ms": (median(run["mp_s"]) * 1e3, "ms"),
            "ref_ms": (median(run["serial_s"]) * 1e3, "ms"),
        },
        "report": {
            "build_s": (median(run["mp_s"]), "s"),
            "build_serial_s": (median(run["serial_s"]), "s"),
            "builds": (len(run["mp_s"]) + len(run["serial_s"]), "count"),
        },
    }


def _frontier_spans(tracer):
    for root in tracer.roots:
        for _, span in root.walk():
            if span.name == "frontier.level":
                yield span


def traced(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced builds, then one serial and one parallel build with the
    wrappers installed; returns every per-layer metric."""
    base = measure(seed, seconds)
    pts = make_points(seed)
    timer = LayerTimer(keep_top=True)
    patches = Patches()
    install_build(timer, patches)
    unhook = hook_gc(timer)
    try:
        t0 = perf()
        res, tracer = repro.run_traced(pts, K, engine="frontier", seed=seed)
        wall = perf() - t0
        ops = {name: op.to_dict() for name, op in timer.ops.items()}
        phase_s = {"build": 0.0, "correct": 0.0}
        core_self = 0.0
        levels = set()
        for span in _frontier_spans(tracer):
            phase_s[span.attrs["phase"]] += span.wall_seconds
            start = tracer.epoch + span.wall_start
            core_self += span.wall_seconds - timer.covered_s(start, start + span.wall_seconds)
            levels.add(span.attrs["level"])
        machine = res.machine
        timer.reset()
        mp, mp_wall = _build(pts, seed, "frontier-mp")
    finally:
        unhook()
        patches.restore()
    m = mp.machine.metrics
    gauges, counters = m.gauges, m.counters
    master_s = mp_wall - gauges.get("parallel.dispatch_span_seconds", 0.0)
    layer_self = dict(self_by_layer(ops), core=core_self)
    gc_ms = [s * 1e3 for s in ops["gc"]["samples"]]
    ok = (np.array_equal(mp.indices, res.indices)
          and np.array_equal(res.indices, base["indices"]))
    failed = base["failed"] + (not ok)
    return {
        "attempted": base["attempted"] + 2,
        "failed": failed,
        "mismatches": failed,
        "ops": ops,
        "wall_s": wall,
        "layer_self_s": layer_self,
        "frontier.build_phase_s": phase_s["build"],
        "frontier.correct_phase_s": phase_s["correct"],
        "frontier.levels": len(levels),
        "pvm.depth": machine.total.depth,
        "pvm.work": machine.total.work,
        "pvm.work.divide": machine.sections["divide"].work,
        "pvm.work.base": machine.sections["base"].work,
        "pvm.work.correct": machine.sections["correct"].work,
        "parallel.master_s": master_s,
        "parallel.serial_fraction": master_s / mp_wall,
        "parallel.worker_busy_s": counters.get("parallel.busy_seconds", 0.0),
        "parallel.utilization": gauges.get("parallel.utilization", 0.0),
        "parallel.copyin_s": gauges.get("parallel.copyin_seconds", 0.0),
        "parallel.dispatch_s": gauges.get("parallel.dispatch_seconds", 0.0),
        "parallel.collect_s": gauges.get("parallel.collect_seconds", 0.0),
        "parallel.dispatch_bytes": counters.get("parallel.dispatch_bytes", 0),
        "parallel.result_bytes": counters.get("parallel.result_bytes", 0),
        "parallel.subtrees": gauges.get("parallel.subtrees", 0.0),
        "python.gc_ms.sum": sum(gc_ms),
        "python.gc_ms.max": max(gc_ms, default=0.0),
        "trace_overhead": mp_wall / median(base["mp_s"]) - 1.0,
    }
