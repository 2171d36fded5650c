"""Per-op micro-benchmarks of the kernel layer.

Drives every registered kernel op on synthetic workloads sized by ``n``
and reports ns/element per (op, backend) — the table behind the
``repro bench kernels`` CLI subcommand and the nightly spot-check
artifact.  Results flow through the existing telemetry surfaces: one
``kernels.bench`` span per measurement on the caller's machine tracer
and ``kernels.bench.ns_per_element`` observations in the metrics
registry, so ``--events-out`` / ``--metrics-out`` capture them like any
other run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..pvm.machine import Machine
from . import kernel_table, numba_available, resolve_backend, use_backend

__all__ = ["bench_backends", "run_kernel_bench", "format_table"]


def _workloads(n: int, d: int, k: int, rng: np.random.Generator) -> Dict[str, tuple]:
    """Synthetic inputs per op; ``elements`` = n for flat ops, m^2 for blocks."""
    pts = rng.random((n, d))
    center = np.full(d, 0.5)
    normal = np.zeros(d)
    normal[0] = 1.0
    radii = np.sqrt(rng.random(n)) * 0.05
    m = min(n, 512)  # base-case-sized block for the O(m^2) kernel
    sub = pts[:m]
    n_segs = max(1, n // 256)
    seg_ids = np.sort(rng.integers(0, n_segs, size=n)).astype(np.int64)
    sides = np.where(rng.random(n) < 0.5, -1, 1).astype(np.int8)
    flat_ids = rng.permutation(n).astype(np.int64)
    rows = (seg_ids % max(1, n_segs // 2)).astype(np.int64)
    sep_centers = rng.random((max(1, n_segs // 2), d))
    sep_radii = np.full(max(1, n_segs // 2), 0.25)
    cand_rows = rng.integers(0, max(1, n // 4), size=2 * n).astype(np.int64)
    cand_idx = rng.integers(0, n, size=2 * n).astype(np.int64)
    cand_sq = rng.random(2 * n)
    return {
        "sphere_side": ((pts, center, 0.4), n),
        "hyperplane_side": ((pts, normal, 0.5), n),
        "classify_balls_sphere": ((pts, radii, center, 0.4), n),
        "classify_level_spheres": ((pts, flat_ids, rows, sep_centers, sep_radii, radii), n),
        "segmented_split_sides": ((flat_ids, sides, seg_ids), n),
        "block_topk": ((sub, min(k, m - 1)), m * m),
        "merge_candidate_stream": (
            (cand_rows, cand_idx, cand_sq, max(1, n // 4), k),
            2 * n,
        ),
    }


def bench_backends(
    n: int = 100_000,
    d: int = 2,
    k: int = 8,
    repeats: int = 3,
    backends: Optional[List[str]] = None,
    seed: int = 0,
    machine: Optional[Machine] = None,
) -> List[dict]:
    """Measure every op on every requested backend; best-of-``repeats``.

    Returns rows ``{op, backend, n, elements, seconds, ns_per_element}``.
    A jitted backend gets one untimed warmup call per op so compilation
    never lands in the measurement.
    """
    if backends is None:
        backends = ["numpy"] + (["numba"] if numba_available() else [])
    rng = np.random.default_rng(seed)
    work = _workloads(n, d, k, rng)
    out: List[dict] = []
    for backend in backends:
        resolved = resolve_backend(backend)
        with use_backend(resolved):
            table = kernel_table()
            for op, (args, elements) in work.items():
                fn = table[op]
                fn(*args)  # warmup (jit compile + cache touch)
                best = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    fn(*args)
                    best = min(best, time.perf_counter() - t0)
                row = {
                    "op": op,
                    "backend": resolved,
                    "n": n,
                    "elements": elements,
                    "seconds": best,
                    "ns_per_element": best / elements * 1e9,
                }
                out.append(row)
                if machine is not None:
                    with machine.span(
                        "kernels.bench",
                        op=op,
                        backend=resolved,
                        elements=elements,
                        ns_per_element=row["ns_per_element"],
                    ):
                        pass
                    machine.metrics.observe(
                        "kernels.bench.ns_per_element", row["ns_per_element"]
                    )
    return out


def bench_descend(
    n: int, d: int, repeats: int, backends: List[str], seed: int, machine=None
) -> List[dict]:
    """Descent micro-bench (needs a built tree, so it is opt-in)."""
    from ..api import build_index

    rng = np.random.default_rng(seed)
    pts = rng.random((min(n, 50_000), d))
    index = build_index(pts, k=2, seed=seed)
    flat = index.mutable.layout
    qs = rng.random((n, d))
    out: List[dict] = []
    for backend in backends:
        resolved = resolve_backend(backend)
        with use_backend(resolved):
            flat.descend(qs)  # warmup
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                flat.descend(qs)
                best = min(best, time.perf_counter() - t0)
            out.append(
                {
                    "op": "descend_spheres",
                    "backend": resolved,
                    "n": n,
                    "elements": n,
                    "seconds": best,
                    "ns_per_element": best / n * 1e9,
                }
            )
    return out


def format_table(rows: List[dict]) -> str:
    """Fixed-width per-op table, numpy column first."""
    header = f"{'op':<26} {'backend':<8} {'elements':>10} {'seconds':>10} {'ns/elem':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['op']:<26} {row['backend']:<8} {row['elements']:>10d} "
            f"{row['seconds']:>10.6f} {row['ns_per_element']:>10.2f}"
        )
    return "\n".join(lines)


def run_kernel_bench(
    n: int = 100_000,
    d: int = 2,
    k: int = 8,
    repeats: int = 3,
    backends: Optional[List[str]] = None,
    seed: int = 0,
    machine: Optional[Machine] = None,
    include_descend: bool = True,
) -> List[dict]:
    """Full kernel micro-bench: flat ops plus (optionally) tree descent."""
    rows = bench_backends(
        n=n, d=d, k=k, repeats=repeats, backends=backends, seed=seed, machine=machine
    )
    if include_descend:
        used = backends or ["numpy"] + (["numba"] if numba_available() else [])
        rows += bench_descend(n, d, repeats, used, seed, machine=machine)
    return rows
