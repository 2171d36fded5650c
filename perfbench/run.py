#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload build --seed 1 --seconds 18 --trace 0

Workloads: ``build`` (in-process all-k-NN builds), ``serve-point`` and
``serve-churn`` (the stock HTTP server in its own process, loaded from
this one).  With ``--trace 0`` the run measures the end-to-end metrics
with nothing installed in the program; with ``--trace 1`` it repeats the
untraced measurement and then a traced one, and reports the per-layer
metrics.  The report goes to stdout as one ``name value unit`` line per
metric, and the last line is the JSON result.  The command exits 1 when
a checked answer is wrong or an end-to-end figure has no sample behind
it, and 2 when the program is missing.  Metric definitions per workload
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from typing import Any, Dict, List, Tuple

from common import (adopt_orphans, have_program, host_facts, read_cpu_times, steal_share,
                    stop_children, use_program)
from layers import KERNEL_OPS

WORKLOADS = ("build", "serve-point", "serve-churn")

#: (name, unit, better, bound): what a user of the system sees.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("p50_ms", "ms", "lower", 0.25),
    ("ref_ms", "ms", "lower", 0.25),
]

LAYERS = ("kernels", "separators", "core", "serve", "online", "net", "python")

#: (name, unit, better): single layers, from the traced run.
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"kernels.{op}.{field}", unit, "lower") for op in KERNEL_OPS
     for field, unit in (("calls", "count"), ("elems", "count"), ("s", "s"), ("bytes", "bytes"))]
    + [
        ("separators.calls", "count", "lower"),
        ("separators.s", "s", "lower"),
        ("frontier.build_phase_s", "s", "lower"),
        ("frontier.correct_phase_s", "s", "lower"),
        ("frontier.levels", "count", "lower"),
        ("pvm.depth", "steps", "lower"),
        ("pvm.work", "ops", "lower"),
        ("pvm.work.divide", "ops", "lower"),
        ("pvm.work.base", "ops", "lower"),
        ("pvm.work.correct", "ops", "lower"),
        ("parallel.master_s", "s", "lower"),
        ("parallel.serial_fraction", "ratio", "lower"),
        ("parallel.worker_busy_s", "s", "lower"),
        ("parallel.utilization", "ratio", "higher"),
        ("parallel.copyin_s", "s", "lower"),
        ("parallel.dispatch_s", "s", "lower"),
        ("parallel.collect_s", "s", "lower"),
        ("parallel.dispatch_bytes", "bytes", "lower"),
        ("parallel.result_bytes", "bytes", "lower"),
        ("parallel.subtrees", "count", "higher"),
        ("serve.batches", "count", "lower"),
        ("serve.batch_rows_mean", "rows", "higher"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p99", "ms", "lower"),
        ("serve.batch_ms.p50", "ms", "lower"),
        ("serve.batch_ms.p99", "ms", "lower"),
        ("serve.execute_us_per_row", "us", "lower"),
        ("serve.cache_hit_share", "ratio", "higher"),
        ("serve.swap_ms.p50", "ms", "lower"),
        ("online.commit_s.p50", "s", "lower"),
        ("online.snapshot_ms.p50", "ms", "lower"),
        ("online.reused_fraction", "ratio", "higher"),
        ("online.touched_leaves", "count", "lower"),
        ("online.punts", "count", "lower"),
        ("net.request_ms.p50", "ms", "lower"),
        ("net.request_ms.p99", "ms", "lower"),
        ("net.parse_us.mean", "us", "lower"),
        ("net.render_us.mean", "us", "lower"),
        ("net.window_ms.mean", "ms", "lower"),
        ("net.rejected", "count", "lower"),
        ("net.deadline_exceeded", "count", "lower"),
        ("python.gc_ms.sum", "ms", "lower"),
        ("python.gc_ms.max", "ms", "lower"),
        ("client.lateness_ms.p99", "ms", "lower"),
        ("client.cpu_share", "ratio", "lower"),
        ("client.connections", "count", "lower"),
        ("wall_s", "s", "lower"),
    ]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    + [
        ("idle_s", "s", "higher"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
)


def per_layer(t: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from a workload's traced result; a layer
    that did no work on this workload reads 0."""
    ops = t["ops"]
    values: Dict[str, float] = {}
    for op in KERNEL_OPS:
        entry = ops.get(op, {})
        values[f"kernels.{op}.calls"] = entry.get("calls", 0)
        values[f"kernels.{op}.elems"] = entry.get("elems", 0)
        values[f"kernels.{op}.s"] = entry.get("self_s", 0.0)
        values[f"kernels.{op}.bytes"] = entry.get("bytes", 0)
    seps = ops.get("separators", {})
    values["separators.calls"] = seps.get("calls", 0)
    values["separators.s"] = seps.get("self_s", 0.0)
    layer_self = t["layer_self_s"]
    idle = layer_self.get("idle", 0.0)
    values["wall_s"] = t["wall_s"]
    for layer in LAYERS:
        values[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    values["idle_s"] = idle
    values["unattributed_s"] = t["wall_s"] - sum(layer_self.values())
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = t.get(name, 0.0)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (float(values[name]), units[name]) for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # every way out, a SIGTERM included, stops what the run started
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    finally:
        stop_children()


def run(args: argparse.Namespace) -> int:
    if not have_program():
        print("perfbench: src/repro not found beside perfbench/; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    use_program()
    import bench_build
    import bench_serve

    cpu0 = read_cpu_times()
    if args.workload == "build":
        result = (bench_build.traced if args.trace else bench_build.end_to_end)(
            args.seed, args.seconds)
    else:
        result = (bench_serve.traced if args.trace else bench_serve.end_to_end)(
            args.workload, args.seed, args.seconds)
    host = dict(host_facts(), steal_share=steal_share(cpu0, read_cpu_times()))
    mismatches = result["mismatches"]
    metrics = per_layer(result) if args.trace else result["metrics"]

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# host " + json.dumps(host))
    rows = dict(result.get("report", {}))
    rows["fail_share"] = (result["failed"] / max(1, result["attempted"]), "ratio")
    for name, (value, unit) in list(metrics.items()) + list(rows.items()):
        print(f"{name:<34} {value:>16.6g} {unit}")
    for name, (value, _) in metrics.items():
        # an end-to-end figure of 0 means its sample was empty: every
        # operation behind it failed, which must not read as a speed-up
        if not math.isfinite(value) or (not args.trace and value <= 0):
            print(f"perfbench: {name} is {value}", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
