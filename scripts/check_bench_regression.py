#!/usr/bin/env python
"""Performance-regression gate over the benchmark observability records.

The paper's claims are (depth, work) bounds, and every engine promises
bit-identical ledgers seed-for-seed — so the strongest regression signal
this repo has is *exact* ledger comparison.  This script re-runs a small
registry of fully seeded gate workloads and compares their obs summaries
(total depth/work, per-phase sections, event counters) against the
committed baseline ``benchmarks/results/regression_gate_obs.json``:

- ledger fields must match **exactly** (any drift is a correctness or
  cost-model regression, not noise);
- wall-clock must stay within ``--wall-tol`` of the baseline (relative;
  skipped entirely in ``--exact-ledger`` mode, which is what CI uses —
  baselines are committed from other hardware);
- the tracing self-check re-asserts a zero traced-vs-untraced ledger
  delta (see :mod:`repro.obs.overhead`).

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py               # gate
    PYTHONPATH=src python scripts/check_bench_regression.py --exact-ledger
    PYTHONPATH=src python scripts/check_bench_regression.py --update      # rebaseline
    PYTHONPATH=src python scripts/check_bench_regression.py --compare A.json B.json
    PYTHONPATH=src python scripts/check_bench_regression.py --perturb-work 0.01

``--compare`` diffs any two obs-record JSON files (e.g. a fresh
``benchmarks/results/a3_frontier_engine_obs.json`` against the committed
copy) with the same rules.  ``--perturb-work`` injects a relative error
into the fresh records before comparing — the CI negative test asserts
the gate *fails* under it.  Exit codes: 0 pass, 1 regression, 2 usage.

``--wall-trend BASELINE.json FRESH.json`` is the *performance-trend*
mode used by the nightly workflow: it compares only ``wall_seconds``
between records with matching (run/experiment, params) keys — ledger
fields are ignored — and fails when any fresh wall-clock exceeds its
baseline by more than ``--wall-tol`` (default 15%%).  Keys present on
only one side are reported as notes, never failures, so adding a new
benchmark cell does not break the trend gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(
    REPO_ROOT, "benchmarks", "results", "regression_gate_obs.json"
)

#: The gate registry: small, fully seeded, engine-diverse workloads.
#: Each entry must be cheap enough for CI (< a few seconds) while
#: covering both algorithms, all three engines and the online index.  An
#: optional ``config`` dict overrides fields of the method's default
#: config.  ``"method": "online"`` builds a ``MutableIndex`` and absorbs
#: ``commits`` seeded commits of ``inserts`` inserts and ``deletes``
#: deletes; its record is the last version's machine.  ``duplicates``
#: makes that share of the points copies of the first one.
GATE_RUNS = (
    {"run": "fast_recursive", "method": "fast", "n": 1500, "d": 2, "k": 2,
     "seed": 42, "engine": "recursive", "workers": None},
    {"run": "fast_frontier", "method": "fast", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "engine": "frontier", "workers": None},
    # small budgets: one level mixes fast corrections, failed marches
    # (query-structure punts) and straddler-count punts
    {"run": "fast_frontier_punty", "method": "fast", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "engine": "frontier", "workers": None,
     "config": {"iota_factor": 0.8, "active_factor": 0.3}},
    {"run": "fast_frontier_mp_w2", "method": "fast", "n": 3000, "d": 2,
     "k": 2, "seed": 42, "engine": "frontier-mp", "workers": 2},
    {"run": "fast_d3", "method": "fast", "n": 2000, "d": 3, "k": 1,
     "seed": 7, "engine": "frontier", "workers": None},
    # d = 1: the shortest stacked BLAS vectors of the frontier build
    {"run": "fast_frontier_d1", "method": "fast", "n": 3000, "d": 1, "k": 2,
     "seed": 42, "engine": "frontier", "workers": None},
    {"run": "simple_frontier", "method": "simple", "n": 2000, "d": 2,
     "k": 1, "seed": 11, "engine": "frontier", "workers": None},
    # simple on the recursive reference and frontier-mp: every engine's
    # sections (divide included) must read alike
    {"run": "simple_recursive", "method": "simple", "n": 2000, "d": 2,
     "k": 1, "seed": 11, "engine": "recursive", "workers": None},
    {"run": "simple_frontier_mp_w2", "method": "simple", "n": 2000, "d": 2,
     "k": 1, "seed": 11, "engine": "frontier-mp", "workers": 2},
    {"run": "online_build", "method": "online", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "commits": 0},
    {"run": "online_absorb", "method": "online", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "commits": 3, "inserts": 6, "deletes": 6},
    # the punty budgets of fast_frontier_punty: iota and march punts in
    # the build, replayed and recomputed by the absorbs
    {"run": "online_punty", "method": "online", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "commits": 3, "inserts": 6, "deletes": 6,
     "config": {"iota_factor": 0.8, "active_factor": 0.3}},
    # 3/4 of the points on one spot: one search succeeds only after two
    # sample refreshes (attempt 37) and one fails outright
    {"run": "online_dups", "method": "online", "n": 2000, "d": 2, "k": 2,
     "seed": 9, "duplicates": 0.75, "commits": 3, "inserts": 6, "deletes": 6},
    # fast_frontier_punty's inputs on the recursive reference and
    # frontier-mp: at k = 2 the selection depth is not an integer, so
    # equal `correct` depths pin the order each engine folds its sections in
    {"run": "fast_recursive_punty", "method": "fast", "n": 3000, "d": 2, "k": 2,
     "seed": 42, "engine": "recursive", "workers": None,
     "config": {"iota_factor": 0.8, "active_factor": 0.3}},
    {"run": "fast_frontier_mp_w2_punty", "method": "fast", "n": 3000, "d": 2,
     "k": 2, "seed": 42, "engine": "frontier-mp", "workers": 2,
     "config": {"iota_factor": 0.8, "active_factor": 0.3}},
)


def _online_machine(spec: Dict[str, Any], pts):
    """The machine of the last version of a seeded ``MutableIndex``."""
    import numpy as np

    from repro.core import FastDnCConfig
    from repro.core.online import MutableIndex

    index = MutableIndex(
        pts, spec["k"], seed=spec["seed"],
        config=FastDnCConfig(**spec.get("config", {})),
    )
    rng = np.random.default_rng(spec["seed"])
    for _ in range(spec["commits"]):
        index.insert(rng.random((spec["inserts"], spec["d"])))
        index.delete(rng.choice(index.n, size=spec["deletes"], replace=False))
        if index.commit().punted:
            raise RuntimeError(f"{spec['run']}: a gate commit punted instead of absorbing")
    return index.machine


def run_gates(names: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Execute the gate registry, returning obs-summary records."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.api import all_knn
    from repro.core import FastDnCConfig, SimpleDnCConfig
    from repro.pvm import Machine
    from repro.workloads import uniform_cube

    records = []
    for spec in GATE_RUNS:
        if names and spec["run"] not in names:
            continue
        pts = uniform_cube(spec["n"], spec["d"], spec["seed"])
        pts[: int(spec.get("duplicates", 0.0) * spec["n"])] = pts[0]
        t0 = time.perf_counter()
        if spec["method"] == "online":
            machine = _online_machine(spec, pts)
        else:
            machine = Machine()
            config_cls = FastDnCConfig if spec["method"] == "fast" else SimpleDnCConfig
            all_knn(
                pts, spec["k"], method=spec["method"], machine=machine,
                config=config_cls(**spec.get("config", {})),
                seed=spec["seed"], engine=spec["engine"], workers=spec["workers"],
            )
        wall = time.perf_counter() - t0
        total = machine.total
        counters = {
            k: v for k, v in sorted(machine.counters.items())
        }
        records.append({
            "run": spec["run"],
            "params": {k: v for k, v in spec.items() if k != "run"},
            "total": {"depth": total.depth, "work": total.work},
            "phases": {
                phase: {"depth": cost.depth, "work": cost.work}
                for phase, cost in sorted(machine.sections.items())
            },
            "counters": counters,
            "wall_seconds": wall,
        })
    return records


def _index(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    out = {}
    for rec in records:
        key = rec.get("run") or rec.get("experiment")
        if key is None:
            continue
        params = rec.get("params", {})
        out[f"{key}:{json.dumps(params, sort_keys=True, default=str)}"] = rec
    return out


def compare_records(
    baseline: List[Dict[str, Any]],
    fresh: List[Dict[str, Any]],
    *,
    wall_tol: float,
    exact_ledger: bool,
) -> List[str]:
    """Compare obs records; return a list of human-readable failures."""
    failures: List[str] = []
    base_idx = _index(baseline)
    fresh_idx = _index(fresh)
    missing = sorted(set(base_idx) - set(fresh_idx))
    for key in missing:
        failures.append(f"{key.split(':')[0]}: missing from fresh run set")
    for key, fresh_rec in sorted(fresh_idx.items()):
        name = key.split(":")[0]
        base_rec = base_idx.get(key)
        if base_rec is None:
            failures.append(
                f"{name}: no committed baseline (run with --update to add)"
            )
            continue
        for field in ("depth", "work"):
            a = base_rec["total"][field]
            b = fresh_rec["total"][field]
            if a != b:
                failures.append(
                    f"{name}: total {field} {b} != baseline {a} (exact match required)"
                )
        base_phases = base_rec.get("phases", {})
        fresh_phases = fresh_rec.get("phases", {})
        for phase in sorted(set(base_phases) | set(fresh_phases)):
            a, b = base_phases.get(phase), fresh_phases.get(phase)
            if a != b:
                failures.append(
                    f"{name}: phase {phase!r} {b} != baseline {a}"
                )
        if base_rec.get("counters") is not None and (
            base_rec.get("counters") != fresh_rec.get("counters")
        ):
            a, b = base_rec["counters"], fresh_rec.get("counters") or {}
            diff = {
                k: (a.get(k), b.get(k))
                for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)
            }
            failures.append(f"{name}: counters differ: {diff}")
        if not exact_ledger:
            a = base_rec.get("wall_seconds")
            b = fresh_rec.get("wall_seconds")
            if a and b and abs(b - a) > wall_tol * a:
                failures.append(
                    f"{name}: wall {b:.3f}s outside +/-{wall_tol:.0%} of "
                    f"baseline {a:.3f}s"
                )
    return failures


def compare_wall_trend(
    baseline: List[Dict[str, Any]],
    fresh: List[Dict[str, Any]],
    *,
    wall_tol: float,
) -> tuple[List[str], List[str]]:
    """Wall-clock-only trend comparison.

    Returns ``(failures, notes)``: a failure for every matching record
    whose fresh ``wall_seconds`` exceeds baseline by more than
    ``wall_tol`` (relative); notes for unmatched keys and records
    without wall data.  Ledger fields are deliberately ignored — the
    exact-ledger gate covers those; this mode exists to catch gradual
    wall-clock regressions between same-hardware nightly runs.
    """
    failures: List[str] = []
    notes: List[str] = []
    base_idx = _index(baseline)
    fresh_idx = _index(fresh)
    for key in sorted(set(base_idx) - set(fresh_idx)):
        notes.append(f"{key.split(':')[0]}: baseline-only key (not re-run)")
    for key in sorted(set(fresh_idx) - set(base_idx)):
        notes.append(f"{key.split(':')[0]}: new key (no baseline yet)")
    for key in sorted(set(base_idx) & set(fresh_idx)):
        name = key.split(":")[0]
        a = base_idx[key].get("wall_seconds")
        b = fresh_idx[key].get("wall_seconds")
        if not a or not b:
            notes.append(f"{name}: no wall_seconds on one side; skipped")
            continue
        if b > a * (1.0 + wall_tol):
            failures.append(
                f"{name}: wall {b:.3f}s is {(b / a - 1.0):+.1%} vs baseline "
                f"{a:.3f}s (trend tolerance +{wall_tol:.0%})"
            )
        else:
            notes.append(
                f"{name}: wall {b:.3f}s vs baseline {a:.3f}s "
                f"({(b / a - 1.0):+.1%})"
            )
    return failures, notes


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, list):
        raise ValueError(f"{path}: expected a JSON list of obs records")
    return loaded


def _perturb(records: List[Dict[str, Any]], rel: float) -> None:
    for rec in records:
        if "total" in rec:
            rec["total"]["work"] = rec["total"]["work"] * (1.0 + rel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Exact-ledger perf-regression gate over obs baselines."
    )
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed gate baseline from a fresh run")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path (default: committed gate file)")
    parser.add_argument("--runs", default=None,
                        help="comma-separated subset of gate run names")
    parser.add_argument("--wall-tol", type=float, default=None,
                        help="relative wall-clock tolerance (default 0.5 for "
                             "the gate/--compare modes, 0.15 for --wall-trend)")
    parser.add_argument("--exact-ledger", action="store_true",
                        help="compare ledgers and counters only; ignore wall-clock "
                             "(CI mode: baselines come from other hardware)")
    parser.add_argument("--perturb-work", type=float, default=None, metavar="REL",
                        help="inject a relative work error into the fresh records "
                             "(negative test: the gate must then fail)")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("BASELINE.json", "FRESH.json"),
                        help="compare two obs-record files instead of running gates")
    parser.add_argument("--wall-trend", nargs=2, default=None,
                        metavar=("BASELINE.json", "FRESH.json"),
                        help="wall-clock-only trend comparison between two "
                             "obs-record files (same-hardware nightly mode); "
                             "fails on > --wall-tol relative regression, "
                             "unmatched keys are notes")
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the tracing zero-ledger-delta self-check")
    args = parser.parse_args(argv)

    if args.wall_trend:
        wall_tol = 0.15 if args.wall_tol is None else args.wall_tol
        try:
            baseline = _load(args.wall_trend[0])
            fresh = _load(args.wall_trend[1])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures, notes = compare_wall_trend(
            baseline, fresh, wall_tol=wall_tol
        )
        for note in notes:
            print(f"  note: {note}")
        if failures:
            print(f"WALL-TREND REGRESSION: {len(failures)} failure(s)",
                  file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(f"wall-trend gate: OK (tolerance +{wall_tol:.0%})")
        return 0

    wall_tol = 0.5 if args.wall_tol is None else args.wall_tol
    if args.compare:
        try:
            baseline = _load(args.compare[0])
            fresh = _load(args.compare[1])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.perturb_work is not None:
            _perturb(fresh, args.perturb_work)
        failures = compare_records(
            baseline, fresh,
            wall_tol=wall_tol, exact_ledger=args.exact_ledger,
        )
        return _report(failures)

    names = args.runs.split(",") if args.runs else None
    fresh = run_gates(names)
    if args.update:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        with open(args.baseline, "w") as fh:
            json.dump(fresh, fh, indent=1)
            fh.write("\n")
        print(f"wrote baseline {args.baseline} ({len(fresh)} gate runs)")
        return 0
    if not os.path.exists(args.baseline):
        print(f"error: no baseline at {args.baseline}; run with --update",
              file=sys.stderr)
        return 2
    baseline = _load(args.baseline)
    if names:
        baseline = [r for r in baseline if r.get("run") in names]
    if args.perturb_work is not None:
        _perturb(fresh, args.perturb_work)
    failures = compare_records(
        baseline, fresh, wall_tol=wall_tol, exact_ledger=args.exact_ledger,
    )
    if not args.skip_overhead and not failures:
        from repro.obs.overhead import measure_overhead

        report = measure_overhead(n=5000, repeats=1)
        if report.ledger_delta != 0:
            failures.append(
                f"tracing self-check: traced vs untraced ledger delta "
                f"{report.ledger_delta} != 0"
            )
        else:
            print(f"tracing self-check: ledger delta 0 (exact), "
                  f"overhead {report.overhead_fraction:+.1%} at n=5000")
    return _report(failures)


def _report(failures: List[str]) -> int:
    if failures:
        print(f"REGRESSION: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench regression gate: OK (all ledgers exact)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
