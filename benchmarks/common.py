"""Shared helpers for the experiment benchmarks.

Each ``bench_eN_*.py`` module regenerates one experiment of DESIGN.md §5:
it times representative kernels through pytest-benchmark AND writes the
experiment's table (the thing EXPERIMENTS.md quotes) to
``benchmarks/results/``, so a plain ``pytest benchmarks/ --benchmark-only``
leaves the full set of measured tables on disk.

Seeding: every benchmark derives its RNG seeds through :func:`bench_seed`,
which offsets the documented ``REPRO_BENCH_SEED`` environment variable
(default ``0``).  ``REPRO_BENCH_SEED=0`` reproduces the checked-in tables;
any other value re-runs the whole suite on a fresh random universe.

Observability: machine-bearing benchmarks call :func:`record_bench_run`
after a run, which appends the run's per-phase (depth, work) breakdown and
a **compact** metrics summary (full counters and gauges; series reduced to
``{count, min, max, mean}``, histograms to ``{count, sum, min, max,
mean}``) to ``benchmarks/results/<name>_obs.json`` and
the repo-level ``BENCH_obs.json``.  The raw, unsummarized metric series
can grow to tens of thousands of lines per experiment, so full dumps are
opt-in: run with ``--trace-full`` (or ``REPRO_TRACE_FULL=1``) and each
record is additionally appended, unsummarized, to the gitignored
``*_obs_full.json`` siblings of those files.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, Optional, Sequence

#: Environment variable redirecting benchmark outputs (tables, obs JSON)
#: to another directory — CI perf jobs point this at a scratch dir so the
#: committed ``benchmarks/results/`` baselines are never clobbered and the
#: fresh run can be diffed against them (``check_bench_regression.py
#: --wall-trend``).
RESULTS_DIR_ENV = "REPRO_BENCH_RESULTS_DIR"

RESULTS_DIR = os.environ.get(RESULTS_DIR_ENV) or os.path.join(
    os.path.dirname(__file__), "results"
)

#: Environment variable holding the benchmark base seed (default "0").
BENCH_SEED_ENV = "REPRO_BENCH_SEED"

#: Repo-level rollup of every recorded benchmark run.  Redirected next to
#: the per-experiment files when ``REPRO_BENCH_RESULTS_DIR`` is set, so a
#: redirected run leaves the checked-in rollup untouched too.
BENCH_OBS_PATH = (
    os.path.join(os.environ[RESULTS_DIR_ENV], "BENCH_obs.json")
    if os.environ.get(RESULTS_DIR_ENV)
    else os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_obs.json")
)

#: Environment variable that enables full (unsummarized) obs dumps; the
#: pytest ``--trace-full`` flag sets it (see ``benchmarks/conftest.py``).
TRACE_FULL_ENV = "REPRO_TRACE_FULL"


def trace_full_enabled() -> bool:
    """Whether full obs dumps are requested (``--trace-full`` / env var)."""
    return os.environ.get(TRACE_FULL_ENV, "").strip() not in ("", "0", "false")


def bench_seed(offset: int = 0) -> int:
    """The benchmark RNG seed: ``REPRO_BENCH_SEED`` (default 0) + offset.

    Benchmarks pass distinct offsets where they previously used distinct
    literal constants, so the default seeds are unchanged while one env
    var reseeds the entire suite.
    """
    return int(os.environ.get(BENCH_SEED_ENV, "0")) + offset


def record_bench_run(
    name: str,
    machine: Any,
    *,
    params: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
    wall_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Record one machine-bearing benchmark run's observability data.

    Writes/extends two files:

    - ``benchmarks/results/<name>_obs.json`` — a list of run records, each
      with the aggregate (depth, work), the per-phase section breakdown
      (``machine.sections``) and a compact summary of the machine's
      metrics registry (see :func:`compact_metrics`);
    - repo-level ``BENCH_obs.json`` — the same records across *all*
      experiments, keyed by experiment name.

    With :func:`trace_full_enabled`, the unsummarized record (raw metric
    series included) is additionally appended to the gitignored
    ``<name>_obs_full.json`` / ``BENCH_obs_full.json`` siblings.

    ``wall_seconds`` (optional) records the run's host wall-clock, which
    ``scripts/check_bench_regression.py`` compares under a relative
    tolerance (ledger fields are compared exactly).

    Returns the (compact) record that was appended.
    """
    total = machine.total
    record: Dict[str, Any] = {
        "experiment": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "base_seed": bench_seed(0),
        "params": dict(params or {}),
        "total": {"depth": total.depth, "work": total.work},
        "phases": {
            phase: {"depth": cost.depth, "work": cost.work}
            for phase, cost in sorted(machine.sections.items())
        },
    }
    if wall_seconds is not None:
        record["wall_seconds"] = float(wall_seconds)
    if extra:
        record.update(extra)
    full_metrics = machine.metrics.to_dict()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if trace_full_enabled():
        full_record = dict(record, metrics=full_metrics)
        _append_json_list(
            os.path.join(RESULTS_DIR, f"{name}_obs_full.json"), full_record
        )
        _append_json_list(
            BENCH_OBS_PATH.replace("BENCH_obs.json", "BENCH_obs_full.json"),
            full_record,
        )
    record["metrics"] = compact_metrics(full_metrics)
    per_file = os.path.join(RESULTS_DIR, f"{name}_obs.json")
    _append_json_list(per_file, record)
    _append_json_list(BENCH_OBS_PATH, record)
    return record


def compact_metrics(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Summarize a ``Metrics.to_dict()`` payload for committed results.

    Counters and gauges are small and pass through unchanged; each metric
    *series* (which grows with every node of every run) is reduced to
    ``{"count": N}`` plus ``min``/``max``/``mean`` when the samples are
    plain numbers (structured samples — e.g. ``(m, iota)`` pairs — keep
    only the count); each *histogram* is reduced to
    ``{count, sum, min, max, mean}`` (its buckets are dropped).
    """
    series = {}
    for key, values in metrics.get("series", {}).items():
        summary: Dict[str, Any] = {"count": len(values)}
        if values and all(isinstance(v, (int, float)) for v in values):
            summary["min"] = min(values)
            summary["max"] = max(values)
            summary["mean"] = sum(values) / len(values)
        series[key] = summary
    histograms = {
        key: {
            "count": hist["count"],
            "sum": hist["sum"],
            "min": hist["min"],
            "max": hist["max"],
            "mean": hist["sum"] / hist["count"] if hist["count"] else None,
        }
        for key, hist in metrics.get("histograms", {}).items()
    }
    return {
        "counters": dict(metrics.get("counters", {})),
        "gauges": dict(metrics.get("gauges", {})),
        "series": series,
        "histograms": histograms,
    }


def _append_json_list(path: str, record: Dict[str, Any]) -> None:
    """Append ``record`` to the JSON list stored at ``path``."""
    records = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, list):
                records = loaded
        except (OSError, ValueError):  # unreadable/corrupt: start fresh
            records = []
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def write_table(name: str, title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format rows as a fixed-width table, save to results/<name>.txt, return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    srows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text)
    print("\n" + text)
    return text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def table_bench(fn):
    """Run a table-producing experiment as a single-round benchmark.

    Table sweeps must also execute under ``pytest benchmarks/
    --benchmark-only`` (the project's prescribed command), so they are
    registered as one-round pedantic benchmarks: timed once, table written
    to results/.  NOTE: deliberately not ``functools.wraps`` — pytest
    unwraps ``__wrapped__`` when inspecting fixtures, which would hide the
    ``benchmark`` parameter and mark the test as a skippable non-benchmark.
    """

    def wrapper(benchmark):
        benchmark.pedantic(fn, rounds=1, iterations=1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def write_chart(name: str, chart: str) -> None:
    """Append an ASCII chart to an experiment's results file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "a") as fh:
        fh.write("\n" + chart + "\n")
    print("\n" + chart)
