"""Tests for the perf-regression gate and the tracing overhead benchmark.

The gate's committed baseline (``benchmarks/results/regression_gate_obs
.json``) is itself under test here: one cheap gate run is re-executed
and must reproduce its committed ledger exactly, and an injected work
perturbation must make the gate fail (the CI negative test in module
form).
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_bench_regression.py")
BASELINE = os.path.join(
    REPO_ROOT, "benchmarks", "results", "regression_gate_obs.json"
)

sys.path.insert(0, os.path.dirname(SCRIPT))
import check_bench_regression as gate  # noqa: E402


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


class TestCompareRecords:
    def _rec(self, run="r", work=100.0, depth=10.0, wall=1.0, **over):
        rec = {
            "run": run,
            "params": {"n": 10},
            "total": {"depth": depth, "work": work},
            "phases": {"base": {"depth": 5.0, "work": 40.0}},
            "counters": {"fast.nodes": 7},
            "wall_seconds": wall,
        }
        rec.update(over)
        return rec

    def test_identical_records_pass(self):
        assert gate.compare_records(
            [self._rec()], [self._rec()], wall_tol=0.5, exact_ledger=False
        ) == []

    def test_work_drift_fails_exactly(self):
        failures = gate.compare_records(
            [self._rec()], [self._rec(work=100.0000001)],
            wall_tol=0.5, exact_ledger=True,
        )
        assert failures and "exact match required" in failures[0]

    def test_phase_drift_fails(self):
        fresh = self._rec()
        fresh["phases"]["base"]["work"] = 41.0
        failures = gate.compare_records(
            [self._rec()], [fresh], wall_tol=0.5, exact_ledger=True
        )
        assert any("phase 'base'" in f for f in failures)

    def test_counter_drift_fails(self):
        fresh = self._rec()
        fresh["counters"]["fast.nodes"] = 8
        failures = gate.compare_records(
            [self._rec()], [fresh], wall_tol=0.5, exact_ledger=True
        )
        assert any("counters differ" in f for f in failures)

    def test_wall_tolerance(self):
        ok = gate.compare_records(
            [self._rec(wall=1.0)], [self._rec(wall=1.4)],
            wall_tol=0.5, exact_ledger=False,
        )
        assert ok == []
        bad = gate.compare_records(
            [self._rec(wall=1.0)], [self._rec(wall=1.6)],
            wall_tol=0.5, exact_ledger=False,
        )
        assert any("wall" in f for f in bad)
        # exact-ledger mode ignores wall entirely
        assert gate.compare_records(
            [self._rec(wall=1.0)], [self._rec(wall=100.0)],
            wall_tol=0.5, exact_ledger=True,
        ) == []

    def test_missing_run_fails(self):
        failures = gate.compare_records(
            [self._rec(run="a"), self._rec(run="b")], [self._rec(run="a")],
            wall_tol=0.5, exact_ledger=True,
        )
        assert any("missing" in f for f in failures)


class TestGateAgainstCommittedBaseline:
    def test_baseline_file_is_committed_and_complete(self):
        with open(BASELINE) as fh:
            records = json.load(fh)
        assert {r["run"] for r in records} == {s["run"] for s in gate.GATE_RUNS}
        for rec in records:
            assert rec["total"]["work"] > 0
            assert rec["phases"] and rec["counters"]

    @pytest.mark.parametrize("trio", [
        ("fast_recursive_punty", "fast_frontier_punty", "fast_frontier_mp_w2_punty"),
        ("simple_recursive", "simple_frontier", "simple_frontier_mp_w2"),
    ])
    def test_engine_trios_share_one_ledger(self, trio):
        """Each engine runs the same inputs to the same totals, phases and
        counters, so a rebaseline cannot split them again unnoticed."""
        with open(BASELINE) as fh:
            records = {r["run"]: r for r in json.load(fh)}
        ledgers = [
            (records[run]["total"], records[run]["phases"], records[run]["counters"])
            for run in trio
        ]
        assert ledgers[1] == ledgers[0] and ledgers[2] == ledgers[0]

    def test_cheapest_gate_run_reproduces_baseline(self):
        fresh = gate.run_gates(["fast_recursive"])
        with open(BASELINE) as fh:
            baseline = [r for r in json.load(fh) if r["run"] == "fast_recursive"]
        assert gate.compare_records(
            baseline, fresh, wall_tol=0.5, exact_ledger=True
        ) == []

    @pytest.mark.parametrize("run", ["online_absorb", "online_dups"])
    def test_online_gate_run_reproduces_baseline(self, run):
        """The ``"method": "online"`` path: a seeded MutableIndex after
        three absorbed commits keeps its committed ledger exactly (with
        duplicates, through sample refreshes and a failed search)."""
        fresh = gate.run_gates([run])
        with open(BASELINE) as fh:
            baseline = [r for r in json.load(fh) if r["run"] == run]
        assert baseline and gate.compare_records(
            baseline, fresh, wall_tol=0.5, exact_ledger=True
        ) == []

    def test_perturbation_is_detected(self):
        fresh = gate.run_gates(["fast_recursive"])
        gate._perturb(fresh, 0.01)
        with open(BASELINE) as fh:
            baseline = [r for r in json.load(fh) if r["run"] == "fast_recursive"]
        failures = gate.compare_records(
            baseline, fresh, wall_tol=0.5, exact_ledger=True
        )
        assert failures, "injected work perturbation must fail the gate"


class TestScriptInterface:
    def test_compare_mode_exit_codes(self, tmp_path):
        rec = {
            "run": "x", "params": {}, "total": {"depth": 1.0, "work": 2.0},
            "phases": {}, "counters": {}, "wall_seconds": 0.1,
        }
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([rec]))
        b.write_text(json.dumps([rec]))
        ok = subprocess.run(
            [sys.executable, SCRIPT, "--compare", str(a), str(b),
             "--exact-ledger"],
            env=_env(), capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stderr
        bad = subprocess.run(
            [sys.executable, SCRIPT, "--compare", str(a), str(b),
             "--exact-ledger", "--perturb-work", "0.01"],
            env=_env(), capture_output=True, text=True,
        )
        assert bad.returncode == 1
        assert "REGRESSION" in bad.stderr

    def test_missing_baseline_is_usage_error(self, tmp_path):
        r = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", str(tmp_path / "no.json"),
             "--runs", "fast_recursive", "--exact-ledger"],
            env=_env(), capture_output=True, text=True,
        )
        assert r.returncode == 2
        assert "--update" in r.stderr


class TestOverheadBenchmark:
    def test_ledger_delta_is_zero(self):
        from repro.obs.overhead import measure_overhead

        report = measure_overhead(n=2000, repeats=1)
        assert report.ledger_delta == 0.0
        assert report.span_count > 0
        assert report.wall_traced_s > 0 and report.wall_untraced_s > 0

    def test_committed_overhead_baseline(self):
        """The committed n=100k measurement documents a within-budget,
        zero-ledger-delta overhead."""
        path = os.path.join(
            REPO_ROOT, "benchmarks", "results", "obs_overhead.json"
        )
        with open(path) as fh:
            records = json.load(fh)
        latest = records[-1]
        assert latest["n"] == 100_000
        assert latest["ledger_delta"] == 0.0
        assert latest["overhead_fraction"] <= latest["budget_fraction"]
