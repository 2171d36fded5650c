"""The compact metrics summary that benchmark obs records commit."""

import importlib.util
import os

from repro.obs import Metrics

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_common", os.path.join(REPO_ROOT, "benchmarks", "common.py")
)
bench_common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_common)


def test_compact_metrics_keeps_a_histogram_summary():
    metrics = Metrics()
    metrics.inc("serve.batches", 3)
    for depth in (1.0, 2.0, 6.0):
        metrics.observe_hist("serve.queue_depth_flush", depth)
    out = bench_common.compact_metrics(metrics.to_dict())
    assert out["counters"] == {"serve.batches": 3}
    assert out["histograms"] == {
        "serve.queue_depth_flush": {
            "count": 3, "sum": 9.0, "min": 1.0, "max": 6.0, "mean": 3.0,
        }
    }


def test_compact_metrics_of_an_empty_histogram():
    metrics = Metrics()
    metrics.histogram("net.request_ms")
    out = bench_common.compact_metrics(metrics.to_dict())
    assert out["histograms"] == {
        "net.request_ms": {
            "count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
        }
    }
