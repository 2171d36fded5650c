"""Observability layer: spans, metrics, trace exports, ledger neutrality."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import all_knn, run_traced
from repro.core import FastDnCConfig, knn_query, parallel_nearest_neighborhood, simple_parallel_dnc
from repro.obs import Metrics, MetricsView, span_tree_from_dict, write_trace
from repro.pvm import Cost, Machine
from repro.workloads import uniform_cube

PUNTY = FastDnCConfig(active_factor=1e-9, active_slack=0.0, fc_depth=2.0)


class TestMetrics:
    def test_counters_gauges_series(self):
        m = Metrics()
        m.inc("a.x")
        m.inc("a.x", 2)
        m.set_gauge("a.g", 0.5)
        m.observe("a.s", 1)
        m.observe("a.s", 2)
        assert m.counter("a.x") == 3
        assert m.gauge("a.g") == 0.5
        assert m.samples("a.s") == [1, 2]
        d = m.to_dict()
        assert d["counters"]["a.x"] == 3
        assert d["gauges"]["a.g"] == 0.5
        assert d["series"]["a.s"] == [1, 2]

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.inc("n", 1)
        b.inc("n", 2)
        b.observe("s", 9)
        a.merge(b)
        assert a.counter("n") == 3
        assert a.samples("s") == [9]

    def test_view_round_trip(self):
        class V(MetricsView):
            _NS = "v"
            _COUNTER_FIELDS = ("hits",)
            _SERIES_FIELDS = ("sizes",)

        reg = Metrics()
        view = V(metrics=reg)
        view.hits += 2
        view.sizes.append((4, 1))
        assert reg.counter("v.hits") == 2
        assert reg.samples("v.sizes") == [(4, 1)]
        assert view.to_dict()["hits"] == 2

    def test_view_rejects_unknown_field(self):
        class V(MetricsView):
            _NS = "v"
            _COUNTER_FIELDS = ("hits",)

        with pytest.raises(TypeError):
            V(bogus=1)


class TestSpanRecording:
    def test_nesting_and_ordering_under_recursive_dnc(self):
        pts = uniform_cube(256, 2, 11)
        machine = Machine()
        tracer = machine.enable_tracing()
        parallel_nearest_neighborhood(pts, 2, machine=machine, seed=0)
        # every recursion node became a span; roots are the top-level calls
        assert tracer.span_count() > 10
        root = tracer.roots[0]
        assert root.name == "fast.node"
        assert root.attrs["level"] == 0
        assert root.attrs["m"] == 256
        for level, span in root.walk():
            if span.name == "fast.node":
                assert span.attrs["level"] >= 0
                for child in span.children:
                    if child.name == "fast.node":
                        # children are one recursion level deeper, on smaller sets
                        assert child.attrs["level"] == span.attrs["level"] + 1
                        assert child.attrs["m"] < span.attrs["m"]
                    # child spans never out-cost their parent
                    assert child.cost.depth <= span.cost.depth + 1e-9
                assert sum(c.cost.work for c in span.children) <= span.cost.work + 1e-9

    def test_simple_dnc_levels(self):
        pts = uniform_cube(200, 2, 3)
        machine = Machine()
        tracer = machine.enable_tracing()
        simple_parallel_dnc(pts, 1, machine=machine, seed=0)
        names = {span.name for root in tracer.roots for _, span in root.walk()}
        assert "simple.node" in names

    def test_disabled_tracing_records_nothing(self):
        pts = uniform_cube(128, 2, 5)
        machine = Machine()
        assert machine.tracer is None
        res = parallel_nearest_neighborhood(pts, 1, machine=machine, seed=0)
        assert res.cost.work > 0  # the run did happen
        with machine.span("anything", x=1) as handle:
            machine.charge(Cost(1.0, 1.0))
        assert handle is None

    def test_tracing_does_not_change_the_ledger(self):
        pts = uniform_cube(512, 2, 9)
        plain = Machine()
        parallel_nearest_neighborhood(pts, 2, machine=plain, seed=4)
        traced = Machine()
        traced.enable_tracing()
        parallel_nearest_neighborhood(pts, 2, machine=traced, seed=4)
        assert traced.total == plain.total
        # same for the simple algorithm
        plain2, traced2 = Machine(), Machine()
        traced2.enable_tracing()
        simple_parallel_dnc(pts, 2, machine=plain2, seed=4)
        simple_parallel_dnc(pts, 2, machine=traced2, seed=4)
        assert traced2.total == plain2.total

    def test_span_cost_exact_inside_parallel_blocks(self):
        machine = Machine()
        machine.enable_tracing()
        with machine.span("outer") as outer:
            with machine.parallel() as par:
                with par.branch():
                    machine.charge(Cost(3.0, 10.0))
                with par.branch():
                    machine.charge(Cost(5.0, 7.0))
        assert outer.cost == Cost(5.0, 17.0)
        assert machine.total == Cost(5.0, 17.0)


class TestLedgerEquality:
    @pytest.mark.parametrize("method", ["fast", "simple"])
    def test_run_traced_check_against(self, method):
        pts = uniform_cube(400, 2, 21)
        result, tracer = run_traced(pts, 2, method=method, seed=1)
        root = tracer.root
        assert root is not None and root.name == "run"
        assert root.cost == result.cost
        # per-level exclusive work is a lossless decomposition of the ledger
        levels = tracer.per_level_breakdown()
        assert sum(r["exclusive_work"] for r in levels) == pytest.approx(result.cost.work)
        tracer.check_against(result.cost)  # must not raise

    def test_check_against_detects_mismatch(self):
        machine = Machine()
        tracer = machine.enable_tracing()
        with machine.span("run"):
            machine.charge(Cost(1.0, 5.0))
        with pytest.raises(ValueError):
            tracer.check_against(Cost(1.0, 6.0))


class TestPuntPath:
    def test_metrics_survive_punt_path(self):
        pts = uniform_cube(600, 2, 33)
        machine = Machine()
        res = parallel_nearest_neighborhood(pts, 2, machine=machine, seed=2, config=PUNTY)
        assert res.stats.punts > 0
        assert machine.metrics.counter("fast.punts_marching") == res.stats.punts_marching
        assert machine.metrics.counter("fast.nodes") == res.stats.nodes
        assert machine.metrics.counter("fast.punt_corrections") > 0

    def test_spans_survive_punt_path(self):
        pts = uniform_cube(600, 2, 33)
        result, tracer = run_traced(pts, 2, seed=2, config=PUNTY)
        names = {span.name for root in tracer.roots for _, span in root.walk()}
        assert "correct.punt" in names and "correct.query" in names
        tracer.check_against(result.cost)


class TestExports:
    def _traced(self):
        pts = uniform_cube(300, 2, 17)
        result, tracer = run_traced(pts, 2, seed=7)
        return result, tracer

    def test_span_tree_json_round_trip(self):
        result, tracer = self._traced()
        data = json.loads(json.dumps(tracer.to_dict()))
        assert data["format"] == "repro-trace-v1"
        rebuilt = span_tree_from_dict(data["spans"][0])
        orig = tracer.roots[0]
        assert rebuilt.cost == orig.cost
        assert [s.name for _, s in rebuilt.walk()] == [s.name for _, s in orig.walk()]
        assert [s.attrs for _, s in rebuilt.walk()] == [s.attrs for _, s in orig.walk()]

    def test_chrome_trace_shape(self):
        _, tracer = self._traced()
        chrome = tracer.to_chrome_trace(extra={"note": "x"})
        assert chrome["displayTimeUnit"] == "ms"
        slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert len(slices) == tracer.span_count()
        # a serial trace has exactly the master lane, labelled by metadata
        assert [m["args"]["name"] for m in meta] == ["master"]
        ev = slices[0]
        assert "depth" in ev["args"] and "work" in ev["args"]
        assert chrome["otherData"]["note"] == "x"

    def test_write_trace_file(self, tmp_path):
        result, tracer = self._traced()
        path = tmp_path / "trace.json"
        write_trace(str(path), tracer, total=result.cost,
                    metrics=result.machine.metrics.to_dict(), meta={"k": 2})
        data = json.loads(path.read_text())
        assert data["otherData"]["total"]["work"] == result.cost.work
        assert data["otherData"]["k"] == 2
        assert "counters" in data["otherData"]["metrics"]
        assert sum(r["exclusive_work"] for r in data["levels"]) == pytest.approx(result.cost.work)

    def test_flame_summary_mentions_phases(self):
        _, tracer = self._traced()
        text = tracer.flame_summary()
        assert "run" in text and "fast.node" in text


class TestFacade:
    @pytest.mark.parametrize("method", ["fast", "simple", "query", "brute"])
    def test_all_methods_agree_with_brute(self, method):
        pts = uniform_cube(150, 2, 13)
        res = all_knn(pts, 2, method=method, seed=0)
        ref = all_knn(pts, 2, method="brute")
        assert np.allclose(res.sq_dists, ref.sq_dists)
        assert res.indices.shape == (150, 2)
        assert res.cost.work > 0

    def test_query_method_is_knn_query_minus_self(self):
        """``method="query"`` is ``knn_query``'s k + 1 list with the row's
        own id dropped; under heavy duplicates most rows' lists miss
        themselves and keep their first k."""
        pts = uniform_cube(600, 2, 21)
        pts[:400] = pts[np.arange(400) % 4]  # 4 spots, 100 copies each
        k = 3
        res = all_knn(pts, k, method="query", seed=0)
        qpts = res.system.points
        idx, sq = knn_query(res.tree, qpts, qpts, k + 1)
        missing = 0
        for i in range(pts.shape[0]):
            keep = idx[i] != i
            missing += int(keep.all())
            np.testing.assert_array_equal(res.indices[i], idx[i][keep][:k])
            np.testing.assert_array_equal(res.sq_dists[i], sq[i][keep][:k])
        assert missing >= 300
        np.testing.assert_array_equal(res.sq_dists, all_knn(pts, k, method="brute").sq_dists)
        # one point: its own id is all there is, so the row is padding
        one = all_knn(pts[:1], 1, method="query", seed=0)
        np.testing.assert_array_equal(one.indices, [[-1]])
        np.testing.assert_array_equal(one.sq_dists, [[np.inf]])

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            all_knn(uniform_cube(32, 2, 0), 1, method="psychic")
