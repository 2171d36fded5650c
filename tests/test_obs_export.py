"""Telemetry sink tests: JSONL event log schema and Prometheus exposition.

Covers the Prometheus escaping/format rules, the minimal JSON-Schema
validator, the golden schema file in ``docs/``, and the end-to-end
``run_traced(events_out=..., metrics_out=...)`` wiring.
"""

import json
import os
import re

import numpy as np
import pytest

import repro
from repro.obs import Metrics
from repro.obs.export import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    SchemaError,
    events_from_tracer,
    load_trace,
    metrics_to_prometheus,
    validate_event,
    write_events_jsonl,
)
from repro.obs.spans import write_trace
from repro.pvm import Cost, Machine

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs", "telemetry_events.schema.json",
)


def _points(n=300, d=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestPrometheusExposition:
    def test_counter_gets_total_suffix_and_counter_type(self):
        m = Metrics()
        m.inc("fast.punts_iota", 3)
        text = metrics_to_prometheus(m)
        assert "# TYPE repro_fast_punts_iota_total counter" in text
        assert 'repro_fast_punts_iota_total{key="fast.punts_iota"} 3.0' in text

    def test_gauge_type_and_value(self):
        m = Metrics()
        m.set_gauge("parallel.utilization", 0.75)
        text = metrics_to_prometheus(m)
        assert "# TYPE repro_parallel_utilization gauge" in text
        assert 'repro_parallel_utilization{key="parallel.utilization"} 0.75' in text

    def test_name_sanitization(self):
        m = Metrics()
        m.inc("weird-name.with spaces/and+more", 1)
        text = metrics_to_prometheus(m)
        for line in text.splitlines():
            if line.startswith("#"):
                name = line.split()[2]
            else:
                name = line.split("{")[0]
            assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", name), line

    def test_label_value_escaping(self):
        m = Metrics()
        m.set_gauge('odd"key\\with\nnewline', 1.0)
        text = metrics_to_prometheus(m)
        assert '{key="odd\\"key\\\\with\\nnewline"}' in text
        assert "\n\n" not in text  # raw newline never leaks into a sample line

    def test_series_count_and_numeric_stats(self):
        m = Metrics()
        for v in (1.0, 2.0, 3.0):
            m.observe("fast.base_case_sizes", v)
        m.observe("fast.straddler_fraction", (100, 5))  # structured sample
        text = metrics_to_prometheus(m)
        assert 'repro_fast_base_case_sizes_count{key="fast.base_case_sizes"} 3.0' in text
        assert 'repro_fast_base_case_sizes_sum{key="fast.base_case_sizes"} 6.0' in text
        assert 'repro_fast_base_case_sizes_min{key="fast.base_case_sizes"} 1.0' in text
        assert 'repro_fast_base_case_sizes_max{key="fast.base_case_sizes"} 3.0' in text
        # non-numeric series exports only the count family
        assert "repro_fast_straddler_fraction_count" in text
        assert "repro_fast_straddler_fraction_sum" not in text

    def test_help_lines_and_determinism(self):
        m = Metrics()
        m.inc("b.z", 1)
        m.inc("a.y", 2)
        m.set_gauge("c.x", 3)
        text = metrics_to_prometheus(m)
        assert text == metrics_to_prometheus(m)
        # sorted by registry key within each section
        assert text.index("repro_a_y_total") < text.index("repro_b_z_total")
        for line in text.splitlines():
            assert line.startswith("#") or re.match(r"^[a-zA-Z_:]", line)

    def test_metrics_to_prometheus_method_delegates(self):
        m = Metrics()
        m.inc("x", 1)
        assert m.to_prometheus() == metrics_to_prometheus(m)


class TestValidator:
    def test_accepts_valid_event(self):
        validate_event({"event": "span_open", "ts": 0.0, "seq": 0,
                        "name": "run", "level": 0, "attrs": {}})

    def test_rejects_unknown_event_type(self):
        with pytest.raises(SchemaError, match="enum"):
            validate_event({"event": "nope", "ts": 0.0, "seq": 0})

    def test_rejects_missing_required(self):
        with pytest.raises(SchemaError, match="required"):
            validate_event({"event": "punt", "ts": 0.0})

    def test_rejects_additional_properties(self):
        with pytest.raises(SchemaError, match="unexpected"):
            validate_event({"event": "punt", "ts": 0.0, "seq": 0, "bogus": 1})

    def test_rejects_wrong_types(self):
        with pytest.raises(SchemaError, match="expected type"):
            validate_event({"event": "punt", "ts": "zero", "seq": 0})
        with pytest.raises(SchemaError, match="expected type"):
            validate_event({"event": "punt", "ts": 0.0, "seq": 0.5})
        # booleans are not integers/numbers in JSON Schema
        with pytest.raises(SchemaError, match="expected type"):
            validate_event({"event": "punt", "ts": True, "seq": 0})

    def test_items_subschema(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        validate_event([1, 2, 3], schema)
        with pytest.raises(SchemaError):
            validate_event([1, "x"], schema)


class TestEventLog:
    def _tracer(self):
        machine = Machine()
        tracer = machine.enable_tracing()
        with machine.span("run", n=10):
            with machine.span("frontier.level", phase="build", level=0):
                machine.charge(Cost(1.0, 10.0))
            with machine.span("parallel.subtree", worker=0, phase="build"):
                pass
            with machine.span("frontier.level", phase="correct", level=0,
                              punts=2):
                machine.charge(Cost(1.0, 5.0))
        return tracer

    def test_schema_file_matches_source(self):
        """docs/telemetry_events.schema.json is the committed copy of
        EVENT_SCHEMA; the two must never drift."""
        with open(SCHEMA_PATH) as fh:
            assert json.load(fh) == EVENT_SCHEMA

    def test_every_line_validates_against_golden_schema(self, tmp_path):
        with open(SCHEMA_PATH) as fh:
            golden = json.load(fh)
        path = tmp_path / "events.jsonl"
        count = write_events_jsonl(str(path), self._tracer())
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0
        for line in lines:
            validate_event(json.loads(line), golden)

    def test_event_stream_shape(self):
        events = events_from_tracer(self._tracer())
        assert events[0]["event"] == "run_meta"
        assert events[0]["seq"] == 0
        assert [e["seq"] for e in events] == list(range(len(events)))
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        kinds = {e["event"] for e in events}
        assert {"run_meta", "span_open", "span_close",
                "shard_dispatch", "shard_complete", "punt"} <= kinds
        assert set(kinds) <= set(EVENT_TYPES)
        punt = [e for e in events if e["event"] == "punt"]
        assert punt and punt[0]["punts"] == 2
        opens = sum(1 for e in events if e["event"] == "span_open")
        closes = sum(1 for e in events if e["event"] == "span_close")
        assert opens == closes == self._tracer().span_count()

    def test_deterministic(self):
        a = events_from_tracer(self._tracer())
        b = events_from_tracer(self._tracer())
        # same structure modulo wall-clock: strip timestamps
        def strip(evs):
            return [
                {k: v for k, v in e.items() if k not in ("ts", "wall_seconds")}
                for e in evs
            ]

        assert strip(a) == strip(b)


class TestRunTracedSinks:
    def test_run_traced_writes_both_sinks(self, tmp_path):
        ev = tmp_path / "e.jsonl"
        prom = tmp_path / "m.prom"
        _, tracer = repro.run_traced(
            _points(), 2, seed=3, engine="frontier",
            events_out=str(ev), metrics_out=str(prom),
        )
        lines = ev.read_text().splitlines()
        assert lines and all(
            json.loads(l)["event"] in EVENT_TYPES for l in lines
        )
        text = prom.read_text()
        assert "# TYPE repro_fast_nodes_total counter" in text

    def test_no_sinks_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        repro.run_traced(_points(), 1, seed=3)
        assert list(tmp_path.iterdir()) == []


class TestLoadTrace:
    def test_round_trip(self, tmp_path):
        result, tracer = repro.run_traced(_points(), 2, seed=3)
        path = tmp_path / "t.json"
        write_trace(str(path), tracer, total=result.cost,
                    metrics=result.machine.metrics.to_dict())
        loaded, payload = load_trace(str(path))
        assert loaded.span_count() == tracer.span_count()
        assert loaded.per_level_breakdown() == tracer.per_level_breakdown()
        assert payload["otherData"]["total"]["work"] == result.cost.work

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="spanTree"):
            load_trace(str(path))
