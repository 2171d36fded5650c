"""Telemetry sinks: JSONL event logs and Prometheus text exposition.

Two machine-readable exports complement the Chrome trace:

- :func:`events_from_tracer` / :func:`write_events_jsonl` — a flat,
  line-delimited event log derived deterministically from a recorded
  span tree: one ``run_meta`` header line, ``span_open`` / ``span_close``
  per span, ``punt`` lines wherever a span recorded punt activity, and
  ``shard_dispatch`` / ``shard_complete`` for every ``parallel.subtree``
  span of a multiprocess run.  Every line validates against
  :data:`EVENT_SCHEMA` (mirrored at ``docs/telemetry_events.schema.json``)
  via the dependency-free :func:`validate_event`.
- :func:`metrics_to_prometheus` — the full :class:`~repro.obs.metrics.
  Metrics` registry in Prometheus text exposition format (version 0.0.4):
  counters as ``counter`` samples with a ``_total`` suffix, gauges as
  ``gauge`` samples, series as ``_count`` (plus ``_sum``/``_min``/``_max``
  for all-numeric series), histograms as full ``histogram`` families —
  cumulative ``_bucket`` samples with ascending ``le`` labels ending in
  ``+Inf``, plus ``_sum`` and ``_count``.  Metric names are sanitised to
  the Prometheus charset; the raw registry key always rides along in a
  ``key`` label so nothing is lost to sanitisation.

Both sinks are pure functions of already-recorded state — they can never
perturb the (depth, work) ledger.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import Metrics
from .spans import Tracer, span_tree_from_dict

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "SchemaError",
    "events_from_tracer",
    "load_trace",
    "metrics_to_prometheus",
    "validate_event",
    "write_events_jsonl",
]

EVENT_TYPES = (
    "run_meta",
    "span_open",
    "span_close",
    "punt",
    "shard_dispatch",
    "shard_complete",
)

#: JSON Schema (draft-07 subset) for one JSONL event line.  The canonical
#: copy lives at ``docs/telemetry_events.schema.json``; a unit test pins
#: the two in sync.
EVENT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro telemetry event",
    "type": "object",
    "required": ["event", "ts", "seq"],
    "additionalProperties": False,
    "properties": {
        "event": {"enum": list(EVENT_TYPES)},
        "ts": {"type": "number"},
        "seq": {"type": "integer"},
        "schema": {"type": "integer"},
        "name": {"type": "string"},
        "level": {"type": "integer"},
        "depth": {"type": "number"},
        "work": {"type": "number"},
        "wall_seconds": {"type": "number"},
        "punts": {"type": "integer"},
        "attrs": {"type": "object"},
    },
}


class SchemaError(ValueError):
    """An object failed validation against a JSON Schema subset."""


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_event(
    obj: Any, schema: Optional[Dict[str, Any]] = None, *, path: str = "$"
) -> None:
    """Validate ``obj`` against a small JSON Schema subset.

    Supports ``type`` (name or list of names), ``enum``, ``properties``,
    ``required``, ``additionalProperties`` (boolean) and ``items`` —
    enough for :data:`EVENT_SCHEMA` without depending on the
    ``jsonschema`` package (not in the CI environment).  Raises
    :class:`SchemaError` on the first violation.
    """
    if schema is None:
        schema = EVENT_SCHEMA
    stype = schema.get("type")
    if stype is not None:
        names = stype if isinstance(stype, list) else [stype]
        if not any(_TYPE_CHECKS[name](obj) for name in names):
            raise SchemaError(
                f"{path}: expected type {stype!r}, got {type(obj).__name__}"
            )
    if "enum" in schema and obj not in schema["enum"]:
        raise SchemaError(f"{path}: {obj!r} not in enum {schema['enum']!r}")
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                raise SchemaError(f"{path}: missing required property {key!r}")
        props = schema.get("properties", {})
        for key, value in obj.items():
            if key in props:
                validate_event(value, props[key], path=f"{path}.{key}")
            elif schema.get("additionalProperties", True) is False:
                raise SchemaError(f"{path}: unexpected property {key!r}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            validate_event(item, schema["items"], path=f"{path}[{i}]")


def _json_safe(value: Any) -> Any:
    """Coerce attribute values to plain JSON types (numpy scalars become
    Python numbers, unknown objects their ``repr``)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


def events_from_tracer(
    tracer: Tracer, *, run_attrs: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Flatten a span tree into a deterministic, schema-valid event list.

    Events are ordered by timestamp (ties broken by emission order, which
    follows the pre-order walk) and numbered with a contiguous ``seq``.
    Punt events are derived from span attributes: a span with a truthy
    ``punted`` attr or a positive ``punts`` attr yields one ``punt``
    event at its close time carrying the count.
    """
    raw: List[Dict[str, Any]] = []

    def emit(event: str, ts: float, **fields: Any) -> None:
        raw.append({"event": event, "ts": float(ts), **fields})

    roots = list(tracer.roots)
    t0 = min((r.wall_start for r in roots), default=0.0)
    meta_attrs = dict(run_attrs or {})
    if len(roots) == 1 and not meta_attrs:
        meta_attrs = dict(roots[0].attrs)
    emit("run_meta", t0, schema=1, attrs=_json_safe(meta_attrs))
    for root in roots:
        for level, span in root.walk():
            attrs = _json_safe(span.attrs)
            emit(
                "span_open", span.wall_start,
                name=span.name, level=int(level), attrs=attrs,
            )
            if span.name == "parallel.subtree":
                emit(
                    "shard_dispatch", span.wall_start,
                    name=span.name, level=int(level), attrs=attrs,
                )
                emit(
                    "shard_complete", span.wall_end,
                    name=span.name, level=int(level), attrs=attrs,
                )
            punts = 0
            if span.attrs.get("punted"):
                punts = 1
            try:
                punts = max(punts, int(span.attrs.get("punts", 0)))
            except (TypeError, ValueError):
                pass
            if punts > 0:
                emit(
                    "punt", span.wall_end,
                    name=span.name, level=int(level), punts=punts, attrs=attrs,
                )
            emit(
                "span_close", span.wall_end,
                name=span.name, level=int(level),
                depth=float(span.cost.depth), work=float(span.cost.work),
                wall_seconds=float(span.wall_seconds), attrs=attrs,
            )
    order = {id(e): i for i, e in enumerate(raw)}
    raw.sort(key=lambda e: (e["ts"], order[id(e)]))
    for seq, event in enumerate(raw):
        event["seq"] = seq
    for event in raw:
        validate_event(event)
    return raw


def write_events_jsonl(
    path: str, tracer: Tracer, *, run_attrs: Optional[Dict[str, Any]] = None
) -> int:
    """Write the tracer's event log as JSON Lines; returns the line count."""
    events = events_from_tracer(tracer, run_attrs=run_attrs)
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)


# -- Prometheus exposition -------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(key: str, prefix: str) -> str:
    name = f"{prefix}_{_NAME_RE.sub('_', key)}" if prefix else _NAME_RE.sub("_", key)
    if not re.match(r"[a-zA-Z_:]", name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_le(bound: float) -> str:
    """Render an ``le`` bound the way Prometheus clients do: shortest
    exact decimal (``repr``), with integral bounds as plain integers."""
    if bound == float("inf"):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _sample(name: str, key: str, value: float) -> str:
    if value != value:  # NaN
        rendered = "NaN"
    elif value in (float("inf"), float("-inf")):
        rendered = "+Inf" if value > 0 else "-Inf"
    else:
        rendered = repr(float(value))
    return f'{name}{{key="{_escape_label(key)}"}} {rendered}'


def _numeric_samples(samples: Iterable[Any]) -> Optional[List[float]]:
    out: List[float] = []
    for s in samples:
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            return None
        out.append(float(s))
    return out


def metrics_to_prometheus(metrics: Metrics, *, prefix: str = "repro") -> str:
    """Render a registry in Prometheus text exposition format.

    Deterministic: metric families are emitted sorted by registry key.
    Counters gain the conventional ``_total`` suffix; each sample carries
    the raw registry key in a ``key`` label (escaped per the exposition
    format) so consumers can recover names that sanitisation collapsed.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str, samples: List[str]) -> None:
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for key in sorted(metrics.counters):
        name = _prom_name(key, prefix) + "_total"
        family(
            name, "counter", f"Counter {key} from the repro metrics registry.",
            [_sample(name, key, metrics.counters[key])],
        )
    for key in sorted(metrics.gauges):
        name = _prom_name(key, prefix)
        family(
            name, "gauge", f"Gauge {key} from the repro metrics registry.",
            [_sample(name, key, metrics.gauges[key])],
        )
    for key in sorted(metrics.series):
        samples = metrics.series[key]
        base = _prom_name(key, prefix)
        count_name = base + "_count"
        family(
            count_name, "gauge", f"Sample count of series {key}.",
            [_sample(count_name, key, float(len(samples)))],
        )
        numeric = _numeric_samples(samples)
        if numeric is not None and numeric:
            for suffix, value in (
                ("_sum", sum(numeric)),
                ("_min", min(numeric)),
                ("_max", max(numeric)),
            ):
                name = base + suffix
                family(
                    name, "gauge", f"{suffix[1:].capitalize()} of series {key}.",
                    [_sample(name, key, value)],
                )
    for key in sorted(metrics.histograms):
        hist = metrics.histograms[key]
        base = _prom_name(key, prefix)
        esc_key = _escape_label(key)
        samples = []
        cumulative = hist.cumulative_counts()
        bounds = list(hist.bounds) + [float("inf")]
        for bound, cum in zip(bounds, cumulative):
            samples.append(
                f'{base}_bucket{{key="{esc_key}",le="{_format_le(bound)}"}} '
                f"{repr(float(cum))}"
            )
        samples.append(_sample(base + "_sum", key, hist.sum))
        samples.append(_sample(base + "_count", key, float(hist.count)))
        family(
            base, "histogram", f"Histogram {key} from the repro metrics registry.",
            samples,
        )
    return "\n".join(lines) + "\n"


def load_trace(path: str) -> Tuple[Tracer, Dict[str, Any]]:
    """Load a trace file written by :func:`~repro.obs.spans.write_trace`.

    Returns ``(tracer, payload)``: a tracer wrapping the reconstructed
    span tree (usable with ``flame_summary`` / ``per_level_breakdown``)
    and the raw JSON payload (``otherData``, ``levels``, ...).
    """
    with open(path) as fh:
        payload = json.load(fh)
    span_data = payload.get("spanTree")
    if span_data is None:
        raise ValueError(f"{path}: not a repro trace file (no spanTree)")
    if isinstance(span_data, dict):
        roots = [span_tree_from_dict(span_data)]
    else:
        roots = [span_tree_from_dict(d) for d in span_data]
    return Tracer.from_roots(roots), payload
