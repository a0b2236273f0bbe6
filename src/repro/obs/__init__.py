"""Unified observability layer: metrics, spans, structured events.

Three independent signal planes share one activation pattern (a module
global consulted by cheap probes, installed via context manager):

* :mod:`repro.obs.metrics` — labeled Counter/Gauge/Histogram registry
  with locked snapshots and Prometheus/JSON exposition.
* :mod:`repro.obs.tracing` — hierarchical spans per rekey epoch in
  simulated + wall time, with fault windows attached as span events.
* :mod:`repro.obs.events` — schema-versioned JSONL event records
  (joins, departures, epochs, retry rounds, abandonments, resyncs,
  late DEK adoptions, crashes).

:func:`observe` activates all three at once and yields an
:class:`Observation` bundle; :func:`write_trace` serialises a bundle to
a single JSONL trace file (header, span records, event records, final
metrics snapshot) that ``repro trace summarize`` and the CI smoke check
consume via :func:`read_trace`.

When nothing is active every probe in the hot path is a single global
``is None`` check.  The ``epoch_ms_p50`` bounds in ``BENCHMARK.json``
gate that cost, since every benchmarked path runs the probes disabled;
``obs.enabled_epoch_ratio`` in the traced run prices turning them on.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.obs import events as events_mod
from repro.obs import metrics as metrics_mod
from repro.obs import tracing as tracing_mod
from repro.obs.events import EventLog, validate_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: Current trace schema.  v2 added ``wall_start_s`` to span records
#: (absolute ``perf_counter`` starts for the Chrome exporter) and the
#: latency event types; v3 books each receiver story once.  It is the
#: only schema read.
TRACE_SCHEMA_VERSION = 3

#: Schemas :func:`validate_trace_records` accepts, with the span fields
#: each requires.
SUPPORTED_TRACE_SCHEMAS = {
    3: ("span_id", "name", "wall_s", "wall_start_s", "events", "attributes"),
}

__all__ = [
    "Observation",
    "observe",
    "unobserved",
    "bind_clock",
    "write_trace",
    "write_metrics",
    "read_trace",
    "validate_trace_records",
    "MetricsRegistry",
    "Tracer",
    "EventLog",
    "TRACE_SCHEMA_VERSION",
    "SUPPORTED_TRACE_SCHEMAS",
]


@dataclass
class Observation:
    """The three active signal collectors for one observed run."""

    registry: MetricsRegistry
    tracer: Tracer
    events: EventLog


@contextmanager
def observe(
    clock: Optional[Callable[[], float]] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
) -> Iterator[Observation]:
    """Activate a metrics registry, tracer and event log together.

    Fresh collectors are created unless passed in; ``clock`` (simulated
    time) seeds the tracer and event log, and simulations re-bind it via
    :func:`bind_clock` when they start.
    """
    bundle = Observation(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=tracer if tracer is not None else Tracer(clock=clock),
        events=events if events is not None else EventLog(clock=clock),
    )
    with ExitStack() as stack:
        stack.enter_context(metrics_mod.collecting(bundle.registry))
        stack.enter_context(tracing_mod.tracing(bundle.tracer))
        stack.enter_context(events_mod.logging(bundle.events))
        yield bundle


@contextmanager
def unobserved() -> Iterator[None]:
    """Deactivate the metrics registry, tracer and event log for the
    ``with`` body: work that must leave no record (a batch computed and
    then lost in a server crash) runs with every probe a no-op."""
    saved = (metrics_mod._ACTIVE, tracing_mod._ACTIVE, events_mod._ACTIVE)
    metrics_mod._ACTIVE = tracing_mod._ACTIVE = events_mod._ACTIVE = None
    try:
        yield
    finally:
        metrics_mod._ACTIVE, tracing_mod._ACTIVE, events_mod._ACTIVE = saved


def bind_clock(clock: Callable[[], float]) -> None:
    """Point the active tracer's and event log's sim clock at ``clock``.

    Simulations call this when they start so spans and events are stamped
    in simulated seconds regardless of how the collectors were created.
    No-op for whichever collector is not active.
    """
    tracer = tracing_mod.active_tracer()
    if tracer is not None:
        tracer.bind_clock(clock)
    log = events_mod.active_log()
    if log is not None:
        log.bind_clock(clock)


def write_trace(obs: Observation, path: Union[str, Path]) -> int:
    """Serialise an :class:`Observation` to a JSONL trace file.

    Layout: one ``header`` record, then every span record, then every
    event record, then one final ``metrics`` record holding the JSON
    exposition of the registry.  Returns the number of records written.
    """
    path = Path(path)
    records: List[Dict[str, object]] = [
        {
            "record": "header",
            "schema": TRACE_SCHEMA_VERSION,
            "kind": "repro-trace",
        }
    ]
    records.extend(obs.tracer.to_records())
    records.extend(obs.events.records)
    records.append({"record": "metrics", "snapshot": obs.registry.to_json()})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    tmp.replace(path)
    return len(records)


def write_metrics(registry: MetricsRegistry, path: Union[str, Path]) -> None:
    """Write the Prometheus text exposition of ``registry`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(registry.to_prometheus(), encoding="utf-8")
    tmp.replace(path)


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a trace file back into its records (no validation)."""
    records: List[Dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_trace_records(records: List[Dict[str, object]]) -> Dict[str, int]:
    """Validate a parsed trace; returns per-record-kind counts.

    Raises ``ValueError`` on a malformed file: missing/bad header, an
    unknown record kind, an event record that fails the schema, or a
    span record without the required fields.
    """
    if not records:
        raise ValueError("empty trace file")
    header = records[0]
    if header.get("record") != "header" or header.get("kind") != "repro-trace":
        raise ValueError(f"bad trace header: {header!r}")
    span_fields = SUPPORTED_TRACE_SCHEMAS.get(header.get("schema"))
    if span_fields is None:
        raise ValueError(f"unsupported trace schema {header.get('schema')!r}")
    counts = {"header": 1, "span": 0, "event": 0, "metrics": 0}
    for record in records[1:]:
        kind = record.get("record")
        if kind == "span":
            for field in span_fields:
                if field not in record:
                    raise ValueError(f"span record missing {field!r}: {record!r}")
            counts["span"] += 1
        elif kind == "event":
            validate_record(record)
            counts["event"] += 1
        elif kind == "metrics":
            if not isinstance(record.get("snapshot"), dict):
                raise ValueError("metrics record missing snapshot object")
            counts["metrics"] += 1
        else:
            raise ValueError(f"unknown record kind {kind!r}")
    return counts
