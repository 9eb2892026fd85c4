"""End-to-end observability for the GAE: spans, event journal, metrics.

The paper's Job Monitoring Service (§5) exists so users can ask "what is
my job doing right now, and why?".  PR 1 instrumented the Clarens RPC
boundary; this package follows a job the rest of the way — through the
scheduler, the Condor pools (including flock forwards), the execution
services, steering, Backup & Recovery and the MonALISA publish — as one
correlated trace:

- :mod:`repro.observability.tracing` — ``Span``/``SpanContext`` and a
  thread-safe, bounded, simulation-clock-aware ``Tracer``;
- :mod:`repro.observability.journal` — an append-only ``EventJournal``
  of typed lifecycle events with per-task timeline reconstruction;
- :mod:`repro.observability.metrics` — the ``MetricsRegistry`` of
  counters/gauges/histograms with Prometheus-style text exposition (the
  GAE's instance here; the Clarens host keeps its own, ``host.metrics``);
- :mod:`repro.observability.instrument` — ``GAEInstrumentation``, the
  wiring that subscribes all of the above to a built GAE, plus the
  ``ObservabilityMiddleware`` that joins Clarens call trace ids with
  job traces;
- :mod:`repro.observability.export` — JSONL export of spans + journal
  events, validated against ``docs/schemas/trace_export.schema.json``.
"""

from repro.observability.export import (
    ExportValidationError,
    export_observability,
    load_export,
    validate_export_file,
)
from repro.observability.instrument import GAEInstrumentation, ObservabilityMiddleware
from repro.observability.journal import EventJournal, EventType, JournalEvent
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.tracing import Span, SpanContext, Tracer, render_span_tree

__all__ = [
    "Counter",
    "EventJournal",
    "EventType",
    "ExportValidationError",
    "GAEInstrumentation",
    "Gauge",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "ObservabilityMiddleware",
    "Span",
    "SpanContext",
    "Tracer",
    "export_observability",
    "load_export",
    "render_span_tree",
    "validate_export_file",
]
