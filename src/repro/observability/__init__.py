"""End-to-end observability for the GAE: spans, lifecycle events, metrics.

The paper's Job Monitoring Service (§5) exists so users can ask "what is
my job doing right now, and why?".  PR 1 instrumented the Clarens RPC
boundary; this package follows a job the rest of the way — through the
scheduler, the Condor pools (including flock forwards), the execution
services, steering, Backup & Recovery and the MonALISA publish — as one
correlated trace:

- :mod:`repro.observability.tracing` — ``Span``/``SpanContext`` and a
  thread-safe, bounded, simulation-clock-aware ``Tracer``;
- :mod:`repro.observability.metrics` — the ``MetricsRegistry`` of
  counters/gauges/histograms with Prometheus-style text exposition (the
  GAE's instance here; the Clarens host keeps its own, ``host.metrics``);
- :mod:`repro.observability.instrument` — ``GAEInstrumentation``, the
  wiring that subscribes all of the above to a built GAE and journals
  the typed lifecycle events into the GAE's :mod:`repro.events` journal
  (the write path, which exists with or without this package); its
  tracer is the Clarens host's too (``host.tracer``), so the host's
  ``rpc:`` call spans join the job traces;
- :mod:`repro.observability.export` — JSONL export of spans + journal
  events, validated against ``docs/schemas/trace_export.schema.json``.
"""

from repro.observability.export import (
    ExportValidationError,
    export_observability,
    load_export,
    validate_export_file,
)
from repro.observability.instrument import GAEInstrumentation
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.tracing import Span, SpanContext, Tracer, render_span_tree

__all__ = [
    "Counter",
    "ExportValidationError",
    "GAEInstrumentation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Tracer",
    "export_observability",
    "load_export",
    "render_span_tree",
    "validate_export_file",
]
