"""Observability: metrics, structured tracing, span timing, manifests.

The package has seven pieces:

- :mod:`repro.obs.metrics` — always-on counters/gauges/histograms in a
  :class:`MetricsRegistry`;
- :mod:`repro.obs.events` + :mod:`repro.obs.tracer` — typed trace
  events written through a pluggable sink (default: the no-op
  :data:`NULL_TRACER`, one attribute check in the hot loop);
- :mod:`repro.obs.jsonl` — the one JSON-lines appender and reader
  behind the event log, the span spools and the serve access log;
- :mod:`repro.obs.spans` — nested timed spans for the harness pipeline
  (trace → profile → select → simulate) with events/sec throughput,
  each folded into the in-process :class:`SpanTree`;
- :mod:`repro.obs.tracectx` + :mod:`repro.obs.traceview` — one trace
  identity across processes; a trace directory's spools are the one
  place ``span.end`` records are written, and ``python -m repro trace
  show`` is their one reader;
- :mod:`repro.obs.manifest` + :mod:`repro.obs.trace_report` — the
  per-run JSON manifest and offline summarization of the ``--trace``
  event log (``python -m repro trace-report``);
- :mod:`repro.obs.ledger` + :mod:`repro.obs.explain` — the decision
  ledger joining compile-time selection verdicts with runtime dpred
  outcomes (``python -m repro explain``).

:mod:`repro.obs.context` holds the active tracer/registry/span tree so
the CLI can enable telemetry without threading arguments through every
experiment signature.  See ``docs/observability.md``.

The package re-exports only what every run loads.  Import the event
classes, the manifest, the trace report and the decision ledger from
their own modules (``repro.obs.events``, ``.manifest``,
``.trace_report``, ``.ledger``, ``.explain``): a figure run that does
not trace, write a manifest or explain never loads them.
"""

from repro.obs.context import (
    Telemetry,
    active,
    get_metrics,
    get_spans,
    get_tracer,
    telemetry,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_openmetrics,
)
from repro.obs.spans import (
    PATH_SEP,
    SpanHandle,
    SpanTree,
    format_by_name,
    span,
)
from repro.obs.tracectx import (
    TRACE_DIR_ENV,
    TRACE_HEADER,
    TRACEPARENT_ENV,
    SpanSpool,
    TraceContext,
    activate,
    current,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlSink,
    ListSink,
    NullTracer,
    Tracer,
    iter_records,
    jsonl_tracer,
    read_events,
)

__all__ = [
    "Telemetry",
    "active",
    "get_metrics",
    "get_spans",
    "get_tracer",
    "telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_openmetrics",
    "PATH_SEP",
    "SpanHandle",
    "SpanTree",
    "format_by_name",
    "span",
    "TRACE_DIR_ENV",
    "TRACE_HEADER",
    "TRACEPARENT_ENV",
    "SpanSpool",
    "TraceContext",
    "activate",
    "current",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "NULL_TRACER",
    "JsonlSink",
    "ListSink",
    "NullTracer",
    "Tracer",
    "iter_records",
    "jsonl_tracer",
    "read_events",
]
