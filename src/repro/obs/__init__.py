"""Observability: span tracing, metrics, and exporters (zero-dependency).

The engine's decisions — which procedure ran, where the states and
milliseconds went, whether the cache or the budget intervened — are
invisible from a bare :class:`repro.report.ContainmentResult`.  This
package makes them inspectable:

- :mod:`repro.obs.trace` — nested spans with monotonic timings,
  counters, and tags (``with tracer.span("determinize", states=n):``).
  Tracing is off when the tracer is ``None`` (the default everywhere);
  instrumented code then pays a single ``None`` test.
- :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges, and fixed-bucket histograms; :func:`metrics_snapshot` is the
  machine-readable dump, akin to :func:`repro.cache.cache_stats`.
- :mod:`repro.obs.export` — ndjson span and metrics dumps, flat dicts,
  and the human tree renderer behind the CLI's ``contain --trace``.
- :mod:`repro.obs.profile` — span-profile aggregation: many traces
  merged into one path-keyed hotspot table (calls, cum/self time,
  p50/p95).
- :mod:`repro.obs.perf` — the performance observatory: structured
  bench runs (``BENCH_<runid>.json``), timing gates, and the
  run-over-run regression detector (exact series bit-for-bit, timing
  series MAD-gated); its experiments live in :mod:`repro.obs.experiments`.
  Neither is imported here: the bench harness stays off the serving
  import path (import ``repro.obs.perf`` explicitly).
- :mod:`repro.obs.telemetry` — operational telemetry for the serving
  layer: the request-scoped NDJSON access log (bounded, non-blocking
  writer), the flight recorder (ring buffer with span-tree retention
  for slow/shed/error requests), and deterministic trace sampling.
- :mod:`repro.obs.promtext` — Prometheus text exposition of any
  metrics snapshot (``repro serve --prom-port`` / ``repro metrics
  --prom``).
- :mod:`repro.obs.env` — the shared environment fingerprint reported
  by bench runs and the serving layer's ``health`` verb.

Entry points: ``check_containment(q1, q2, trace=True)`` returns the
span tree in ``details["trace"]`` (CLI: ``contain --trace`` /
``--trace-json``); ``repro bench run|compare|profile`` drives the
observatory.
"""

from .trace import Span, Tracer, maybe_span
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_snapshot,
    reset_metrics,
)
from .export import (
    flatten_trace,
    metrics_from_ndjson,
    metrics_to_ndjson,
    render_trace,
    trace_from_ndjson,
    trace_to_ndjson,
)
from .profile import SpanProfile, aggregate_traces, render_profile
from .env import environment_fingerprint
from .promtext import http_exposition, render_prometheus
from .telemetry import (
    ACCESS_LOG_SCHEMA,
    AccessLogWriter,
    FlightRecorder,
    Sampler,
    Telemetry,
    TelemetryConfig,
    access_record,
    validate_access_record,
)

__all__ = [
    "Span",
    "Tracer",
    "maybe_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
    "flatten_trace",
    "render_trace",
    "trace_from_ndjson",
    "trace_to_ndjson",
    "metrics_from_ndjson",
    "metrics_to_ndjson",
    "SpanProfile",
    "aggregate_traces",
    "render_profile",
    "environment_fingerprint",
    "http_exposition",
    "render_prometheus",
    "ACCESS_LOG_SCHEMA",
    "AccessLogWriter",
    "FlightRecorder",
    "Sampler",
    "Telemetry",
    "TelemetryConfig",
    "access_record",
    "validate_access_record",
]
