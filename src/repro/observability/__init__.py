"""`repro.observability` — zero-dependency engine telemetry.

Cooperating pieces, bundled by :class:`Telemetry`:

* :class:`Tracer` / :class:`Span` — nested timed spans over
  parse → plan → optimize → execute, with per-operator children;
  exports nested JSON and Chrome trace-event format.
* :class:`MetricsRegistry` — labelled counters, gauges and
  fixed-bucket histograms with p50/p95/p99 summaries; exports
  Prometheus text and JSON.
* :class:`QueryLog` — ring buffer of executed statements with a
  slow-query threshold and an optional persistent JSONL sink.
* :class:`Profiler` / :class:`ProfileStore` — continuous profiling:
  per-operator and per-iteration accounting aggregated across queries,
  with collapsed-stack flamegraph and top-K hot-operator export.
* :class:`FlightRecorder` — diagnostic bundles captured on slow or
  failing queries into a bounded on-disk ring; :func:`replay_bundle`
  re-executes one.
* :class:`ObservabilityServer` — a stdlib threaded HTTP endpoint
  (``/metrics``, ``/healthz``, ``/queries``, ``/profile``, ``/flight``)
  over a live engine.

Counters stay on even with tracing disabled (they are one float add
each); tracing is opt-in via ``Engine(telemetry="on")``, profiling via
``Engine(telemetry="profile")``.
"""

from .collect import record_plan, record_storage_metrics
from .flight import (FlightRecorder, ReplayOutcome, load_bundle,
                     replay_bundle, result_digest)
from .metrics import (DEFAULT_BUCKETS_MS, SUMMARY_QUANTILES, Counter, Gauge,
                      Histogram, MetricsRegistry)
from .profiling import DRIFT_THRESHOLD, ProfileStore, Profiler
from .querylog import QueryLog, QueryLogEntry
from .server import ObservabilityServer
from .telemetry import QueryTelemetry, Telemetry, resolve_telemetry
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "DRIFT_THRESHOLD",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityServer",
    "ProfileStore",
    "Profiler",
    "QueryLog",
    "QueryLogEntry",
    "QueryTelemetry",
    "ReplayOutcome",
    "SUMMARY_QUANTILES",
    "Span",
    "Telemetry",
    "Tracer",
    "load_bundle",
    "record_plan",
    "record_storage_metrics",
    "replay_bundle",
    "resolve_telemetry",
    "result_digest",
]
