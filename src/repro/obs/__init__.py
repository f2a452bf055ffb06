"""repro.obs — end-to-end tracing and a unified metrics registry.

Two halves, both ~zero-cost when disarmed:

* :mod:`repro.obs.trace` — hierarchical spans with a Dapper-style trace id
  that survives thread pools and HTTP hops (``X-Repro-Trace`` header).  Disarmed, every hook is a single module-global load and ``None``
  check, mirroring ``repro.chaos``.
* :mod:`repro.obs.metrics` — a pull-based registry (counters, gauges,
  histograms with fixed buckets) that existing stats objects register into
  via weakref adapters; rendered as Prometheus text exposition by
  ``GET /v1/metrics`` on the sweep service.

Export surfaces live in :mod:`repro.obs.export`: Chrome trace-event JSON
(``runner --trace out.json``, loadable in Perfetto) and a per-phase
wall-time tree (``runner --profile``).
"""

from repro.obs.trace import (
    Span,
    Tracer,
    arm,
    current_tracer,
    disarm,
    ensure_armed,
    install,
    trace_attach,
    trace_capture,
    trace_ingest,
    trace_span,
    trace_wire,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import profile_tree, render_profile, to_chrome_trace, trace_roots

__all__ = [
    "Span",
    "Tracer",
    "arm",
    "current_tracer",
    "disarm",
    "ensure_armed",
    "install",
    "trace_attach",
    "trace_capture",
    "trace_ingest",
    "trace_span",
    "trace_wire",
    "REGISTRY",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "profile_tree",
    "render_profile",
    "to_chrome_trace",
    "trace_roots",
]
