"""repro.obs — the unified observability layer.

The paper's credibility rests on instrumentation: it modifies the
GridFTP server to log every transfer and reports the cost of doing so
(~25 ms/transfer, Section 4).  This package is the reproduction's own
instrumentation, threaded through every hot layer (ingest → evaluate →
serve → MDS):

* :mod:`repro.obs.metrics` — labeled Counter/Gauge/Histogram families,
  a registry with JSON ``snapshot()`` and Prometheus ``render()``, and
  the process-wide default registry (:func:`get_registry`);
* :mod:`repro.obs.tracing` — :class:`Span` context managers with
  ``contextvars`` parent propagation and a bounded :class:`SpanExporter`;
* :mod:`repro.obs.events` — :class:`EventBus`, the bounded ring of
  rare structured events (revivals, evictions, ingests, store faults);
* :mod:`repro.obs.quality` — online prediction-quality telemetry: the
  :class:`AccuracyTracker` pairs served predictions with observed
  transfers and keeps O(1) streaming error statistics (running and
  windowed MAPE/MSE, bias, calibration buckets) per link and per spec.

The layer has one mode: every call site always records.  What it costs
is measured by the perf ledger (``benchmarks/ledger``), not by turning
it off.

The historical ``repro.service.metrics`` shim is gone; import these
names from here.
"""

from repro._lazy import lazy_exports

# Resolved on first access: a process that records metrics never
# compiles the quality tracker or the scoreboard behind it.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.events": ("EventBus", "TraceEvent", "get_event_bus"),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry"),
    "repro.obs.quality": ("AccuracyTracker", "ErrorStats", "merge_stats"),
    "repro.obs.scoreboard": ("render_scoreboard",),
    "repro.obs.tracing": (
        "Span",
        "SpanContext",
        "SpanExporter",
        "current_span",
        "get_span_exporter",
        "span",
    ),
})
