"""Observability: span tracing, a metrics registry, and trace exporters.

One subsystem correlates what used to be three disjoint sets of numbers —
engine :class:`~repro.engine.engine.StageTiming`, serving
:class:`~repro.serve.metrics.ServingReport`, and runtime
:class:`~repro.runtime.events.KernelEvent` records:

* :mod:`repro.obs.trace` — the span tracer.  Threaded through the engine's
  compile stages, the pass pipeline, and the serving loop, it records one
  timeline from a request's arrival down to the kernel/stream placement that
  served it.  Disabled tracing is a falsy no-op (:data:`NULL_TRACER`).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms with
  deterministic snapshots; the single home of a serving run's tallies.  The
  same three families bucket into virtual-time windows (bounded ring,
  streaming quantile sketches) when a windowed registry creates them.
* :mod:`repro.obs.timeseries` — windowed live metrics: a drop-in
  :class:`TimeSeriesRegistry` that owns the window clock, behind the same
  call-site API.
* :mod:`repro.obs.alerts` — declarative alert rules (threshold, multi-window
  SLO burn rate, queue saturation) evaluated on window close inside the
  serving loop.
* :mod:`repro.obs.sampling` — head + tail trace sampling: bounded traces
  that always retain SLO-missed/rejected/slowest lifecycles.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON rendering plus the
  schema checker behind ``ios-bench trace`` and CI's trace-smoke job.
"""

from .alerts import (
    AlertEvent,
    AlertManager,
    AlertRule,
    BurnRateRule,
    HostSaturationRule,
    QueueSaturationRule,
    ThresholdRule,
    alerts_snapshot,
    default_alert_rules,
    parse_alert_rules,
    per_host_alert_rules,
)
from .export import (
    chrome_trace,
    chrome_trace_json,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    HISTOGRAM_QUANTILES,
    QUANTILE_DECIMALS,
    Counter,
    Gauge,
    Histogram,
    LazySeries,
    Metric,
    MetricsRegistry,
    PartedSeries,
    StreamingQuantile,
    ordered_sum,
    percentile,
    percentiles,
    quantiles_reference,
)
from .sampling import SamplingConfig, SamplingTracer, parse_sampling_spec
from .timeseries import TimeSeriesRegistry, WatchRenderer, WindowSpan
from .trace import NULL_TRACER, NullTracer, PrefixedTracer, TraceRecord, Tracer

__all__ = [
    "HISTOGRAM_QUANTILES",
    "NULL_TRACER",
    "QUANTILE_DECIMALS",
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "BurnRateRule",
    "Counter",
    "Gauge",
    "Histogram",
    "HostSaturationRule",
    "LazySeries",
    "Metric",
    "MetricsRegistry",
    "NullTracer",
    "PartedSeries",
    "PrefixedTracer",
    "QueueSaturationRule",
    "SamplingConfig",
    "SamplingTracer",
    "StreamingQuantile",
    "ThresholdRule",
    "TimeSeriesRegistry",
    "TraceRecord",
    "Tracer",
    "WatchRenderer",
    "WindowSpan",
    "alerts_snapshot",
    "chrome_trace",
    "chrome_trace_json",
    "default_alert_rules",
    "ordered_sum",
    "parse_alert_rules",
    "parse_sampling_spec",
    "per_host_alert_rules",
    "percentile",
    "percentiles",
    "quantiles_reference",
    "validate_chrome_trace",
    "write_chrome_trace",
]
