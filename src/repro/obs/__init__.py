"""Unified observability: tracing, metrics, and profiling (`repro.obs`).

One subsystem, four pieces, one switch (``REPRO_OBS=1`` or the
:func:`~repro.obs.spans.recording` context manager):

* :mod:`repro.obs.spans` — nested, attributed **spans** over the real
  phases of the library (analyze / factor / solve, the parallel driver,
  the serving layer) with a process-wide recorder that is ~zero-cost when
  disabled, and :func:`~repro.obs.spans.timed` for phases whose duration
  is a value; the only library code that reads the host clock;
* :mod:`repro.obs.metrics` — **counters, gauges, fixed-bucket
  histograms** with snapshot/delta semantics (a serving
  ``SolverService.metrics`` is one of these registries);
* :mod:`repro.obs.export` — **exporters**: Chrome trace-event / Perfetto
  JSON merging host spans with simulated per-rank timelines, Prometheus
  text exposition, human tables;
* :mod:`repro.obs.profile` — per-supernode **flop/byte profiling** in the
  numeric kernels, rolled up into hottest-fronts tables and a
  measured-vs-modeled GFLOPS comparison against the machine model.

Driven end-to-end by ``python -m repro.cli obs``.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    prometheus_text,
    render_phase_table,
    report,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_trace_events,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.profile import (
    FrontProfile,
    FrontRecord,
    active_profile,
    gflops_comparison,
    render_gflops_comparison,
    render_top_fronts,
)
from repro.obs.spans import (
    ExecTaskEvent,
    Span,
    SpanRecorder,
    current_recorder,
    disable,
    enable,
    obs_enabled,
    recording,
    span,
    timed,
)

__all__ = [
    "ExecTaskEvent",
    "Span",
    "SpanRecorder",
    "span",
    "timed",
    "enable",
    "disable",
    "recording",
    "obs_enabled",
    "current_recorder",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "FrontProfile",
    "FrontRecord",
    "active_profile",
    "render_top_fronts",
    "gflops_comparison",
    "render_gflops_comparison",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_trace_events",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "prometheus_text",
    "write_prometheus",
    "render_phase_table",
    "report",
]
