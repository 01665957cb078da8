"""Unified observability: tracing, metrics, and front reports (`repro.obs`).

One subsystem, three pieces, one switch (``REPRO_OBS=1`` or the
:func:`~repro.obs.spans.recording` context manager):

* :mod:`repro.obs.spans` — nested, attributed **spans**, the one host
  record: the real phases of the library (analyze / factor / solve, the
  parallel driver, the serving layer), every front's dense partial
  factorization (``mf.front``) and every worker-pool task
  (``exec.<kind>``), with a process-wide recorder that is ~zero-cost when
  disabled, and :func:`~repro.obs.spans.timed` for phases whose duration
  is a value; the only library code that reads the host clock;
* :mod:`repro.obs.metrics` — **counters, gauges, fixed-bucket
  histograms** with consistent snapshots (a serving
  ``SolverService.metrics`` is one of these registries);
* :mod:`repro.obs.export` — **exporters and reports**: Chrome
  trace-event / Perfetto JSON merging host spans with simulated per-rank
  timelines, Prometheus text exposition, the phase table, and the
  hottest-fronts and measured-vs-modeled GFLOPS tables over the
  ``mf.front`` spans.

Driven end-to-end by ``python -m repro.cli obs``.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    gflops_comparison,
    hottest_fronts,
    prometheus_text,
    render_gflops_comparison,
    render_phase_table,
    render_top_fronts,
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
from repro.obs.spans import (
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
    "hottest_fronts",
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
