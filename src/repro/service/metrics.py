"""Service observability: a compatibility shim over :mod:`repro.obs.metrics`.

Counters track discrete events (jobs submitted/completed/failed, cache
hits, retries, degradations, batches); histograms track per-phase wall
time (queue wait, analyze, plan, factor, solve, end-to-end). The numbers
now live in a :class:`~repro.obs.metrics.MetricsRegistry`, so the serving
layer shares one metrics vocabulary with the rest of the observability
stack (Prometheus exposition, snapshot/delta, ``repro.cli obs``). Each
latency is recorded twice on purpose: an all-sample
:class:`~repro.obs.metrics.SampleHistogram` keeps the exact percentiles
the text report prints, and the registry's fixed-bucket histogram feeds
the exporters.

The public surface (``inc`` / ``observe`` / ``counter`` / ``summaries`` /
``report``) is unchanged from the pre-shim class.

The registry side is thread-safe on its own (see
:mod:`repro.obs.metrics`); the shim adds one mutex of its own around the
all-sample histograms, whose get-or-create dict and sorted-insert
recorder would otherwise race under the serving fleet's workers.
"""

from __future__ import annotations

from repro.analysis.report import (
    LatencySummary,
    render_counter_table,
    render_latency_table,
)
from repro.exec.pool import make_lock
from repro.obs.metrics import MetricsRegistry, SampleHistogram
from repro.service.cache import CacheStats
from repro.util.tables import format_table


class ServiceMetrics:
    """Counter + histogram registry of one :class:`SolverService`."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.histograms: dict[str, SampleHistogram] = {}
        self._lock = make_lock()

    @property
    def counters(self) -> dict[str, int]:
        """Counter readings (shim view over the registry)."""
        return {
            name: int(value)
            for name, value in self.registry.counter_values().items()
        }

    def inc(self, name: str, by: int = 1) -> None:
        self.registry.inc(name, by)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = SampleHistogram()
            hist.observe(seconds)
        self.registry.observe(name, seconds)

    def counter(self, name: str) -> int:
        return int(self.registry.counter_value(name))

    def summaries(self) -> dict[str, LatencySummary]:
        with self._lock:
            items = list(self.histograms.items())
        return {name: h.summary() for name, h in items}

    def report(self, cache_stats: CacheStats | None = None) -> str:
        """Full plain-text metrics report (counters, cache, latencies)."""
        parts = [render_counter_table(self.counters, title="service counters")]
        if cache_stats is not None:
            parts.append(
                format_table(
                    ["hits", "misses", "hit rate", "inserts", "evictions"],
                    [
                        [
                            cache_stats.hits,
                            cache_stats.misses,
                            round(cache_stats.hit_rate, 3),
                            cache_stats.inserts,
                            cache_stats.evictions,
                        ]
                    ],
                    title="analysis cache",
                )
            )
        if self.histograms:
            parts.append(
                render_latency_table(self.summaries(), title="phase latency")
            )
        return "\n\n".join(parts)
