"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the numeric side of the observability layer: discrete
events (jobs, cache hits, retries), level readings (queue depth, resident
entries), and distributions (front size, per-supernode flops, queue wait,
phase latency). A :class:`Histogram` keeps fixed upper-bound buckets
with ``sum``/``count``: constant memory however long the process serves,
cheap to record, exportable to the Prometheus text format
(:func:`repro.obs.export.prometheus_text`), and its percentiles are read
at bucket resolution (:meth:`HistogramSnapshot.quantile_bound`).

Snapshots are immutable, consistent copies of the instruments; the text
report and the Prometheus exporter read them.

A :class:`~repro.service.queue.SolverService` stores all its metrics in
one of these registries (``svc.metrics``).

Thread safety: a registry may be written concurrently by the serving
fleet's workers and by the execution backend's pool telemetry. Every
instrument a registry creates shares the registry's mutex (obtained from
:func:`repro.exec.pool.make_lock`, the audited constructor — lint rule
RP010), so ``inc``/``observe``/``set`` are atomic read-modify-write
updates and :meth:`MetricsRegistry.snapshot` is a consistent cut. A
standalone instrument (constructed directly, not via a registry) carries
no lock at all.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
]

#: log-spaced seconds buckets covering 100 µs .. 10 s (plus +Inf)
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


class Counter:
    """Monotone event counter.

    *lock* (a registry-shared mutex) makes ``inc`` atomic under
    concurrent writers; ``None`` (the default for standalone use) keeps
    the update lock-free.
    """

    __slots__ = ("name", "value", "lock")

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        #: stays an int while every increment is an int
        self.value: float = 0
        self.lock = lock

    def inc(self, by: float = 1) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        if self.lock is None:
            self.value += by
        else:
            with self.lock:
                self.value += by


class Gauge:
    """Last-written level reading."""

    __slots__ = ("name", "value", "lock")

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        self.value = 0.0
        self.lock = lock

    def set(self, value: float) -> None:
        # A plain store is atomic; no lock needed for last-writer-wins.
        self.value = float(value)

    def inc(self, by: float = 1.0) -> None:
        if self.lock is None:
            self.value += by
        else:
            with self.lock:
                self.value += by


class Histogram:
    """Fixed-bucket distribution (cumulative counts, Prometheus-shaped).

    ``buckets`` are ascending upper bounds; an implicit +Inf bucket
    catches the tail. ``counts[i]`` is the number of samples ≤
    ``buckets[i]`` boundaries — stored per-bucket here, cumulated at
    export time.
    """

    __slots__ = ("name", "uppers", "counts", "sum", "count", "lock")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        lock=None,
    ) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers or any(
            b >= a for a, b in zip(uppers[1:], uppers[:-1])
        ):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.uppers = uppers
        self.counts = [0] * (len(uppers) + 1)  # final slot = +Inf
        self.sum = 0.0
        self.count = 0
        self.lock = lock

    def observe(self, value: float) -> None:
        v = float(value)
        if self.lock is None:
            self._observe(v)
        else:
            with self.lock:
                self._observe(v)

    def _observe(self, v: float) -> None:
        self.counts[bisect_left(self.uppers, v)] += 1
        self.sum += v
        self.count += 1

    def snapshot(self) -> "HistogramSnapshot":
        if self.lock is None:
            return self._snapshot()
        with self.lock:
            return self._snapshot()

    def _snapshot(self) -> "HistogramSnapshot":
        return HistogramSnapshot(
            uppers=self.uppers,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable copy of one histogram's state."""

    uppers: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def cumulative(self) -> tuple[int, ...]:
        """Prometheus-style running totals, one per bucket plus +Inf."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return tuple(out)

    def quantile_bound(self, q: float) -> float:
        """Upper bound of the bucket holding the nearest-rank *q* quantile.

        *q* is in (0, 1]. ``inf`` when that sample fell in the +Inf
        bucket; 0 for an empty histogram.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        for upper, running in zip(self.uppers + (math.inf,), self.cumulative()):
            if running >= rank:
                return upper
        return math.inf


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time copy of a registry."""

    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    histograms: Mapping[str, HistogramSnapshot]


class MetricsRegistry:
    """Named counters, gauges, and histograms (get-or-create access).

    Safe for concurrent writers: one registry-wide mutex (constructed via
    the audited :func:`repro.exec.pool.make_lock`) is shared by every
    instrument the registry creates, making updates atomic and snapshots
    consistent.
    """

    def __init__(self) -> None:
        # Lazy import: repro.exec.pool pulls in repro.obs.spans/profile at
        # module import time; binding at first-registry construction keeps
        # the package import graph acyclic.
        from repro.exec.pool import make_lock

        self._lock = make_lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, lock=self._lock)
            return g

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    name, buckets, lock=self._lock
                )
            return h

    # -- recording shorthands ------------------------------------------------

    def inc(self, name: str, by: float = 1) -> None:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, lock=self._lock)
        c.inc(by)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.histogram(name, buckets).observe(value)

    # -- introspection -------------------------------------------------------

    def counter(self, name: str) -> float:
        """Reading of counter *name* (0 if it never counted)."""
        with self._lock:
            c = self._counters.get(name)
            return c.value if c is not None else 0

    def counter_values(self) -> dict[str, float]:
        with self._lock:
            return {name: c.value for name, c in sorted(self._counters.items())}

    def gauge_values(self) -> dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> MetricsSnapshot:
        # Copy the instrument dict under the lock, then let each
        # histogram snapshot itself (it takes the shared lock per call;
        # holding it across the loop would self-deadlock).
        hists = self.histograms()
        return MetricsSnapshot(
            counters=self.counter_values(),
            gauges=self.gauge_values(),
            histograms={
                name: h.snapshot() for name, h in sorted(hists.items())
            },
        )

    def report(self, title: str = "metrics") -> str:
        """Plain-text table report in the repo's format."""
        from repro.util.tables import format_table

        snap = self.snapshot()
        rows: list[list] = []
        for name, value in snap.counters.items():
            rows.append([name, "counter", round(value, 6), ""])
        for name, value in snap.gauges.items():
            rows.append([name, "gauge", round(value, 6), ""])
        for name, h in snap.histograms.items():
            mean = h.sum / h.count if h.count else 0.0
            rows.append([
                name,
                "histogram",
                h.count,
                f"mean={mean:.6g} p50<={h.quantile_bound(0.5):.6g} "
                f"p95<={h.quantile_bound(0.95):.6g}",
            ])
        return format_table(["metric", "kind", "value", "detail"], rows, title=title)
