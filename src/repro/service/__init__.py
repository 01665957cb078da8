"""Serving layer: `SparseSolver` as a servable engine.

The paper's application workflow — nonlinear/transient finite-element
runs — is repeated numeric factorization on a fixed sparsity pattern.
This package turns that into a request-level service:

* :mod:`repro.service.fingerprint` — canonical sparsity-pattern
  fingerprints (the analysis-cache key);
* :mod:`repro.service.cache` — bounded LRU cache of completed analyses
  (ordering + symbolic) with hit/miss/eviction stats;
* :mod:`repro.service.jobs` / :mod:`repro.service.queue` — the job model
  and the synchronous dispatch loop with priority ordering, deadlines,
  and same-pattern request coalescing into blocked multi-RHS solves;
* :mod:`repro.service.executor` — the worker: cached-analysis reuse via
  the ``refactor`` path on the sequential host engine, per-job timeouts,
  bounded retry with backoff, and an fp32 → fp64 re-factor when a
  reduced-precision batch fails;
* metrics — ``SolverService.metrics`` is a
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  latency histograms; ``SolverService.metrics_report()`` renders it with
  the cache table (``repro.cli serve-sim`` prints it).
"""

from repro.service.cache import (
    AnalysisCache,
    AnalysisEntry,
    CacheStats,
    ShardedAnalysisCache,
)
from repro.service.executor import Executor, Requeue
from repro.util.errors import AdmissionError
from repro.service.fingerprint import (
    PatternFingerprint,
    pattern_fingerprint,
    values_digest,
)
from repro.service.jobs import (
    COMPLETED,
    EXPIRED,
    FAILED,
    PENDING,
    TIMED_OUT,
    JobResult,
    SolveJob,
)
from repro.service.queue import JobQueue, ServiceConfig, SolverService

__all__ = [
    "AdmissionError",
    "AnalysisCache",
    "AnalysisEntry",
    "CacheStats",
    "ShardedAnalysisCache",
    "Executor",
    "Requeue",
    "PatternFingerprint",
    "pattern_fingerprint",
    "values_digest",
    "COMPLETED",
    "EXPIRED",
    "FAILED",
    "PENDING",
    "TIMED_OUT",
    "JobResult",
    "SolveJob",
    "JobQueue",
    "ServiceConfig",
    "SolverService",
]
