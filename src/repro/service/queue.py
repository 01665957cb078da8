"""Deadline/priority job queue + the dispatch loop: ``SolverService``.

The service is the serving layer's front door. Callers ``submit()`` solve
requests (matrix + right-hand sides + priority/deadline/timeout/tenant)
and ``drain()`` runs the dispatch loop: take the most urgent pending job,
coalesce every other pending job with the *same pattern and values* into
one blocked multi-RHS solve (amortizing both the numeric factorization and
the latency-bound solve sweeps), drop jobs whose deadline has passed, and
hand the batch to the :class:`~repro.service.executor.Executor`.

Two dispatch modes run the same poll and complete steps:

* **single executor** (``fleet_workers=1``, the default) — in turn on the
  calling thread; deterministic given a deterministic clock.
* **fleet** (``fleet_workers>1``) — N worker threads (a
  :class:`repro.exec.fleet.FleetCrew`) pull batches concurrently from the
  same queue. The analysis cache is sharded by pattern-fingerprint hash
  (:class:`~repro.service.cache.ShardedAnalysisCache`), and batches with
  the same fingerprint are never in flight simultaneously, so each job's
  results stay **bitwise identical** to the single-executor run — only
  wall-clock timings and queue waits differ.

Scheduling is earliest-deadline-first: the earliest deadline wins,
priority breaks deadline ties, jobs without deadlines sort behind any
deadline and among themselves by priority; submission order breaks all
remaining ties (FIFO).

Admission control rejects work *at submit time* with a typed
:class:`~repro.util.errors.AdmissionError`: ``max_pending`` bounds the
whole queue (backpressure), ``tenant_quota`` bounds one tenant's pending
jobs. Rejected requests are counted, never enqueued.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.solver import as_symmetric_lower
from repro.exec.fleet import RUN, STOP, WAIT, FleetCrew, FleetDirective
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span
from repro.ordering import get_ordering
from repro.service.cache import ShardedAnalysisCache
from repro.service.executor import Executor, Requeue
from repro.service.fingerprint import pattern_fingerprint, values_digest
from repro.service.jobs import EXPIRED, JobResult, SolveJob
from repro.util.errors import AdmissionError, ReproError, ShapeError
from repro.util.tables import format_table
from repro.util.validation import as_float_array, work_dtype


class _Entry:
    """One queued job plus its lazy-deletion flag.

    Entries live in up to three heaps at once (the ready heap, the
    per-batch-key heap, the parked heap); claiming marks the entry and
    every heap skips claimed entries on pop instead of searching.
    """

    __slots__ = ("job", "claimed")

    def __init__(self, job: SolveJob) -> None:
        self.job = job
        self.claimed = False


class JobQueue:
    """Deadline/priority-ordered pending jobs with O(log n) push/pop.

    A binary heap keyed ``(order_key, seq)`` replaces the historical
    sort-the-whole-list-per-pop (O(n log n) *per batch*); a secondary
    per-``batch_key`` heap serves coalescing candidates in the same
    global order, preserving the documented FIFO no-inversion contract:
    coalescing stops at the first same-key job that does not fit the
    ``max_rhs`` budget — skipping it while admitting later-submitted
    same-key jobs would let them jump the queue at equal rank.

    Jobs with ``not_before`` set (retry backoff parks) wait in a separate
    heap keyed by wake time and only become dispatchable once
    ``pop_batch`` is called with a ``now`` at or past it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, int, _Entry]] = []
        self._by_key: dict[tuple, list[tuple[tuple, int, _Entry]]] = {}
        self._parked: list[tuple[float, int, _Entry]] = []
        self._tenant_pending: dict[str, int] = {}
        self._seq = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def tenant_pending(self, tenant: str) -> int:
        """Pending (queued, not yet dispatched) jobs of *tenant*."""
        return self._tenant_pending.get(tenant, 0)

    @staticmethod
    def order_key(job: SolveJob) -> tuple:
        """The ordering key (smaller dispatches first): ``(deadline,
        priority)`` with no-deadline treated as +inf — the earliest
        deadline wins outright and priority only breaks deadline ties.
        """
        deadline = job.deadline if job.deadline is not None else math.inf
        return (deadline, job.priority)

    def push(self, job: SolveJob) -> None:
        """Enqueue *job* (parked when its ``not_before`` is set)."""
        entry = _Entry(job)
        seq = self._seq
        self._seq += 1
        self._n += 1
        self._tenant_pending[job.tenant] = (
            self._tenant_pending.get(job.tenant, 0) + 1
        )
        if job.not_before is not None:
            heapq.heappush(self._parked, (job.not_before, seq, entry))
        else:
            self._ready_push(seq, entry)

    def _ready_push(self, seq: int, entry: _Entry) -> None:
        key = self.order_key(entry.job)
        item = (key, seq, entry)
        heapq.heappush(self._heap, item)
        heapq.heappush(self._by_key.setdefault(entry.job.batch_key(), []), item)

    def _admit_due(self, now: float) -> None:
        """Move parked jobs whose wake time has arrived to the ready heap."""
        while self._parked and self._parked[0][0] <= now:
            _, _, entry = heapq.heappop(self._parked)
            if entry.claimed:
                continue
            seq = self._seq
            self._seq += 1
            self._ready_push(seq, entry)

    def next_ready_at(self) -> float | None:
        """Earliest wake time among parked jobs (None when none parked)."""
        while self._parked and self._parked[0][2].claimed:
            heapq.heappop(self._parked)
        return self._parked[0][0] if self._parked else None

    def _claim(self, entry: _Entry) -> None:
        entry.claimed = True
        self._n -= 1
        tenant = entry.job.tenant
        left = self._tenant_pending.get(tenant, 0) - 1
        if left > 0:
            self._tenant_pending[tenant] = left
        else:
            self._tenant_pending.pop(tenant, None)

    def pop_batch(
        self,
        coalesce: bool = True,
        max_rhs: int | None = None,
        now: float | None = None,
        exclude: set | None = None,
    ) -> list[SolveJob]:
        """Pop the most urgent ready job plus (optionally) every pending
        job sharing its pattern+values+method+precision, bounded by
        *max_rhs* columns.

        *now* admits parked retries whose backoff expired. *exclude* is a
        set of fingerprint keys currently in flight (fleet mode): jobs on
        those patterns are skipped — not popped — so two workers never
        mutate one cached analysis concurrently. Returns ``[]`` when
        nothing is dispatchable (everything parked or excluded).

        Coalescing stops at the first same-key job that does not fit the
        *max_rhs* budget: skipping it while still admitting
        later-submitted same-key jobs would let them jump the queue at
        equal rank (FIFO inversion). The non-fitting job keeps its place
        and heads a later batch instead.
        """
        if now is not None:
            self._admit_due(now)
        deferred = []
        head: _Entry | None = None
        while self._heap:
            item = heapq.heappop(self._heap)
            entry = item[2]
            if entry.claimed:
                continue  # lazily dropped (claimed via the by-key heap)
            if exclude and entry.job.fingerprint.key in exclude:
                deferred.append(item)
                continue
            head = entry
            break
        for item in deferred:
            heapq.heappush(self._heap, item)
        if head is None:
            return []
        self._claim(head)
        batch = [head.job]
        key = head.job.batch_key()
        if coalesce:
            total = head.job.n_rhs
            kheap = self._by_key.get(key, [])
            while kheap:
                entry = kheap[0][2]
                if entry.claimed:
                    heapq.heappop(kheap)
                    continue
                if max_rhs is not None and total + entry.job.n_rhs > max_rhs:
                    break  # key closed: the non-fitting job keeps its place
                heapq.heappop(kheap)
                self._claim(entry)
                batch.append(entry.job)
                total += entry.job.n_rhs
        kheap = self._by_key.get(key)
        if kheap is not None and not kheap:
            del self._by_key[key]
        return batch


@dataclass(frozen=True)
class ServiceConfig:
    """Policy knobs of one :class:`SolverService`."""

    #: analysis cache slots (distinct sparsity patterns held, all shards)
    cache_capacity: int = 32
    #: disable to force a cold analyze per request (benchmarks ablate this)
    cache_enabled: bool = True
    #: coalesce same-pattern+values requests into blocked multi-RHS solves
    coalesce: bool = True
    #: max right-hand-side columns per coalesced batch
    max_batch_rhs: int = 32
    #: fill-reducing ordering (registry name) of fresh analyses
    ordering: str = "nd"
    #: additional attempts after the first failure
    max_retries: int = 2
    #: base backoff in seconds; doubles per retry
    retry_backoff: float = 0.01
    #: iterative refinement on the solve path
    refine: bool = False
    #: default working precision of numeric factors ("fp64" or "fp32");
    #: per-request override via ``submit(precision=...)``. fp32 batches
    #: always run iterative refinement and fall back to an fp64 re-factor
    #: when refinement stalls (counted in service_precision_fallback_total)
    precision: str = "fp64"
    #: serving worker slots draining the queue concurrently (1 = the
    #: classic synchronous single-executor loop)
    fleet_workers: int = 1
    #: analysis-cache shards (pattern-fingerprint hash)
    shards: int = 1
    #: admission control: max pending jobs queue-wide (None = unbounded)
    max_pending: int | None = None
    #: admission control: max pending jobs per tenant (None = no quotas)
    tenant_quota: int | None = None


class SolverService:
    """Solver-as-a-service: submit/drain with analysis reuse and batching.

    The config is checked here, before any job is accepted: a worker,
    batch, cache, queue or quota size below one, a negative retry count or
    backoff, or an unknown precision raises
    :class:`~repro.util.errors.ShapeError`; an unknown ordering name
    :class:`~repro.util.errors.OrderingError`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.config = config = config or ServiceConfig()
        for name, floor in (
            ("fleet_workers", 1), ("max_batch_rhs", 1), ("cache_capacity", 1),
            ("max_pending", 1), ("tenant_quota", 1), ("max_retries", 0),
        ):
            value = getattr(config, name)
            if value is not None and value < floor:
                raise ShapeError(f"{name} must be >= {floor}; got {value}")
        if not config.retry_backoff >= 0:  # NaN fails too
            raise ShapeError(f"retry_backoff must be >= 0; got {config.retry_backoff}")
        work_dtype(config.precision)  # an unknown name raises ShapeError
        get_ordering(config.ordering)  # an unknown name raises OrderingError
        self.metrics = MetricsRegistry()
        self.cache = ShardedAnalysisCache(config.cache_capacity, shards=config.shards)
        self.queue = JobQueue()
        self.executor = Executor(self.cache, self.metrics, config, clock=clock)
        self.results: dict[int, JobResult] = {}
        self._clock = clock
        self._sleep = sleep
        self._next_id = 0

    # -- request intake ------------------------------------------------------

    def submit(
        self,
        a,
        b,
        method: str = "cholesky",
        priority: int = 0,
        deadline: float | None = None,
        timeout: float | None = None,
        precision: str | None = None,
        tenant: str = "default",
    ) -> int:
        """Enqueue one solve request; returns its job id.

        *a* is a full symmetric or lower-triangular :class:`CSCMatrix`;
        *b* has shape ``(n,)`` or ``(n, k)``. *deadline* is absolute on the
        service clock (see :meth:`now`); *timeout* is a wall-second budget
        once execution starts. *precision* overrides the service-wide
        default (:attr:`ServiceConfig.precision`) for this request.
        *tenant* names the submitter for per-tenant quota accounting.

        Raises :class:`~repro.util.errors.AdmissionError` (never
        enqueueing) when the bounded queue is full or the tenant is at
        its pending-job quota, and :class:`~repro.util.errors.ShapeError`
        for a *method* other than ``"cholesky"`` or ``"ldlt"``.
        """
        self._admit(tenant)
        if precision is None:
            precision = self.config.precision
        work_dtype(precision)  # validate the names before enqueueing
        if method not in ("cholesky", "ldlt"):
            raise ShapeError(f"unknown method {method!r}; use 'cholesky' or 'ldlt'")
        lower = as_symmetric_lower(a)
        b = as_float_array(b, "b")
        n = lower.shape[0]
        if b.ndim > 2 or b.shape[0] != n or (b.ndim == 2 and b.shape[1] == 0):
            raise ShapeError(
                f"b must have shape ({n},) or ({n}, k) with k >= 1; got {b.shape}"
            )
        squeeze = b.ndim == 1
        job = SolveJob(
            job_id=self._next_id,
            lower=lower,
            b=b[:, None] if squeeze else np.asarray(b),
            fingerprint=pattern_fingerprint(lower),
            values_key=values_digest(lower),
            method=method,
            priority=priority,
            deadline=deadline,
            timeout=timeout,
            submitted_at=self._clock(),
            squeeze=squeeze,
            precision=precision,
            tenant=tenant,
        )
        self._next_id += 1
        self.queue.push(job)
        self.metrics.inc("jobs_submitted")
        return job.job_id

    def _admit(self, tenant: str) -> None:
        """Admission control: reject (typed, counted) instead of enqueue."""
        limit = self.config.max_pending
        if limit is not None and len(self.queue) >= limit:
            self.metrics.inc("service_admission_rejected_total")
            self.metrics.inc("service_admission_rejected_backpressure_total")
            raise AdmissionError(
                f"queue full: {len(self.queue)} pending >= max_pending="
                f"{limit}; back off and resubmit",
                reason="backpressure",
            )
        quota = self.config.tenant_quota
        if quota is not None and self.queue.tenant_pending(tenant) >= quota:
            self.metrics.inc("service_admission_rejected_total")
            self.metrics.inc("service_admission_rejected_quota_total")
            raise AdmissionError(
                f"tenant {tenant!r} is at its pending-job quota ({quota})",
                reason="quota",
            )

    def now(self) -> float:
        """Current service-clock time (the reference for deadlines)."""
        return self._clock()

    # -- dispatch loop -------------------------------------------------------

    def drain(self) -> dict[int, JobResult]:
        """Process every pending job; returns results keyed by job id.

        A fleet's crew calls :meth:`_poll` and :meth:`_complete` under its
        lock and executes batches concurrently. At most one batch per
        pattern fingerprint is in flight, so workers never touch the same
        cached analysis: fleet results stay bitwise identical to one
        worker's, per job.
        """
        processed: dict[int, JobResult] = {}
        inflight: set = set()
        workers = self.config.fleet_workers
        with span("service.drain", pending=len(self.queue), workers=workers):
            if workers > 1:
                FleetCrew(workers, name="service-fleet").serve(
                    lambda wid: self._poll(self._clock(), inflight, processed),
                    lambda wid, item: self.executor.execute(item[0]),
                    lambda wid, item, outcome: self._complete(
                        item, outcome, inflight, processed
                    ),
                )
            else:
                floor = 0.0  # logical time reached by sleeping to a park's wake
                while True:
                    now = max(self._clock(), floor)
                    directive = self._poll(now, inflight, processed)
                    if directive.kind == RUN:
                        item = directive.item
                        outcome = self.executor.execute(item[0])
                        self._complete(item, outcome, inflight, processed)
                    elif directive.kind == STOP:
                        break
                    elif directive.timeout is None:
                        raise ReproError("job queue stalled: pending jobs but none ready")
                    else:
                        # Only parked retries remain: sleep to the earliest
                        # wake. Injected clocks (tests, simulations) may not
                        # advance on an injected sleep; the wake time has
                        # logically passed either way.
                        self._sleep(directive.timeout)
                        floor = now + directive.timeout
        self.results.update(processed)
        return processed

    def _poll(
        self, now: float, inflight: set, processed: dict[int, JobResult]
    ) -> FleetDirective:
        """The next dispatch decision at *now*.

        Pops batches, skipping fingerprints in *inflight* and recording
        expired jobs in *processed*, until one has live jobs: ``RUN`` it
        (item ``(live, now)``) and mark its fingerprint in flight. Else
        ``STOP`` when nothing is pending or in flight, or ``WAIT`` until
        the earliest parked retry (``timeout=None``: until a batch in
        flight completes).
        """
        while True:
            batch = self.queue.pop_batch(
                coalesce=self.config.coalesce,
                max_rhs=self.config.max_batch_rhs,
                now=now,
                exclude=inflight,
            )
            if not batch:
                break
            live = self._expire(batch, now, processed)
            if not live:
                continue
            self.metrics.inc("batches")
            if len(live) > 1:
                self.metrics.inc("coalesced_jobs", len(live) - 1)
            inflight.add(live[0].fingerprint.key)
            return FleetDirective(RUN, item=(live, now))
        if not len(self.queue) and not inflight:
            return FleetDirective(STOP)
        wake = self.queue.next_ready_at()
        timeout = max(wake - now, 0.0) if wake is not None else None
        return FleetDirective(WAIT, timeout=timeout)

    def _complete(
        self,
        item: tuple[list[SolveJob], float],
        outcome: list[JobResult] | Requeue,
        inflight: set,
        processed: dict[int, JobResult],
    ) -> None:
        """Release the batch's fingerprint, then park its retry or record
        its results (queue wait measured to its dispatch time)."""
        live, dispatched = item
        inflight.discard(live[0].fingerprint.key)
        if isinstance(outcome, Requeue):
            self._requeue(outcome)
        else:
            self._record(live, outcome, dispatched, processed)

    # -- shared dispatch bookkeeping -----------------------------------------

    def _expire(
        self,
        batch: list[SolveJob],
        now: float,
        processed: dict[int, JobResult],
    ) -> list[SolveJob]:
        """Drop batch members whose deadline passed; returns the live rest."""
        live = []
        for job in batch:
            if job.deadline is not None and now > job.deadline:
                self.metrics.inc("jobs_expired")
                self.metrics.inc("service_deadline_jobs_total")
                self.metrics.inc("service_deadline_missed_total")
                processed[job.job_id] = JobResult(
                    job_id=job.job_id,
                    status=EXPIRED,
                    queue_wait=now - job.submitted_at,
                    error="deadline passed before dispatch",
                )
            else:
                live.append(job)
        return live

    def _requeue(self, rq: Requeue) -> None:
        """Park a retry batch until its backoff expires (non-blocking)."""
        for job in rq.jobs:
            self.queue.push(job)

    def _record(
        self,
        live: list[SolveJob],
        results: list[JobResult],
        dispatched: float,
        processed: dict[int, JobResult],
    ) -> None:
        done = self._clock()
        for job, res in zip(live, results):
            res.queue_wait = dispatched - job.submitted_at
            self.metrics.observe("queue_wait", res.queue_wait)
            for phase, seconds in res.timings.items():
                self.metrics.observe(phase, seconds)
            self.metrics.inc(f"jobs_{res.status}")
            if res.cache_hit:
                self.metrics.inc("cache_hit_jobs")
            if job.deadline is not None:
                self.metrics.inc("service_deadline_jobs_total")
                if done > job.deadline:
                    # Completed, but past its SLO: a deadline miss too.
                    self.metrics.inc("service_deadline_missed_total")
            processed[job.job_id] = res

    def solve(self, a, b, **kwargs) -> JobResult:
        """Convenience: submit one request and drain the queue."""
        job_id = self.submit(a, b, **kwargs)
        return self.drain()[job_id]

    # -- observability -------------------------------------------------------

    @property
    def deadline_miss_ratio(self) -> float:
        """Fraction of deadline-carrying terminal jobs that missed it."""
        jobs = self.metrics.counter("service_deadline_jobs_total")
        missed = self.metrics.counter("service_deadline_missed_total")
        return missed / jobs if jobs else 0.0

    def metrics_report(self) -> str:
        """Plain-text metrics report: the registry (counters, gauges,
        latency histograms) plus the analysis-cache table."""
        parts = [self.metrics.report(title="service metrics")]
        if self.config.cache_enabled:
            st = self.cache.stats
            parts.append(
                format_table(
                    ["hits", "misses", "hit rate", "inserts", "evictions"],
                    [[st.hits, st.misses, round(st.hit_rate, 3), st.inserts,
                      st.evictions]],
                    title="analysis cache",
                )
            )
        return "\n\n".join(parts)
