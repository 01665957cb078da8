"""The job model of the serving layer.

A *job* is one solve request: a symmetric matrix (full or lower triangle),
one or more right-hand sides, and scheduling attributes (priority,
deadline, per-job timeout). The dispatch loop may coalesce several jobs
that share a pattern *and* values into one blocked multi-RHS solve; the
per-job identity is kept so each submitter gets its own result back.

All times are seconds on the service clock (``time.monotonic`` unless a
test injects its own).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.service.fingerprint import PatternFingerprint
from repro.sparse.csc import CSCMatrix

# Job lifecycle states.
PENDING = "pending"
COMPLETED = "completed"
FAILED = "failed"
EXPIRED = "expired"  # deadline passed before dispatch
TIMED_OUT = "timed-out"  # per-job wall budget exhausted mid-execution

TERMINAL_STATES = (COMPLETED, FAILED, EXPIRED, TIMED_OUT)


@dataclass
class SolveJob:
    """One solve request as tracked by the queue."""

    job_id: int
    #: lower triangle of the (canonicalized) matrix
    lower: CSCMatrix
    #: right-hand sides, shape ``(n, k)`` (a single RHS is stored as k=1)
    b: np.ndarray
    fingerprint: PatternFingerprint
    values_key: str
    method: str = "cholesky"
    #: smaller = more urgent
    priority: int = 0
    #: absolute service-clock time after which the job is dropped undone
    deadline: float | None = None
    #: wall-second budget once execution starts (checked between attempts)
    timeout: float | None = None
    #: service-clock time of submission (queue-wait measurement)
    submitted_at: float = 0.0
    #: True when the caller passed a 1-D right-hand side
    squeeze: bool = False
    #: requested working precision of the numeric factor ("fp64"/"fp32")
    precision: str = "fp64"
    #: submitting tenant (admission quotas are per tenant)
    tenant: str = "default"
    #: retry attempts already burned across requeues (the executor resumes
    #: the backoff ladder here instead of restarting it)
    attempts: int = 0
    #: service-clock time before which the queue must not dispatch this job
    #: (set by the executor's retry requeue — the non-blocking backoff)
    not_before: float | None = None
    #: service-clock time the first execution attempt started; the per-job
    #: wall budget (``timeout``) is measured from here across requeues
    first_started_at: float | None = None
    #: formatted error of the most recent failed attempt (requeued jobs
    #: that later exhaust their budget report this as the cause)
    last_error: str | None = None

    @property
    def n_rhs(self) -> int:
        return int(self.b.shape[1])

    def batch_key(self) -> tuple:
        """Jobs with equal batch keys may run as one blocked solve.

        Precision is part of the key: an fp32 and an fp64 request against
        the same values need different numeric factors, so they cannot
        share a batch.
        """
        return (self.fingerprint.key, self.values_key, self.method, self.precision)


@dataclass
class JobResult:
    """Outcome of one job, terminal state included."""

    job_id: int
    status: str
    #: solution, shape matching the submitted ``b`` (None unless completed)
    x: np.ndarray | None = None
    #: worst normwise backward error ``‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)``
    #: over this job's right-hand sides, refined or not
    residual: float | None = None
    #: attempts beyond the first
    retries: int = 0
    cache_hit: bool = False
    #: number of RHS columns in the blocked solve this job rode in
    batched_rhs: int = 1
    #: seconds from submit to dispatch
    queue_wait: float = 0.0
    #: per-phase wall seconds (analyze / values_update / factor / solve)
    timings: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    #: working precision that actually produced ``x`` — "fp64" after an
    #: automatic fp32→fp64 fallback, even for an fp32 request
    precision: str = "fp64"

    @property
    def ok(self) -> bool:
        return self.status == COMPLETED
