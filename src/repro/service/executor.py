"""The worker: executes one coalesced batch of solve jobs.

Execution pipeline per batch (all jobs in a batch share pattern, values,
and method):

1. **analysis** — cache lookup by pattern fingerprint; a hit installs the
   new values on the cached analysis (``SparseSolver.update_values``, the
   refactor path) and skips ordering and symbolic analysis entirely; a
   miss runs ``analyze()`` and populates the cache;
2. **numeric factor + solve** — on the sequential host engine: one numeric
   factor and one blocked multi-RHS solve for the whole batch;
3. **resilience** — an fp32 batch whose factorization breaks down or
   whose refinement stalls re-runs with an fp64 factor — counted in
   ``service_precision_fallback_total``; any other failure with retry
   budget left returns a :class:`Requeue` directive — the batch goes back
   to the queue parked until ``not_before`` (the exponential backoff)
   instead of the worker sleeping inline, so other queued jobs are never
   stalled behind one flaky one; the per-job wall budget is measured from
   the *first* attempt's start across requeues and checked both at
   dispatch (fail fast) and on failure, with the backoff delay capped at
   the remaining budget (cooperative timeout).

Mixed precision: a job's requested ``precision`` selects the working
dtype of the numeric factor. fp32 batches always run fp64 iterative
refinement so completed results carry fp64-level backward error.

The executor is synchronous and deterministic given a deterministic clock;
tests inject a fake ``clock``. It never sleeps: backoff waits happen in
the dispatch loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.solver import SparseSolver
from repro.mf.refine import iterative_refinement_many
from repro.service.cache import AnalysisCache, AnalysisEntry
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    TIMED_OUT,
    JobResult,
    SolveJob,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span, timed
from repro.util.errors import ReproError

if TYPE_CHECKING:
    from repro.service.queue import ServiceConfig


@dataclass
class Requeue:
    """Directive returned by :meth:`Executor.execute` instead of results:
    park the batch and retry it at ``not_before``.

    The executor never sleeps a backoff inline — that would stall every
    other queued job behind one flaky batch. The dispatch loop pushes the
    jobs back (each already stamped with ``attempts``/``not_before``/
    ``last_error``) and serves other ready work until the park expires.
    """

    jobs: list[SolveJob]
    #: service-clock time the retry becomes dispatchable
    not_before: float
    #: attempts burned so far (resumed by the next dispatch)
    attempts: int
    #: formatted error of the failed attempt
    error: str


class Executor:
    """Runs batches on the host engine with retries and the fp32 → fp64
    rung, under the policy of a :class:`~repro.service.ServiceConfig`."""

    def __init__(
        self,
        cache: AnalysisCache,
        metrics: MetricsRegistry,
        config: ServiceConfig,
        clock=time.monotonic,
    ):
        self.cache = cache
        self.metrics = metrics
        self.config = config
        self._clock = clock

    # -- batch entry point ---------------------------------------------------

    def execute(self, batch: list[SolveJob]) -> list[JobResult] | Requeue:
        """Execute a coalesced batch: one result per job, same order — or
        a :class:`Requeue` directive when a retryable failure should be
        attempted again later without blocking the worker."""
        with span("service.batch", jobs=len(batch)) as sp:
            return self._execute(batch, sp)

    def _execute(self, batch: list[SolveJob], sp) -> list[JobResult] | Requeue:
        t_start = self._clock()
        job0 = batch[0]
        b_block = np.hstack([job.b for job in batch])
        sp.set(rhs=int(b_block.shape[1]))

        # The wall budget spans requeued attempts: measure from the first
        # dispatch of the earliest-started job in the batch.
        for job in batch:
            if job.first_started_at is None:
                job.first_started_at = t_start
        started = min(job.first_started_at for job in batch)
        attempts = max(job.attempts for job in batch)
        budgets = [j.timeout for j in batch if j.timeout is not None]
        budget = min(budgets) if budgets else None
        if budget is not None and t_start - started >= budget:
            # Fail fast: the budget was burned by earlier attempts (and
            # the park in between); don't start another one.
            return self._timeout_failures(
                batch,
                job0.last_error or "wall budget exhausted before dispatch",
                attempts,
                t_start - started,
            )

        try:
            entry, cache_hit, timings = self._prepare(job0)
        except ReproError as exc:
            # Analysis is deterministic: retrying it cannot help.
            return self._failures(batch, FAILED, _fmt(exc), attempts)
        sp.set(cache_hit=cache_hit)

        precision = job0.precision
        while True:
            try:
                x, berrs, precision = self._run(
                    entry, b_block, timings, precision
                )
                break
            except ReproError as exc:
                if precision != "fp64":
                    # Deterministic numeric failure of the reduced-precision
                    # factor (e.g. a pivot that is positive in fp64 but not
                    # in fp32): retrying cannot help, the fp64 rung can.
                    precision = "fp64"
                    self.metrics.inc("service_precision_fallback_total")
                    continue
                if attempts >= self.config.max_retries:
                    return self._failures(batch, FAILED, _fmt(exc), attempts)
                # Check the wall budget *before* burning a backoff park:
                # an over-budget batch fails fast, and a near-budget batch
                # only parks for the remainder.
                elapsed = self._clock() - started
                if budget is not None and elapsed >= budget:
                    return self._timeout_failures(
                        batch, _fmt(exc), attempts, elapsed
                    )
                attempts += 1
                self.metrics.inc("retries")
                delay = self.config.retry_backoff * 2 ** (attempts - 1)
                if budget is not None:
                    delay = min(delay, budget - elapsed)
                # Requeue instead of sleeping: park the batch until the
                # backoff expires so the worker can serve other jobs.
                not_before = started + elapsed + delay
                for job in batch:
                    job.attempts = attempts
                    job.not_before = not_before
                    job.last_error = _fmt(exc)
                return Requeue(
                    jobs=list(batch),
                    not_before=not_before,
                    attempts=attempts,
                    error=_fmt(exc),
                )

        timings["job_total"] = self._clock() - t_start
        results = []
        col = 0
        for job in batch:
            xj = x[:, col: col + job.n_rhs]
            rj = float(np.max(berrs[col: col + job.n_rhs]))
            col += job.n_rhs
            results.append(
                JobResult(
                    job_id=job.job_id,
                    status=COMPLETED,
                    x=xj[:, 0] if job.squeeze else xj,
                    residual=rj,
                    retries=attempts,
                    cache_hit=cache_hit,
                    batched_rhs=int(b_block.shape[1]),
                    timings=dict(timings),
                    precision=precision,
                )
            )
        return results

    # -- phases --------------------------------------------------------------

    def _prepare(self, job: SolveJob) -> tuple[AnalysisEntry, bool, dict]:
        """Resolve the analysis for *job* (cache hit or fresh analyze)."""
        timings: dict[str, float] = {}
        use_cache = self.config.cache_enabled
        entry = self.cache.get(job.fingerprint) if use_cache else None
        if entry is not None:
            with timed("service.prepare", cache_hit=True) as t:
                entry.solver.method = job.method
                entry.solver.update_values(job.lower)
            timings["values_update"] = t.elapsed
            return entry, True, timings
        with timed("service.prepare", cache_hit=False) as t:
            solver = SparseSolver(
                job.lower, method=job.method, ordering=self.config.ordering
            )
            solver.analyze()
        timings["analyze"] = t.elapsed
        entry = AnalysisEntry(fingerprint=job.fingerprint, solver=solver)
        if use_cache:
            self.cache.put(entry)
        return entry, False, timings

    def _run(
        self,
        entry: AnalysisEntry,
        b_block: np.ndarray,
        timings: dict,
        precision: str,
    ) -> tuple[np.ndarray, np.ndarray, str]:
        """Numeric factor + blocked solve of the batch panel.

        Returns ``(x, backward_errors, effective_precision)``, the
        backward error per column. fp32 batches
        always run iterative refinement (it is what recovers fp64
        accuracy); when refinement stalls or diverges on any column the
        batch re-factors the same values in fp64 and refines against the
        robust factor, so the effective precision may be fp64.
        """
        solver = entry.solver

        def timed_factor(prec: str) -> None:
            with timed("service.factor", precision=prec) as t:
                solver.factor(precision=prec)
            timings["factor"] = timings.get("factor", 0.0) + t.elapsed
            # Precision-tagged phase timing: drained into per-precision
            # latency histograms (factor_fp32 / factor_fp64) by the service.
            key = f"factor_{prec}"
            timings[key] = timings.get(key, 0.0) + t.elapsed

        timed_factor(precision)
        refine = self.config.refine or precision != "fp64"
        factor_before_solve = timings.get("factor", 0.0)
        # Genuine blocked multi-RHS solve: one permute → sweep → unpermute
        # pass for the whole coalesced panel and one blocked refinement
        # loop, not a per-column re-traversal. Unrefined is that loop with
        # an infinite tolerance: the direct solve and its backward error.
        tol = 1e-14 if refine else math.inf
        with timed(
            "service.solve",
            rhs=int(b_block.shape[1]),
            refine=refine,
            precision=precision,
        ) as t:
            res = iterative_refinement_many(
                solver.numeric, solver.lower, b_block, tol=tol
            )
            if precision != "fp64" and not bool(np.all(res.converged)):
                # Reduced-precision refinement stalled or diverged: the
                # last rung of the ladder is an fp64 re-factor of the
                # same values on the same analysis.
                self.metrics.inc("service_precision_fallback_total")
                precision = "fp64"
                timed_factor(precision)
                res = iterative_refinement_many(
                    solver.numeric, solver.lower, b_block, tol=tol
                )
        # A precision fallback re-factors *inside* the solve window; keep
        # the factor share out of the solve phase timing.
        fallback_factor = timings.get("factor", 0.0) - factor_before_solve
        timings["solve"] = timings.get("solve", 0.0) + max(
            t.elapsed - fallback_factor, 0.0
        )
        return res.x, res.backward_error, precision

    # -- failure shaping -----------------------------------------------------

    def _failures(
        self,
        batch: list[SolveJob],
        status: str,
        error: str,
        attempts: int,
    ) -> list[JobResult]:
        return [
            JobResult(
                job_id=job.job_id,
                status=status,
                retries=attempts,
                error=error,
            )
            for job in batch
        ]

    def _timeout_failures(
        self,
        batch: list[SolveJob],
        error: str,
        attempts: int,
        elapsed: float,
    ) -> list[JobResult]:
        """Per-job status when the batch runs out of wall budget.

        Only jobs whose *own* timeout elapsed are ``TIMED_OUT``; coalesced
        neighbors with a longer (or no) budget report ``FAILED`` with the
        underlying error instead of inheriting the strictest timeout.
        """
        return [
            JobResult(
                job_id=job.job_id,
                status=(
                    TIMED_OUT
                    if job.timeout is not None and elapsed >= job.timeout
                    else FAILED
                ),
                retries=attempts,
                error=error,
            )
            for job in batch
        ]


def _fmt(exc: Exception) -> str:
    """The error string format every failure path shares."""
    return f"{type(exc).__name__}: {exc}"
