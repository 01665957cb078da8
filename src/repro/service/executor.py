"""The worker: executes one coalesced batch of solve jobs.

Execution pipeline per batch (all jobs in a batch share pattern, values,
and method):

1. **analysis** — cache lookup by pattern fingerprint; a hit installs the
   new values on the cached analysis (``SparseSolver.update_values``, the
   refactor path) and skips ordering + symbolic + plan construction
   entirely; a miss runs ``analyze()`` and populates the cache;
2. **numeric factor + solve** — on the sequential host engine, or on the
   simulated parallel machine when a :class:`ParallelConfig` is set
   (reusing the structural plan the cached solver keeps);
3. **resilience** — a parallel-path failure *degrades* the batch to the
   host engine (counted, not retried); a threads-backend *infrastructure*
   failure (:class:`~repro.util.errors.ExecBackendError`) degrades to the
   plain sequential backend — safe because the two are bitwise identical
   — counted in ``service_backend_fallback_total``; an fp32 batch whose
   factorization breaks down or whose refinement stalls re-runs with an
   fp64 factor — counted in ``service_precision_fallback_total``; a host
   failure with retry budget left returns a :class:`Requeue` directive —
   the batch goes back to the queue parked until ``not_before`` (the
   exponential backoff) instead of the worker sleeping inline, so other
   queued jobs are never stalled behind one flaky one; the per-job wall
   budget is measured from the *first* attempt's start across requeues
   and checked both at dispatch (fail fast) and on failure, with the
   backoff delay capped at the remaining budget (cooperative timeout).

Mixed precision: a job's requested ``precision`` selects the working
dtype of the host numeric factor. fp32 batches always run fp64 iterative
refinement so completed results carry fp64-level backward error. The
simulated parallel engine models an fp64 machine and ignores the knob
(its results report ``precision="fp64"``).

The executor is synchronous and deterministic given a deterministic clock;
tests inject fake ``clock``/``sleep`` callables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.solver import ParallelConfig, SparseSolver
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve_many as mf_solve_many
from repro.parallel.driver import simulate_factorization, simulate_solve
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
from repro.sparse.ops import sym_matvec_lower_many
from repro.util.errors import ExecBackendError, ReproError


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


@dataclass(frozen=True)
class ExecutorOptions:
    """Execution policy of the worker."""

    #: fill-reducing ordering used for fresh analyses
    ordering: str = "nd"
    #: run factor+solve on the simulated parallel machine (None = host)
    parallel: ParallelConfig | None = None
    #: additional attempts after the first failure (sequential engine)
    max_retries: int = 2
    #: base backoff in seconds; doubles per retry
    retry_backoff: float = 0.01
    #: iterative refinement on the host solve path
    refine: bool = False
    use_cache: bool = True
    #: host execution backend: ``"seq"`` or ``"threads"`` (the shared-memory
    #: pool of :mod:`repro.exec`; bitwise identical to ``"seq"``)
    backend: str = "seq"
    #: worker threads for ``backend="threads"`` (None = auto)
    workers: int | None = None


class Executor:
    """Runs batches against the solver engines with retry + degradation."""

    def __init__(
        self,
        cache: AnalysisCache,
        metrics: MetricsRegistry,
        options: ExecutorOptions | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.cache = cache
        self.metrics = metrics
        self.options = options or ExecutorOptions()
        self._clock = clock
        self._sleep = sleep

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
        degraded = any(job.degraded for job in batch)
        budgets = [j.timeout for j in batch if j.timeout is not None]
        budget = min(budgets) if budgets else None
        if budget is not None and t_start - started >= budget:
            # Fail fast: the budget was burned by earlier attempts (and
            # the park in between); don't start another one.
            return self._timeout_failures(
                batch,
                job0.last_error or "wall budget exhausted before dispatch",
                attempts,
                degraded,
                t_start - started,
            )

        try:
            entry, cache_hit, timings = self._prepare(job0)
        except ReproError as exc:
            # Analysis is deterministic: retrying it cannot help.
            return self._failures(batch, FAILED, _fmt(exc), attempts, degraded)
        sp.set(cache_hit=cache_hit)

        if self.options.parallel is not None and not degraded:
            engine = "parallel"
        elif self.options.backend == "threads":
            engine = "threads"
        else:
            engine = "sequential"
        precision = job0.precision
        while True:
            try:
                x, residuals, precision = self._run(
                    engine, entry, job0.method, b_block, timings, precision
                )
                break
            except ReproError as exc:
                if engine == "parallel":
                    # A failing parallel plan/driver will fail again:
                    # degrade to the host engine instead of retrying.
                    engine = (
                        "threads"
                        if self.options.backend == "threads"
                        else "sequential"
                    )
                    degraded = True
                    self.metrics.inc("degradations")
                    continue
                if precision != "fp64" and not isinstance(exc, ExecBackendError):
                    # Deterministic numeric failure of the reduced-precision
                    # factor (e.g. a pivot that is positive in fp64 but not
                    # in fp32): retrying cannot help, the fp64 rung can.
                    precision = "fp64"
                    self.metrics.inc("service_precision_fallback_total")
                    continue
                if engine == "threads" and isinstance(exc, ExecBackendError):
                    # Pool infrastructure failed (bad worker config, a
                    # cancelled pool, a stalled graph). The sequential
                    # backend computes bitwise-identical answers, so fall
                    # back rather than retrying the broken pool.
                    engine = "sequential"
                    degraded = True
                    self.metrics.inc("service_backend_fallback_total")
                    continue
                if attempts >= self.options.max_retries:
                    return self._failures(
                        batch, FAILED, _fmt(exc), attempts, degraded
                    )
                # Check the wall budget *before* burning a backoff park:
                # an over-budget batch fails fast, and a near-budget batch
                # only parks for the remainder.
                elapsed = self._clock() - started
                if budget is not None and elapsed >= budget:
                    return self._timeout_failures(
                        batch, _fmt(exc), attempts, degraded, elapsed
                    )
                attempts += 1
                self.metrics.inc("retries")
                delay = self.options.retry_backoff * 2 ** (attempts - 1)
                if budget is not None:
                    delay = min(delay, budget - elapsed)
                # Requeue instead of sleeping: park the batch until the
                # backoff expires so the worker can serve other jobs.
                not_before = started + elapsed + delay
                for job in batch:
                    job.attempts = attempts
                    job.degraded = degraded
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
            rj = float(np.max(residuals[col: col + job.n_rhs]))
            col += job.n_rhs
            results.append(
                JobResult(
                    job_id=job.job_id,
                    status=COMPLETED,
                    x=xj[:, 0] if job.squeeze else xj,
                    residual=rj,
                    retries=attempts,
                    degraded=degraded,
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
        entry = self.cache.get(job.fingerprint) if self.options.use_cache else None
        if entry is not None:
            with timed("service.prepare", cache_hit=True) as t:
                entry.solver.method = job.method
                entry.solver.update_values(job.lower)
            timings["values_update"] = t.elapsed
            return entry, True, timings
        with timed("service.prepare", cache_hit=False) as t:
            solver = SparseSolver(
                job.lower, method=job.method, ordering=self.options.ordering
            )
            solver.analyze()
        timings["analyze"] = t.elapsed
        entry = AnalysisEntry(fingerprint=job.fingerprint, solver=solver)
        if self.options.use_cache:
            self.cache.put(entry)
        return entry, False, timings

    def _run(
        self,
        engine: str,
        entry: AnalysisEntry,
        method: str,
        b_block: np.ndarray,
        timings: dict,
        precision: str = "fp64",
    ) -> tuple[np.ndarray, np.ndarray, str]:
        """Numeric factor + blocked solve on the chosen engine.

        Returns ``(x, residuals, effective_precision)`` — the precision
        may have been walked down to fp64 by the in-solve refinement
        fallback (host engines) or pinned at fp64 (parallel engine).
        """
        if engine == "parallel":
            x = self._run_parallel(entry, method, b_block, timings)
            precision = "fp64"  # the simulated machine models fp64 hardware
        else:
            x, precision = self._run_host(
                entry, b_block, timings, engine, precision
            )
        lower = entry.solver.lower
        # One blocked residual matvec for the whole panel (bitwise identical
        # per column to the per-column check).
        r = b_block - sym_matvec_lower_many(lower, x)
        denom = np.maximum(np.max(np.abs(b_block), axis=0), 1e-300)
        residuals = np.max(np.abs(r), axis=0) / denom
        return x, residuals, precision

    def _run_host(
        self,
        entry: AnalysisEntry,
        b_block: np.ndarray,
        timings: dict,
        engine: str = "sequential",
        precision: str = "fp64",
    ) -> tuple[np.ndarray, str]:
        """Factor + solve on the host: sequential or the threads backend
        (bitwise identical, so the engine choice never changes answers).

        Returns ``(x, effective_precision)``. fp32 batches always run
        iterative refinement (it is what recovers fp64 accuracy); when
        refinement stalls or diverges on any column the batch re-factors
        the same values in fp64 and refines against the robust factor.
        """
        solver = entry.solver
        workers = self.options.workers
        if engine == "threads":
            backend = "threads"
            from repro.exec import solve_many_threads

            def solve_fn(factor, b):
                return solve_many_threads(factor, b, workers=workers)
        else:
            backend = "seq"
            solve_fn = mf_solve_many

        def timed_factor(prec: str) -> None:
            with timed("service.factor", engine=engine, precision=prec) as t:
                solver.factor(backend=backend, workers=workers, precision=prec)
            timings["factor"] = timings.get("factor", 0.0) + t.elapsed
            # Precision-tagged phase timing: drained into per-precision
            # latency histograms (factor_fp32 / factor_fp64) by the service.
            key = f"factor_{prec}"
            timings[key] = timings.get(key, 0.0) + t.elapsed

        timed_factor(precision)
        if solver.numeric.exec_stats is not None:
            # Surface the pool's telemetry through the service registry.
            solver.numeric.exec_stats.publish(self.metrics)
        refine = self.options.refine or precision != "fp64"
        factor_before_solve = timings.get("factor", 0.0)
        # Genuine blocked multi-RHS solve: one permute → sweep → unpermute
        # pass for the whole coalesced panel (and one blocked refinement
        # loop when enabled), not a per-column re-traversal.
        with timed(
            "service.solve",
            engine=engine,
            rhs=int(b_block.shape[1]),
            refine=refine,
            precision=precision,
        ) as t:
            if refine:
                res = iterative_refinement_many(
                    solver.numeric, solver.lower, b_block, solve_fn=solve_fn
                )
                if precision != "fp64" and not bool(np.all(res.converged)):
                    # Reduced-precision refinement stalled or diverged: the
                    # last rung of the ladder is an fp64 re-factor of the
                    # same values on the same analysis.
                    self.metrics.inc("service_precision_fallback_total")
                    precision = "fp64"
                    timed_factor(precision)
                    res = iterative_refinement_many(
                        solver.numeric, solver.lower, b_block, solve_fn=solve_fn
                    )
                x = res.x
            else:
                x = solve_fn(solver.numeric, b_block)
        # A precision fallback re-factors *inside* the solve window; keep
        # the factor share out of the solve phase timing.
        fallback_factor = timings.get("factor", 0.0) - factor_before_solve
        timings["solve"] = timings.get("solve", 0.0) + max(
            t.elapsed - fallback_factor, 0.0
        )
        return x, precision

    def _run_parallel(
        self, entry: AnalysisEntry, method: str, b_block: np.ndarray, timings: dict
    ) -> np.ndarray:
        cfg = self.options.parallel
        solver = entry.solver
        plan_key = (cfg.n_ranks, cfg.plan_options())
        plan = solver.plans.get(plan_key)
        if plan is None:
            with timed("service.plan", ranks=cfg.n_ranks) as t:
                plan = solver.parallel_plan(*plan_key)
            timings["plan"] = timings.get("plan", 0.0) + t.elapsed
        with timed("service.factor", engine="parallel") as t:
            fres = simulate_factorization(
                solver.sym,
                cfg.n_ranks,
                cfg.machine,
                method=method,
                threads_per_rank=cfg.threads_per_rank,
                plan=plan,
            )
        timings["factor"] = timings.get("factor", 0.0) + t.elapsed
        with timed(
            "service.solve", engine="parallel", rhs=int(b_block.shape[1])
        ) as t:
            # Blocked (n, k) distributed solve: one latency-bound sweep
            # amortized over every coalesced right-hand side.
            sres = simulate_solve(fres, b_block)
        timings["solve"] = timings.get("solve", 0.0) + t.elapsed
        x = sres.x
        return x if x.ndim == 2 else x[:, None]

    # -- failure shaping -----------------------------------------------------

    def _failures(
        self,
        batch: list[SolveJob],
        status: str,
        error: str,
        attempts: int,
        degraded: bool,
    ) -> list[JobResult]:
        return [
            JobResult(
                job_id=job.job_id,
                status=status,
                retries=attempts,
                degraded=degraded,
                error=error,
            )
            for job in batch
        ]

    def _timeout_failures(
        self,
        batch: list[SolveJob],
        error: str,
        attempts: int,
        degraded: bool,
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
                degraded=degraded,
                error=error,
            )
            for job in batch
        ]


def _fmt(exc: Exception) -> str:
    """The error string format every failure path shares."""
    return f"{type(exc).__name__}: {exc}"
