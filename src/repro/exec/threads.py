"""The threads backend's front doors.

Each resolves a :class:`~repro.exec.pool.TaskPool` and hands it to the one
host factorization or solve (:func:`repro.mf.numeric.multifrontal_factor`,
:func:`repro.mf.solve_phase.solve` / ``solve_many``), which runs its
per-supernode step over the elimination-tree task graph instead of in
postorder. Results are bitwise identical to the sequential calls for any
worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exec.pool import TaskPool, default_workers
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.mf.solve_phase import solve, solve_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.symbolic.analyze import SymbolicFactor

__all__ = ["multifrontal_factor_threads", "solve_threads", "solve_many_threads"]


def _pool(pool: TaskPool | None, workers: int | None, name: str) -> TaskPool:
    """*pool* itself, else a fresh one of *workers* threads (default
    :func:`default_workers`)."""
    if pool is not None:
        return pool
    return TaskPool(default_workers() if workers is None else workers, name=name)


def multifrontal_factor_threads(
    sym: SymbolicFactor,
    method: str = "cholesky",
    pivot_perturbation: float | None = None,
    workers: int | None = None,
    registry: MetricsRegistry | None = None,
    precision: str = "fp64",
    pool: TaskPool | None = None,
) -> NumericFactor:
    """:func:`~repro.mf.numeric.multifrontal_factor` on a pool of worker
    threads. *pool* substitutes a pre-configured :class:`TaskPool`
    (e.g. one with a schedule fuzzer) and overrides *workers*; *registry*
    receives the pool's queue/latency telemetry."""
    factor = multifrontal_factor(
        sym, method, pivot_perturbation, precision=precision,
        pool=_pool(pool, workers, "factor"),
    )
    if registry is not None and factor.exec_stats is not None:
        factor.exec_stats.publish(registry)
    return factor


def solve_threads(
    factor: NumericFactor,
    b: np.ndarray,
    workers: int | None = None,
    pool: TaskPool | None = None,
) -> np.ndarray:
    """:func:`~repro.mf.solve_phase.solve` on a pool of worker threads."""
    return solve(factor, b, _pool(pool, workers, "solve"))


def solve_many_threads(
    factor: NumericFactor,
    b: np.ndarray,
    workers: int | None = None,
    pool: TaskPool | None = None,
) -> np.ndarray:
    """:func:`~repro.mf.solve_phase.solve_many` on a pool of worker
    threads."""
    return solve_many(factor, b, _pool(pool, workers, "solve"))
