"""The threads backend's front door.

:func:`multifrontal_factor_threads` resolves a
:class:`~repro.exec.pool.TaskPool` and hands it to the one host
factorization (:func:`repro.mf.numeric.multifrontal_factor`), which runs
its per-supernode step over the elimination-tree task graph instead of
in postorder. The factor is bitwise the sequential one for any worker
count, so it is solved by the same class sweeps
(:func:`repro.mf.solve_phase.solve_many`) as any other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.pool import TaskPool, default_workers
from repro.mf.numeric import NumericFactor, multifrontal_factor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.symbolic.analyze import SymbolicFactor

__all__ = ["multifrontal_factor_threads"]


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
    if pool is None:
        pool = TaskPool(default_workers() if workers is None else workers, name="factor")
    factor = multifrontal_factor(sym, method, pivot_perturbation, precision=precision, pool=pool)
    if registry is not None and factor.exec_stats is not None:
        factor.exec_stats.publish(registry)
    return factor

