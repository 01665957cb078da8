"""repro.exec: the real shared-memory execution backend.

Everything else in the library models parallelism (the simulated
distributed engine) or runs sequentially; this package *executes* the
host factorization's per-supernode step over the elimination-tree task
graph on actual worker threads. The step itself lives in
:mod:`repro.mf.numeric` (``pool=`` picks the schedule), so for any worker
count the factor is bit-identical to the sequential one. There is no
threaded solve: every factor is solved by the class sweeps of
:mod:`repro.mf.solve_phase`, whatever built it.

Layout
------
``tasks``
    The factorization's static task graph (child before parent).
``pool``
    The dependency-counting worker pool — the only module in the library
    allowed to use raw thread primitives (lint rules RP008/RP010); other
    exec modules obtain mutexes through :func:`make_lock`. It starts a
    task only after every prerequisite has finished; with the graph's
    edges being the assembly tree's, that is what makes the shared
    update slots race-free (DESIGN.md, "Verifying the threaded backend").
``threads``
    :func:`multifrontal_factor_threads`: resolve a pool, call
    :mod:`repro.mf`.

Most callers should go through :class:`repro.core.solver.SparseSolver`
with ``backend="threads"`` rather than these functions directly.
"""

from repro.exec.fleet import FleetCrew, FleetDirective
from repro.exec.pool import (
    MAX_DEFAULT_WORKERS,
    PoolStats,
    ScheduleFuzzer,
    TaskPool,
    default_workers,
    make_condition,
    make_lock,
)
from repro.exec.threads import multifrontal_factor_threads
from repro.exec.tasks import TaskGraph, factor_task_graph

__all__ = [
    "multifrontal_factor_threads",
    "TaskPool",
    "PoolStats",
    "ScheduleFuzzer",
    "default_workers",
    "make_condition",
    "make_lock",
    "MAX_DEFAULT_WORKERS",
    "FleetCrew",
    "FleetDirective",
    "TaskGraph",
    "factor_task_graph",
]
