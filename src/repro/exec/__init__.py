"""repro.exec: the real shared-memory execution backend.

Everything else in the library models parallelism (the simulated
distributed engine) or runs sequentially; this package *executes* the
host factorization's and sweeps' per-supernode steps over the
elimination-tree task graphs on actual worker threads. The steps
themselves live in :mod:`repro.mf.numeric` and :mod:`repro.mf.solve_phase`
(``pool=`` picks the schedule), so for any worker count factors and
solutions are bit-identical to the sequential ones.

Layout
------
``tasks``
    Static task graphs (factor / forward / backward) plus the
    deterministic forward-solve contribution routing.
``pool``
    The dependency-counting worker pool — the only module in the library
    allowed to use raw thread primitives (lint rules RP008/RP010); other
    exec modules obtain mutexes through :func:`make_lock`. It starts a
    task only after every prerequisite has finished; with the graphs'
    edges being the assembly tree's, that is what makes the shared
    update slots race-free (DESIGN.md, "Verifying the threaded backend").
``threads``
    :func:`multifrontal_factor_threads`, :func:`solve_threads` and
    :func:`solve_many_threads`: resolve a pool, call :mod:`repro.mf`.

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
from repro.exec.threads import (
    multifrontal_factor_threads,
    solve_many_threads,
    solve_threads,
)
from repro.exec.tasks import (
    ContributionPlan,
    TaskGraph,
    backward_solve_task_graph,
    factor_task_graph,
    forward_contributions,
    forward_solve_task_graph,
)

__all__ = [
    "multifrontal_factor_threads",
    "solve_threads",
    "solve_many_threads",
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
    "ContributionPlan",
    "factor_task_graph",
    "forward_solve_task_graph",
    "backward_solve_task_graph",
    "forward_contributions",
]
