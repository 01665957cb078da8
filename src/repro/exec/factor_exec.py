"""Multi-threaded multifrontal factorization (the real-hardware backend).

Walks the same supernodal assembly-tree task graph the sequential driver
and the simulated distributed engine use, but executes fronts with a
:class:`~repro.exec.pool.TaskPool` of worker threads. The heavy per-front
work — dense partial Cholesky/LDLᵀ, TRSM panels, SYRK trailing updates —
happens inside numpy kernels that release the GIL, so independent
subtrees factor concurrently on real cores.

Bitwise-oracle contract
-----------------------
The returned :class:`~repro.mf.numeric.NumericFactor` is **bitwise
identical** to :func:`repro.mf.numeric.multifrontal_factor` for any
worker count. Three rules buy this:

* every front is assembled and factored by
  :func:`repro.mf.numeric.factor_front` — the *same* code the sequential
  driver runs, so the per-front floating-point sequence is identical;
* extend-add is **postorder-partitioned**, not locked: a child task
  *publishes* its update matrix into a per-supernode slot, and only the
  parent's task consumes the slots — in ascending child order, the
  sequential order. No front is ever written by two threads;
* per-column LDLᵀ pivot perturbations are collected per supernode and
  merged in ascending supernode order afterwards, reproducing the
  sequential ``perturbed_columns`` tuple.

Schedule-dependent *telemetry* (``peak_stack_entries``, worker
timelines) is exempt from the contract; all numeric outputs (``blocks``,
``diag``, flop/entry counts) are covered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exec.pool import PoolStats, TaskPool, default_workers, make_lock
from repro.exec.tasks import factor_task_graph
from repro.mf.accounting import FactorStats
from repro.mf.numeric import NumericFactor, factor_front
from repro.obs.profile import active_profile
from repro.obs.spans import span
from repro.util.errors import InvariantError, ShapeError
from repro.util.validation import work_dtype

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
    """Numeric factorization of *sym* on a pool of worker threads.

    Accepts the same *method* / *pivot_perturbation* / *precision*
    contract as :func:`repro.mf.numeric.multifrontal_factor` and returns
    a bitwise identical factor (see the module docstring). *workers*
    defaults to :func:`repro.exec.pool.default_workers`; *registry*
    receives the pool's queue/latency telemetry when provided. *pool*
    substitutes a pre-configured :class:`TaskPool` (tracing, schedule
    fuzzing) for the default one; it overrides *workers*.
    """
    if method not in ("cholesky", "ldlt"):
        raise ShapeError(f"unknown factorization method {method!r}")
    if pivot_perturbation is not None and method != "ldlt":
        raise ShapeError("pivot_perturbation applies to method='ldlt' only")
    if pool is not None:
        workers = pool.workers
    elif workers is None:
        workers = default_workers()
    a = sym.permuted_lower
    plan = sym.front_plan
    plan.check_current(a)
    perturb_abs = None
    if pivot_perturbation is not None:
        diag_scale = float(np.max(np.abs(a.diagonal()), initial=0.0))
        perturb_abs = pivot_perturbation * max(diag_scale, 1.0)

    wdtype = work_dtype(precision)
    nsn = sym.n_supernodes
    blocks: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    diag = np.empty(sym.n, dtype=wdtype) if method == "ldlt" else None
    #: per-supernode update slots: written once by the owning task,
    #: consumed (and cleared) once by the parent's task
    updates: list[np.ndarray | None] = [None] * nsn
    per_flops = np.zeros(nsn, dtype=np.int64)
    per_perturbed: list[list[int]] = [[] for _ in range(nsn)]
    prof = active_profile()

    # Resident update-entry accounting (telemetry only — the value is
    # schedule-dependent, unlike everything numeric).
    acct_lock = make_lock()
    resident = {"entries": 0, "peak": 0}

    if pool is None:
        pool = TaskPool(workers, name="factor")
    tr = pool.trace

    def run_task(s: int) -> None:
        w = plan.width[s]
        c0 = plan.start[s]
        kids: list[np.ndarray] = []
        freed = 0
        for c in sym.sn_children[s]:
            u = updates[c]
            if u is None:
                raise InvariantError(
                    f"supernode {s}: child {c} finished without publishing "
                    "its update matrix"
                )
            if tr is not None:
                tr.add("slot_consume", task=s, slot=f"upd:{c}")
            updates[c] = None
            freed += u.size
            kids.append(u)
        block, d, _, update, fflops = factor_front(
            sym, s, method, perturb_abs, kids, per_perturbed[s], prof,
            dtype=wdtype,
        )
        blocks[s] = block
        if d is not None:
            diag[c0: c0 + w] = d
        updates[s] = update
        if update is not None and tr is not None:
            tr.add("slot_write", task=s, slot=f"upd:{s}")
        per_flops[s] = fflops
        grown = 0 if update is None else update.size
        with acct_lock:
            resident["entries"] += grown - freed
            if resident["entries"] > resident["peak"]:
                resident["peak"] = resident["entries"]

    graph = factor_task_graph(sym)
    with span(
        "exec.factor",
        method=method,
        n=sym.n,
        supernodes=nsn,
        workers=workers,
        precision=precision,
    ) as sp:
        pool_stats: PoolStats = pool.run(graph, run_task, registry=registry)
        sp.set(
            tasks=pool_stats.completed,
            queue_depth_peak=pool_stats.max_queue_depth,
        )

    leftover = [s for s in range(nsn) if updates[s] is not None]
    if leftover:
        raise InvariantError(
            f"unconsumed update matrices for supernodes {leftover[:5]}"
        )

    # Deterministic stats rollup in ascending supernode order — identical
    # flop/entry totals to the sequential driver.
    stats = FactorStats()
    for s in range(nsn):
        m = plan.order[s]
        w = plan.width[s]
        stats.observe_front(m, w, int(per_flops[s]))
        stats.factor_entries += m * w - w * (w - 1) // 2
    stats.peak_stack_entries = resident["peak"]

    perturbed: list[int] = []
    for s in range(nsn):
        perturbed.extend(per_perturbed[s])

    return NumericFactor(
        sym=sym,
        method=method,
        blocks=blocks,
        diag=diag,
        stats=stats,
        perturbed_columns=tuple(perturbed),
        exec_stats=pool_stats,
        precision=precision,
    )
