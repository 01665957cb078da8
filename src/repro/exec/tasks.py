"""Static task graphs over the supernodal elimination tree.

A :class:`~repro.exec.pool.TaskPool` runs the host factorization's and
sweeps' per-supernode steps over these graphs — the same task graph the
simulated distributed driver walks: one task per supernode, ordered by
the assembly tree. Three phase-specific graphs share one representation:

* **factor** and **forward solve** — child-before-parent (a supernode's
  front can be assembled, or its pivot rows solved, only once every child
  subtree finished);
* **backward solve** — parent-before-child (a supernode reads its
  ancestors' final solution segments, so the tree is walked root-down).

Dependencies are *tree edges only*. That is sufficient for the forward
solve because a supernode's pivot rows are updated exclusively by its
descendants, and child-before-parent ordering makes "all children done"
imply "all descendants done" by induction.

:func:`forward_contributions` precomputes the deterministic update
routing of the forward solve: each supernode's off-diagonal update panel
is split into row runs by the *owning ancestor supernode*, and each
owner applies its incoming runs in ascending source order — the exact
per-element subtraction sequence of the sequential sweep (see
:mod:`repro.mf.solve_phase`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.mapping import subtree_flops
from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import ExecBackendError

__all__ = [
    "TaskGraph",
    "factor_task_graph",
    "forward_solve_task_graph",
    "backward_solve_task_graph",
    "forward_contributions",
]


@dataclass
class TaskGraph:
    """Dependency DAG of one execution phase (one task per supernode).

    ``n_deps[t]`` prerequisites must complete before task *t* is ready;
    ``dependents[t]`` lists the tasks a completion of *t* may unblock.
    ``priority[t]`` orders the ready queue — higher runs first. The
    graphs below use each supernode's subtree factorization flops, the
    numbers that drive the distributed mapping's proportional rank splits,
    so the critical path starts draining immediately.
    """

    n_tasks: int
    dependents: list[list[int]]
    n_deps: np.ndarray
    priority: np.ndarray
    #: task kind, e.g. ``"factor"``: the pool times each task in an
    #: ``exec.<label>`` span
    label: str = "task"

    def __post_init__(self) -> None:
        if len(self.dependents) != self.n_tasks or self.n_deps.size != self.n_tasks:
            raise ExecBackendError(
                f"task graph arrays disagree with n_tasks={self.n_tasks}"
            )

    def roots(self) -> list[int]:
        """Initially ready tasks (no prerequisites)."""
        return [t for t in range(self.n_tasks) if self.n_deps[t] == 0]


def factor_task_graph(sym: SymbolicFactor) -> TaskGraph:
    """Child-before-parent graph of the numeric factorization."""
    return _tree_up_graph(sym, label="factor")


def forward_solve_task_graph(sym: SymbolicFactor) -> TaskGraph:
    """Child-before-parent graph of the forward substitution."""
    return _tree_up_graph(sym, label="fwd")


def _tree_up_graph(sym: SymbolicFactor, label: str) -> TaskGraph:
    nsn = sym.n_supernodes
    dependents: list[list[int]] = [[] for _ in range(nsn)]
    n_deps = np.zeros(nsn, dtype=np.int64)
    for s in range(nsn):
        p = int(sym.sn_parent[s])
        if p >= 0:
            dependents[s].append(p)
            n_deps[p] += 1
    return TaskGraph(
        n_tasks=nsn,
        dependents=dependents,
        n_deps=n_deps,
        priority=subtree_flops(sym),
        label=label,
    )


def backward_solve_task_graph(sym: SymbolicFactor) -> TaskGraph:
    """Parent-before-child graph of the backward substitution.

    Roots become ready immediately; a supernode runs once its parent has
    written final values into the parent's pivot rows — by induction all
    ancestor rows the supernode reads are final. Big subtrees still go
    first: a completed parent with a heavy child subtree unblocks the
    most downstream work.
    """
    nsn = sym.n_supernodes
    dependents: list[list[int]] = [[] for _ in range(nsn)]
    n_deps = np.zeros(nsn, dtype=np.int64)
    for s in range(nsn):
        p = int(sym.sn_parent[s])
        if p >= 0:
            dependents[p].append(s)
            n_deps[s] += 1
    return TaskGraph(
        n_tasks=nsn,
        dependents=dependents,
        n_deps=n_deps,
        priority=subtree_flops(sym),
        label="bwd",
    )


@dataclass(frozen=True)
class _Run:
    """One contiguous run of a source supernode's update rows owned by a
    single target supernode: update-panel rows ``lo:hi``."""

    target: int
    lo: int
    hi: int


@dataclass
class ContributionPlan:
    """Deterministic routing of forward-solve updates.

    ``outgoing[s]`` — ascending-target runs of supernode *s*'s update
    panel; ``incoming[t]`` — the (source, lo, hi) runs targeting *t*,
    sorted by ascending source so the per-element subtraction order
    matches the sequential sweep exactly.
    """

    outgoing: list[list[_Run]] = field(default_factory=list)
    incoming: list[list[tuple[int, int, int]]] = field(default_factory=list)


def forward_contributions(sym: SymbolicFactor) -> ContributionPlan:
    """Split every supernode's forward-solve update rows by owning
    supernode (rows are ascending, so owners form contiguous runs)."""
    nsn = sym.n_supernodes
    sn_start = sym.partition.sn_start
    plan = ContributionPlan(
        outgoing=[[] for _ in range(nsn)],
        incoming=[[] for _ in range(nsn)],
    )
    for s in range(nsn):
        w = sym.supernode_width(s)
        upd_rows = sym.sn_rows[s][w:]
        if upd_rows.size == 0:
            continue
        owners = np.searchsorted(sn_start, upd_rows, side="right") - 1
        lo = 0
        mu = upd_rows.size
        while lo < mu:
            hi = lo + 1
            while hi < mu and owners[hi] == owners[lo]:
                hi += 1
            plan.outgoing[s].append(_Run(target=int(owners[lo]), lo=lo, hi=hi))
            lo = hi
    # Sources are visited ascending, so each incoming list is already in
    # ascending-source order — the order the sequential sweep applies them.
    for s in range(nsn):
        for run in plan.outgoing[s]:
            plan.incoming[run.target].append((s, run.lo, run.hi))
    return plan
