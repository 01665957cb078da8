"""The static task graph of the threaded factorization.

A :class:`~repro.exec.pool.TaskPool` runs the host factorization's
per-supernode step over this graph — the same task graph the simulated
distributed driver walks: one task per supernode, child before parent (a
supernode's front can be assembled only once every child subtree
finished). Dependencies are tree edges only: each child's update reaches
its parent alone, and "all children done" implies "all descendants done"
by induction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.mapping import subtree_flops
from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import ExecBackendError

__all__ = ["TaskGraph", "factor_task_graph"]


@dataclass
class TaskGraph:
    """Dependency DAG of one pool run (the factor's: one task per supernode).

    ``n_deps[t]`` prerequisites must complete before task *t* is ready;
    ``dependents[t]`` lists the tasks a completion of *t* may unblock.
    ``priority[t]`` orders the ready queue — higher runs first. The
    factor graph uses each supernode's subtree factorization flops, the
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
        label="factor",
    )
