"""Assembly-tree parallelism statistics.

Quantifies how much tree-level concurrency an ordering exposes — the
quantity the subtree-to-subcube mapping feeds on:

* **critical path**: flops along the heaviest root-to-leaf chain (a lower
  bound on any tree-parallel schedule);
* **average concurrency**: total work / critical path (how many ranks the
  tree can keep busy, before front-level parallelism);
* per-depth work profile (the "fat top" of ND trees vs the long chains of
  band orderings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.analyze import SymbolicFactor


@dataclass(frozen=True)
class TreeStats:
    """Parallelism profile of one analyzed matrix."""

    total_flops: int
    critical_path_flops: int
    #: total / critical path — the tree-level average parallelism
    avg_concurrency: float
    #: number of assembly-tree leaves (independent starting fronts)
    n_leaves: int
    #: tree height in supernodes
    height: int
    #: work per depth level, root = level 0
    work_by_depth: tuple[float, ...]


def tree_stats(sym: SymbolicFactor) -> TreeStats:
    """Compute the parallelism profile of *sym*'s assembly tree."""
    nsn = sym.n_supernodes
    own = np.asarray([sym.supernode_flops(s) for s in range(nsn)], dtype=float)
    parent = sym.sn_parent

    # Critical path: heaviest path from any leaf to its root.
    cp = own.copy()
    for s in range(nsn):  # ascending: children before parents
        best_child = 0.0
        for c in sym.sn_children[s]:
            best_child = max(best_child, cp[c])
        cp[s] = own[s] + best_child
    critical = float(cp[sym.roots()].max(initial=0.0)) if nsn else 0.0

    depth = np.zeros(nsn, dtype=np.int64)
    for s in range(nsn - 1, -1, -1):  # descending: parents before children
        p = int(parent[s])
        depth[s] = 0 if p < 0 else depth[p] + 1
    height = int(depth.max(initial=-1)) + 1
    work_by_depth = np.zeros(height)
    for s in range(nsn):
        work_by_depth[depth[s]] += own[s]

    total = float(own.sum())
    n_leaves = sum(1 for s in range(nsn) if not sym.sn_children[s])
    return TreeStats(
        total_flops=int(total),
        critical_path_flops=int(critical),
        avg_concurrency=total / critical if critical > 0 else 1.0,
        n_leaves=n_leaves,
        height=height,
        work_by_depth=tuple(work_by_depth),
    )

