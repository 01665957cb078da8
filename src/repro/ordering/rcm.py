"""Reverse Cuthill–McKee ordering.

Bandwidth/profile-oriented: BFS from a pseudo-peripheral vertex, visiting
neighbours in increasing-degree order, then reverse. Not competitive with
ND/AMD on fill for 3D problems — which is exactly the contrast benchmark T2
reports — but cheap and predictable.
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import pseudo_peripheral_vertex
from repro.util.errors import OrderingError


def rcm_order(g: AdjacencyGraph) -> np.ndarray:
    """RCM permutation: ``perm[k]`` = vertex eliminated at step ``k``.

    Handles disconnected graphs by restarting from a pseudo-peripheral
    vertex of each unvisited component.
    """
    n = g.n
    visited = np.zeros(n, dtype=bool)
    degs = g.degrees()
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for s in range(n):
        if visited[s]:
            continue
        start = pseudo_peripheral_vertex(g, s)
        if visited[start]:  # peripheral search stays in s's component, but be safe
            start = s
        visited[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order[pos] = u
            pos += 1
            nbrs = g.neighbors(u)
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = fresh[np.argsort(degs[fresh], kind="stable")]
                visited[fresh] = True
                queue.extend(int(v) for v in fresh)
    if pos != n:
        raise OrderingError(f"RCM ordered {pos} of {n} vertices")
    return order[::-1].copy()
