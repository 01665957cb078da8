"""Graph traversal: BFS level structures, connected components,
pseudo-peripheral vertices.

These feed both RCM ordering (level structures) and nested-dissection
bisection (start-vertex selection, per-component recursion).
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.util.errors import OrderingError


def check_start(g: AdjacencyGraph, start: int) -> None:
    """Raise :class:`OrderingError` unless *start* is a vertex of *g*."""
    if not 0 <= start < g.n:
        raise OrderingError(f"start vertex {start} out of range for a graph of {g.n} vertices")


def bfs_levels(g: AdjacencyGraph, start: int) -> np.ndarray:
    """BFS distance of every vertex from *start* (-1 where unreachable).

    One frontier at a time: gather the frontier's neighbours, keep the
    unvisited ones, and they are the next frontier. A *start* outside
    ``[0, n)`` raises :class:`OrderingError`.
    """
    check_start(g, start)
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nbrs, _ = g.gather(frontier)
        frontier = np.unique(nbrs[levels[nbrs] < 0])
        levels[frontier] = depth
    return levels


def connected_components(g: AdjacencyGraph) -> np.ndarray:
    """Component label per vertex (labels are 0..k-1, in discovery order)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    label = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = label
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                v = int(v)
                if comp[v] < 0:
                    comp[v] = label
                    stack.append(v)
        label += 1
    return comp


def pseudo_peripheral_vertex(g: AdjacencyGraph, start: int = 0, max_iter: int = 10) -> int:
    """George–Liu pseudo-peripheral vertex heuristic.

    Repeatedly BFS from the current candidate and jump to a minimum-degree
    vertex in the deepest level until the eccentricity stops growing.
    Operates within the component of *start*; a *start* outside
    ``[0, n)`` raises :class:`OrderingError`.
    """
    return _pseudo_peripheral_levels(g, start, max_iter)[0]


def _pseudo_peripheral_levels(
    g: AdjacencyGraph, start: int = 0, max_iter: int = 10
) -> tuple[int, np.ndarray]:
    """:func:`pseudo_peripheral_vertex` and the BFS levels from it, which
    the heuristic has already computed (bisection ranks vertices by
    them)."""
    u = start
    levels = bfs_levels(g, u)
    ecc = int(levels.max(initial=0))
    for _ in range(max_iter):
        reachable = levels >= 0
        deepest = np.flatnonzero((levels == levels[reachable].max()) & reachable)
        degs = g.degrees()[deepest]
        cand = int(deepest[np.argmin(degs)])
        cand_levels = bfs_levels(g, cand)
        cand_ecc = int(cand_levels[cand_levels >= 0].max(initial=0))
        if cand_ecc <= ecc:
            break
        u, levels, ecc = cand, cand_levels, cand_ecc
    return u, levels
