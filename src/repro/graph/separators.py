"""Vertex separators from edge bisections.

Nested dissection needs a *vertex* separator S such that removing S
disconnects the remaining vertices into the two halves. We derive S from the
edge cut of :func:`repro.graph.bisection.bisect` with a greedy
minimum-vertex-cover pass over the cut edges (taking the endpoint covering
more uncovered cut edges), which in practice stays close to the smaller
boundary side on mesh graphs.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.structure import AdjacencyGraph


def vertex_separator_from_bisection(
    g: AdjacencyGraph, side: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert an edge bisection into ``(part0, part1, sep)`` index arrays.

    ``sep`` is a vertex cover of the cut edges; ``part0``/``part1`` are the
    remaining vertices of each side. Guarantees: the three sets partition
    ``range(n)``, and no edge joins part0 to part1.
    """
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    cut_mask = side[src] != side[g.adjncy]
    # Undirected cut edges listed once.
    cu = src[cut_mask]
    cv = g.adjncy[cut_mask]
    once = cu < cv
    cu, cv = cu[once], cv[once]

    in_sep = np.zeros(g.n, dtype=bool)
    if cu.size:
        _greedy_cover(g.n, cu, cv, in_sep)

    verts = np.arange(g.n, dtype=np.int64)
    sep = verts[in_sep]
    part0 = verts[~in_sep & ~side]
    part1 = verts[~in_sep & side]
    return part0, part1, sep


def _greedy_cover(n: int, cu: np.ndarray, cv: np.ndarray, in_sep: np.ndarray) -> None:
    """Mark in *in_sep* a greedy vertex cover of the edges ``(cu, cv)``:
    repeatedly the vertex with the most uncovered edges, the lowest index
    on ties (the pick of ``np.argmax`` over the counts).

    A lazy max-heap of ``(-count, v)`` finds each pick: a count that drops
    pushes a fresh entry, and a popped entry that is no longer the
    vertex's count is dropped. Each vertex lists its incident edges, so
    covering them touches only those: O(edges · log n) in all.
    """
    ncut = cu.size
    ends = np.concatenate((cu, cv))
    counts = np.bincount(ends, minlength=n)
    order = np.argsort(ends, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(counts))).tolist()
    edge = (order % ncut).tolist()
    other = np.concatenate((cv, cu))[order].tolist()
    count = counts.tolist()
    heap = [(-count[v], v) for v in np.flatnonzero(counts).tolist()]
    heapq.heapify(heap)
    alive = [True] * ncut
    while heap:
        c, v = heapq.heappop(heap)
        if -c != count[v]:
            continue
        in_sep[v] = True
        count[v] = 0
        for i in range(ptr[v], ptr[v + 1]):
            if alive[edge[i]]:
                alive[edge[i]] = False
                u = other[i]
                count[u] -= 1
                if count[u]:
                    heapq.heappush(heap, (-count[u], u))


def is_separator(g: AdjacencyGraph, part0: np.ndarray, part1: np.ndarray) -> bool:
    """Check that no edge joins *part0* to *part1* (used by tests and by
    the ordering layer's self-check mode)."""
    mark = np.zeros(g.n, dtype=np.int8)
    mark[part0] = 1
    mark[part1] = 2
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    a = mark[src]
    b = mark[g.adjncy]
    return not np.any((a == 1) & (b == 2))
