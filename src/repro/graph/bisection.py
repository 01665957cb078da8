"""Graph bisection: BFS level-set growing plus Fiduccia–Mattheyses-style
edge-cut refinement.

This is the work-horse under nested dissection. It aims for the quality/
simplicity point of early METIS: grow a half from a pseudo-peripheral
vertex, then a few FM passes moving vertices by gain under a balance
constraint. :func:`_fm_pass` is the one FM sweep nested dissection runs.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import _pseudo_peripheral_levels, bfs_levels, check_start
from repro.util.errors import OrderingError


def bisect(
    g: AdjacencyGraph,
    balance: float = 0.55,
    refine_passes: int = 4,
    start: int | None = None,
) -> np.ndarray:
    """Split the vertices of *g* into two parts.

    Returns a boolean array ``side`` of length ``g.n``: ``False`` = part 0,
    ``True`` = part 1. Each part holds at most ``balance * n`` vertices
    (for n >= 2). Vertices are ranked by BFS level from *start*, then by
    index; the first ``n // 2`` form part 0 and the rest part 1. Vertices
    unreachable from *start* rank last, so they start in part 1; FM
    refinement may then move them like any other vertex.

    Parameters
    ----------
    balance
        Maximum fraction of vertices either part may hold (0.5 < balance <= 1).
    refine_passes
        Maximum number of FM sweeps; refinement stops at the first sweep
        that does not improve the cut.
    start
        Optional fixed BFS start vertex (default: pseudo-peripheral pick);
        one outside ``[0, n)`` raises :class:`OrderingError`.
    """
    n = g.n
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    if start is not None:
        check_start(g, start)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.zeros(1, dtype=bool)

    if start is None:
        start, levels = _pseudo_peripheral_levels(g, 0)
    else:
        levels = bfs_levels(g, start)

    # Order vertices by (level, index); unreachable (-1) go last.
    sort_key = np.where(levels >= 0, levels, np.iinfo(np.int64).max)
    order = np.lexsort((np.arange(n), sort_key))
    half = n // 2
    side = np.zeros(n, dtype=bool)
    side[order[half:]] = True

    max_part = int(np.floor(balance * n))
    max_part = max(max_part, half + (n % 2))  # always feasible
    for _ in range(refine_passes):
        if not _fm_pass(g, side, max_part):
            break
    return side


def cut_size(g: AdjacencyGraph, side: np.ndarray) -> int:
    """Number of edges crossing the partition."""
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    return int(np.count_nonzero(side[src] != side[g.adjncy])) // 2


def _fm_pass(g: AdjacencyGraph, side: np.ndarray, max_part: int) -> bool:
    """One FM sweep of *g* with vertex locking and rollback to the best
    prefix.

    Each step moves the unlocked vertex of highest gain — cut edges it
    removes minus uncut edges it adds, lowest index on ties — among the
    sides whose other part holds less than *max_part*, then locks it. The
    sweep stops at a negative move that leaves the running gain ``n`` or
    more below the best prefix: that tail can no longer beat it. Mutates
    *side* in place; returns True when the cut improved.

    An unlocked vertex never changes side, so each side keeps a lazy
    min-heap of keys ``(bound - gain) * n + v``: one int per entry, ordered
    by gain and then index since ``bound`` exceeds every degree. ``key[v]``
    is v's current key (-1 once locked). A gain change pushes a fresh key;
    a popped key that is not current is dropped. A sweep costs
    O(edges · log n).
    """
    n = side.size
    xadj, adjncy = g.xadj, g.adjncy
    tot = np.diff(xadj)
    src = np.repeat(np.arange(n, dtype=np.int64), tot)
    ext = np.bincount(src[side[src] != side[adjncy]], minlength=n)
    bound = int(tot.max(initial=0)) + 1
    keys = (bound - 2 * ext + tot) * n + np.arange(n, dtype=np.int64)
    heaps = [keys[~side].tolist(), keys[side].tolist()]
    for h in heaps:
        heapq.heapify(h)
    push, pop = heapq.heappush, heapq.heappop
    # Moving a neighbour changes a vertex's gain by ±2, so its key by ∓2n.
    step = 2 * n

    key = keys.tolist()
    part = side.tolist()
    # Views, not lists: a list holds one int object per edge.
    xa = memoryview(np.ascontiguousarray(xadj))
    adj = memoryview(np.ascontiguousarray(adjncy))
    n1 = int(side.sum())
    sizes = [n - n1, n1]

    moves: list[int] = []
    cum = best = best_prefix = 0
    for _ in range(n):
        # The least current key over the sides that may move.
        pick = -1
        for s in (0, 1):
            if sizes[1 - s] < max_part:
                h = heaps[s]
                while h and key[h[0] % n] != h[0]:
                    pop(h)
                if h and (pick < 0 or h[0] < heaps[pick][0]):
                    pick = s
        if pick < 0:
            break
        top = pop(heaps[pick])
        v = top % n
        gv = bound - top // n
        if gv < 0 and cum + gv <= best - n:
            break
        key[v] = -1
        sizes[pick] -= 1
        sizes[1 - pick] += 1
        part[v] = new = not part[v]
        moves.append(v)
        cum += gv
        if cum > best:
            best = cum
            best_prefix = len(moves)
        # Edges to v's old side become cut (gain up, key down); edges to its
        # new side stop being cut.
        for u in adj[xa[v]:xa[v + 1]]:
            k = key[u]
            if k >= 0:
                su = part[u]
                key[u] = k = k + step if su == new else k - step
                push(heaps[su], k)

    kept = np.asarray(moves[:best_prefix], dtype=np.int64)
    side[kept] = ~side[kept]
    return best > 0
