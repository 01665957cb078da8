"""Graph bisection: BFS level-set growing plus Fiduccia–Mattheyses-style
edge-cut refinement.

This is the work-horse under nested dissection. It aims for the quality/
simplicity point of early METIS: grow a half from a pseudo-peripheral
vertex, then a few FM passes moving vertices by gain under a balance
constraint. Both this flat path and :mod:`repro.graph.multilevel` refine
with :func:`fm_pass`.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import bfs_levels, pseudo_peripheral_vertex
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
        Optional fixed BFS start vertex (default: pseudo-peripheral pick).
    """
    n = g.n
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.zeros(1, dtype=bool)

    if start is None:
        start = pseudo_peripheral_vertex(g, 0)
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
    """One unweighted FM sweep of *g* (see :func:`fm_pass`), giving up on a
    tail of moves that can no longer beat the best prefix."""
    return fm_pass(g.xadj, g.adjncy, side, max_part, hopeless_tail=True)


def fm_pass(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    side: np.ndarray,
    max_w: int,
    adjwgt: np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    hopeless_tail: bool = False,
) -> bool:
    """One FM sweep with vertex locking and rollback to the best prefix.

    Each step moves the unlocked vertex of highest gain — cut weight it
    removes minus uncut weight it adds, lowest index on ties — among the
    sides whose other part holds less than *max_w*, then locks it. A chosen
    vertex too heavy for the other part is locked unmoved instead (one
    step). With *hopeless_tail*, the sweep stops at a negative move that
    leaves the running gain ``n`` or more below the best prefix. Weights
    default to 1. Mutates *side* in place; returns True when the cut
    improved.

    An unlocked vertex never changes side, so each side keeps a lazy
    min-heap of keys ``(bound - gain) * n + v``: one int per entry, ordered
    by gain and then index since ``bound`` exceeds every weighted degree.
    ``key[v]`` is v's current key (-1 once locked). A gain change pushes a
    fresh key; a popped key that is not current is dropped. A sweep costs
    O(edges · log n).
    """
    n = side.size
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    cut = side[src] != side[adjncy]
    # Moving a neighbour changes a vertex's gain by ±2w, so its key by ∓2wn.
    if adjwgt is None:
        ext = np.bincount(src[cut], minlength=n)
        tot = np.diff(xadj)
        unit_step, edge_steps = itertools.repeat(2 * n), None
    else:
        ext = np.bincount(src[cut], weights=adjwgt[cut], minlength=n).astype(np.int64)
        tot = np.bincount(src, weights=adjwgt, minlength=n).astype(np.int64)
        unit_step, edge_steps = None, memoryview(adjwgt * (2 * n))
    bound = int(tot.max(initial=0)) + 1
    keys = (bound - 2 * ext + tot) * n + np.arange(n, dtype=np.int64)
    heaps = [keys[~side].tolist(), keys[side].tolist()]
    for h in heaps:
        heapq.heapify(h)
    push, pop = heapq.heappush, heapq.heappop

    key = keys.tolist()
    part = side.tolist()
    # Views, not lists: a list holds one int object per edge.
    xa = memoryview(np.ascontiguousarray(xadj))
    adj = memoryview(np.ascontiguousarray(adjncy))
    vw = [1] * n if vwgt is None else vwgt.tolist()
    w1 = int(side.sum()) if vwgt is None else int(vwgt[side].sum())
    sizes = [sum(vw) - w1, w1]

    moves: list[int] = []
    cum = best = best_prefix = 0
    for _ in range(n):
        # The least current key over the sides that may move.
        pick = -1
        for s in (0, 1):
            if sizes[1 - s] < max_w:
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
        if hopeless_tail and gv < 0 and cum + gv <= best - n:
            break
        key[v] = -1
        wv = vw[v]
        if sizes[1 - pick] + wv > max_w:
            continue
        sizes[pick] -= wv
        sizes[1 - pick] += wv
        part[v] = new = not part[v]
        moves.append(v)
        cum += gv
        if cum > best:
            best = cum
            best_prefix = len(moves)
        # Edges to v's old side become cut (gain up, key down); edges to its
        # new side stop being cut.
        lo, hi = xa[v], xa[v + 1]
        for u, d in zip(adj[lo:hi], unit_step or edge_steps[lo:hi]):
            k = key[u]
            if k >= 0:
                su = part[u]
                key[u] = k = k + d if su == new else k - d
                push(heaps[su], k)

    kept = np.asarray(moves[:best_prefix], dtype=np.int64)
    side[kept] = ~side[kept]
    return best > 0
