"""Approximate Minimum Degree ordering on a quotient graph.

Implements the Amestoy–Davis–Duff AMD algorithm's core mechanics in pure
Python:

* quotient-graph representation (variables adjacent to variables and to
  *elements* — cliques left behind by eliminated pivots);
* element absorption (an element whose variable list is contained in the
  new pivot element's list is deleted);
* the AMD external-degree approximation
  ``d_i = |A_i| + |L_p \\ i| + Σ_e |L_e \\ L_p|``.

There are no supervariables: every variable is eliminated on its own, with
weight 1. (A test for indistinguishable variables among ``L_p`` after the
update can never succeed — each has just lost the others from its
adjacency — so it would only cost time.)

Set-based rather than array-based, so it is O(n · deg²)-ish — fine at the
matrix sizes a pure-Python factorization handles, and algorithmically
faithful where it matters (ordering quality).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.util.errors import OrderingError


def amd_order(g: AdjacencyGraph, aggressive: bool = True) -> np.ndarray:
    """AMD permutation: ``perm[k]`` = original vertex eliminated at step k.

    Parameters
    ----------
    aggressive
        Enable aggressive element absorption (standard AMD behaviour).
    """
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int64)

    xadj = g.xadj.tolist()
    adjncy = g.adjncy.tolist()
    adj: list[set[int]] = [set(adjncy[xadj[i]:xadj[i + 1]]) for i in range(n)]
    elems: list[set[int]] = [set() for _ in range(n)]
    elem_vars: dict[int, set[int]] = {}  # element id (its pivot) -> L_e
    alive = [True] * n
    degree = [len(a) for a in adj]
    heap: list[tuple[int, int]] = []
    for i in range(n):
        heapq.heappush(heap, (degree[i], i))

    order: list[int] = []
    for _ in range(n):
        # Lazy-deletion pop: entry must be alive and degree current.
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and degree[p] == d:
                break

        # Pivot element's variable list. An eliminated variable is in no
        # adjacency and no element list, so every member is alive.
        lp = set(adj[p])
        for e in elems[p]:
            lp |= elem_vars[e]
        lp.discard(p)

        order.append(p)
        alive[p] = False

        absorbed_parents = list(elems[p])
        elems[p] = set()
        for e in absorbed_parents:
            # Element e is absorbed into the new element p.
            for v in elem_vars[e]:
                elems[v].discard(e)
            del elem_vars[e]
        adj[p] = set()

        elem_vars[p] = lp

        # Update each variable adjacent to the new element.
        touched = []
        for i in lp:
            adj[i] -= lp
            adj[i].discard(p)
            elems[i].add(p)
            touched.append(i)

        if aggressive:
            # Absorb any other element of a touched variable whose list is
            # now contained in lp.
            seen_elems: set[int] = set()
            for i in touched:
                for e in list(elems[i]):
                    if e == p or e in seen_elems:
                        continue
                    seen_elems.add(e)
                    if elem_vars[e] <= lp:
                        for v in elem_vars[e]:
                            elems[v].discard(e)
                        del elem_vars[e]

        # Recompute approximate degrees of the updated variables.
        # |L_e \ L_p| is |L_e| less the L_p variables that list e, so one
        # pass over their element lists gives it for every e.
        outside: dict[int, int] = {}
        for i in lp:
            for e in elems[i]:
                if e != p:
                    size = outside.get(e)
                    outside[e] = (len(elem_vars[e]) if size is None else size) - 1
        for i in lp:
            d = len(adj[i]) + len(lp) - 1
            for e in elems[i]:
                if e != p:
                    d += outside[e]
            degree[i] = d
            heapq.heappush(heap, (d, i))

    perm = np.asarray(order, dtype=np.int64)
    if perm.size != n:
        raise OrderingError(f"AMD ordered {perm.size} of {n} vertices")
    return perm
