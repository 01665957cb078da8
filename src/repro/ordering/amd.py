"""Approximate Minimum Degree ordering on a quotient graph.

Implements the Amestoy–Davis–Duff AMD algorithm's core mechanics in pure
Python:

* quotient-graph representation (variables adjacent to variables and to
  *elements* — cliques left behind by eliminated pivots);
* element absorption (an element whose variable list is contained in the
  new pivot element's list is deleted);
* supervariable merging (indistinguishable variables — identical closed
  adjacency — are eliminated together and weighted);
* the AMD external-degree approximation
  ``d_i = w(A_i) + w(L_p \\ i) + Σ_e w(L_e \\ L_p)``.

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

    adj: list[set[int]] = [set(map(int, g.neighbors(i))) for i in range(n)]
    elems: list[set[int]] = [set() for _ in range(n)]
    elem_vars: dict[int, set[int]] = {}  # element id (its pivot) -> L_e
    weight = [1] * n
    members: list[list[int]] = [[i] for i in range(n)]
    alive = [True] * n
    degree = [0] * n
    heap: list[tuple[int, int]] = []
    for i in range(n):
        degree[i] = len(adj[i])  # all weights 1 initially
        heapq.heappush(heap, (degree[i], i))

    order: list[int] = []

    def wsum(s: set[int]) -> int:
        return sum(weight[v] for v in s)

    remaining = n
    while remaining > 0:
        # Lazy-deletion pop: entry must be alive and degree current.
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and degree[p] == d:
                break

        # Pivot element's variable list.
        lp = set(adj[p])
        for e in elems[p]:
            lp |= elem_vars[e]
        lp.discard(p)
        lp = {v for v in lp if alive[v]}

        order.extend(members[p])
        alive[p] = False
        remaining -= 1

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

        # Supervariable detection among the updated variables: merge
        # variables with identical closed quotient-adjacency.
        sig: dict[tuple, int] = {}
        for i in list(lp):
            if not alive[i]:
                continue
            key = (
                frozenset(adj[i] | {i}),
                frozenset(elems[i]),
            )
            j = sig.get(key)
            if j is None:
                sig[key] = i
            else:
                # Merge i into j.
                weight[j] += weight[i]
                members[j].extend(members[i])
                members[i] = []
                alive[i] = False
                remaining -= 1
                lp.discard(i)
                for u in adj[i]:
                    adj[u].discard(i)
                for e in elems[i]:
                    elem_vars[e].discard(i)
                adj[i] = set()
                elems[i] = set()

        # Recompute approximate degrees of surviving updated variables.
        for i in lp:
            d = wsum(adj[i]) + wsum(lp) - weight[i]
            for e in elems[i]:
                if e == p:
                    continue
                d += wsum(elem_vars[e] - lp)
            degree[i] = d
            heapq.heappush(heap, (d, i))

    perm = np.asarray(order, dtype=np.int64)
    if perm.size != n:
        raise OrderingError(f"AMD ordered {perm.size} of {n} vertices")
    return perm
