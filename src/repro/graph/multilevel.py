"""Multilevel graph bisection (METIS-style).

Coarsen by heavy-edge matching until the graph is small, bisect the
coarsest graph, then project back level by level with weighted
Fiduccia–Mattheyses refinement at each step. On mesh graphs this finds
separators close to the geometric optimum at a fraction of the flat-FM
cost, which is exactly why the ND codes this paper family depends on are
multilevel.

Coarse graphs carry vertex weights (contracted cluster sizes) and edge
weights (contracted multiplicities); balance is enforced on vertex weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bisection import fm_pass
from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import bfs_levels, pseudo_peripheral_vertex
from repro.util.errors import OrderingError
from repro.util.rng import make_rng


@dataclass
class WeightedGraph:
    """CSR graph with vertex and edge weights (multilevel workhorse)."""

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    @property
    def n(self) -> int:
        return self.vwgt.size

    def neighbors(self, u: int) -> np.ndarray:
        return self.adjncy[self.xadj[u]: self.xadj[u + 1]]

    def edge_weights(self, u: int) -> np.ndarray:
        return self.adjwgt[self.xadj[u]: self.xadj[u + 1]]

    @classmethod
    def from_adjacency(cls, g: AdjacencyGraph) -> "WeightedGraph":
        return cls(
            xadj=g.xadj.copy(),
            adjncy=g.adjncy.copy(),
            adjwgt=np.ones(g.adjncy.size, dtype=np.int64),
            vwgt=np.ones(g.n, dtype=np.int64),
        )


def heavy_edge_matching(g: WeightedGraph, rng) -> np.ndarray:
    """Greedy heavy-edge matching: ``match[u]`` = partner (or u itself).

    Visits vertices in random order; each unmatched vertex takes its
    heaviest unmatched neighbour.
    """
    n = g.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for u in order:
        u = int(u)
        if match[u] >= 0:
            continue
        nbrs = g.neighbors(u)
        wgts = g.edge_weights(u)
        best, best_w = u, -1
        for v, w in zip(nbrs, wgts):
            v = int(v)
            if match[v] < 0 and v != u and w > best_w:
                best, best_w = v, int(w)
        match[u] = best
        match[best] = u
    return match


def contract(g: WeightedGraph, match: np.ndarray) -> tuple[WeightedGraph, np.ndarray]:
    """Contract matched pairs; returns (coarse graph, fine→coarse map)."""
    n = g.n
    cmap = np.full(n, -1, dtype=np.int64)
    nc = 0
    for u in range(n):
        if cmap[u] >= 0:
            continue
        v = int(match[u])
        cmap[u] = nc
        if v != u:
            cmap[v] = nc
        nc += 1
    # Aggregate edges into the coarse numbering.
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    cu = cmap[src]
    cv = cmap[g.adjncy]
    keep = cu != cv  # drop internal (contracted) edges
    cu, cv, cw = cu[keep], cv[keep], g.adjwgt[keep]
    # Sum parallel edges via sorting on (cu, cv).
    key = cu * nc + cv
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    uniq = np.empty(key_s.size, dtype=bool)
    if key_s.size:
        uniq[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=uniq[1:])
    gid = np.cumsum(uniq) - 1 if key_s.size else np.empty(0, dtype=np.int64)
    n_edges = int(gid[-1]) + 1 if key_s.size else 0
    agg_w = np.zeros(n_edges, dtype=np.int64)
    np.add.at(agg_w, gid, cw[order])
    first = order[uniq] if key_s.size else np.empty(0, dtype=np.int64)
    e_u = cu[first]
    e_v = cv[first]
    counts = np.bincount(e_u, minlength=nc)
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    # Entries are already sorted by (e_u, e_v).
    vwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(vwgt, cmap, g.vwgt)
    coarse = WeightedGraph(xadj=xadj, adjncy=e_v, adjwgt=agg_w, vwgt=vwgt)
    return coarse, cmap


def _initial_bisection(g: WeightedGraph, balance: float, rng) -> np.ndarray:
    """BFS-grown weighted bisection of the coarsest graph."""
    n = g.n
    if n == 1:
        return np.zeros(1, dtype=bool)
    plain = AdjacencyGraph(n, g.xadj, g.adjncy, _skip_check=True)
    start = pseudo_peripheral_vertex(plain, int(rng.integers(0, n)))
    levels = bfs_levels(plain, start)
    sort_key = np.where(levels >= 0, levels, np.iinfo(np.int64).max)
    order = np.lexsort((np.arange(n), sort_key))
    total = int(g.vwgt.sum())
    side = np.zeros(n, dtype=bool)
    acc = 0
    for u in order:
        if acc >= total // 2:
            side[u] = True
        else:
            acc += int(g.vwgt[u])
    return side


def _weighted_fm_pass(g: WeightedGraph, side: np.ndarray, max_w: int) -> bool:
    """One weighted FM sweep (edge-weight gains, vertex-weight balance)."""
    return fm_pass(g.xadj, g.adjncy, side, max_w, adjwgt=g.adjwgt, vwgt=g.vwgt)


def bisect_multilevel(
    g: AdjacencyGraph,
    balance: float = 0.55,
    coarsest: int = 40,
    refine_passes: int = 3,
    seed=0,
) -> np.ndarray:
    """Multilevel bisection of *g*; returns the boolean side array
    (same contract as :func:`repro.graph.bisection.bisect`)."""
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    n = g.n
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.zeros(1, dtype=bool)
    rng = make_rng(seed)

    levels: list[tuple[WeightedGraph, np.ndarray]] = []
    wg = WeightedGraph.from_adjacency(g)
    while wg.n > coarsest:
        match = heavy_edge_matching(wg, rng)
        coarse, cmap = contract(wg, match)
        if coarse.n >= wg.n:  # matching stalled (e.g. no edges)
            break
        levels.append((wg, cmap))
        wg = coarse

    total = int(wg.vwgt.sum())
    max_w = max(int(np.floor(balance * total)), total // 2 + total % 2)
    side = _initial_bisection(wg, balance, rng)
    for _ in range(refine_passes):
        if not _weighted_fm_pass(wg, side, max_w):
            break

    # Uncoarsen with refinement at every level.
    for fine, cmap in reversed(levels):
        side = side[cmap]
        ftotal = int(fine.vwgt.sum())
        fmax = max(int(np.floor(balance * ftotal)), ftotal // 2 + ftotal % 2)
        for _ in range(refine_passes):
            if not _weighted_fm_pass(fine, side, fmax):
                break
    return side
