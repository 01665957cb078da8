"""Graph compression for ordering (indistinguishable-vertex collapsing).

Multi-dof discretizations (elasticity: 3 unknowns per mesh vertex) produce
groups of variables with *identical* adjacency structure. Ordering codes in
this family (WSMP, METIS's compressed graphs) collapse each group to one
weighted supervertex, order the compressed graph — 3× smaller for
elasticity — and expand the permutation, keeping group members consecutive
(which also guarantees they land in the same supernode).
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.util.errors import OrderingError


def find_indistinguishable_groups(g: AdjacencyGraph) -> np.ndarray:
    """Group label per vertex: vertices with identical closed neighbourhoods
    (adj(u) ∪ {u}) share a label. Labels are dense, ordered by first member.
    """
    n = g.n
    keys: dict[frozenset, int] = {}
    label = np.empty(n, dtype=np.int64)
    next_label = 0
    for u in range(n):
        key = frozenset(g.neighbors(u).tolist()) | {u}
        got = keys.get(key)
        if got is None:
            keys[key] = next_label
            label[u] = next_label
            next_label += 1
        else:
            label[u] = got
    return label


def compress_graph(
    g: AdjacencyGraph,
) -> tuple[AdjacencyGraph, np.ndarray, list[np.ndarray]]:
    """Collapse indistinguishable vertices.

    Returns ``(compressed, label, members)`` where ``label[u]`` is vertex
    u's supervertex and ``members[s]`` lists the original vertices of
    supervertex s (ascending).
    """
    label = find_indistinguishable_groups(g)
    nc = int(label.max()) + 1 if g.n else 0
    members: list[np.ndarray] = [
        np.flatnonzero(label == s) for s in range(nc)
    ]
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    cu = label[src]
    cv = label[g.adjncy]
    keep = cu != cv
    compressed = AdjacencyGraph.from_edges(nc, cu[keep], cv[keep])
    return compressed, label, members


def compressed_order(g: AdjacencyGraph, ordering_fn) -> np.ndarray:
    """Order *g* by compressing, applying *ordering_fn* to the compressed
    graph, and expanding (group members consecutive).

    Falls back to ordering the original graph when compression finds
    nothing to collapse (no overhead beyond the grouping scan).
    """
    compressed, _label, members = compress_graph(g)
    if compressed.n == g.n:
        return ordering_fn(g)
    cperm = ordering_fn(compressed)
    out = np.empty(g.n, dtype=np.int64)
    pos = 0
    for s in cperm:
        grp = members[int(s)]
        out[pos: pos + grp.size] = grp
        pos += grp.size
    if pos != g.n:
        raise OrderingError(f"compressed ordering expanded to {pos} of {g.n} vertices")
    return out


def compression_ratio(g: AdjacencyGraph) -> float:
    """|V| / |V_compressed| — 1.0 means nothing collapses."""
    label = find_indistinguishable_groups(g)
    nc = int(label.max()) + 1 if g.n else 1
    return g.n / max(nc, 1)
