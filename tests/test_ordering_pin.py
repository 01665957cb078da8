"""The graph layer's orderings against the loops kept here, bit for bit.

``ref_fm_pass``, ``ref_bfs_levels``, ``ref_subgraph`` and
``ref_vertex_separator`` are the plainest forms of FM refinement, BFS,
induced subgraphs and the separator cover: every FM move rescans all
vertices for the highest gain (lowest index on ties), BFS visits one vertex
at a time, each subgraph row is sorted on its own, and each separator
vertex is the ``argmax`` of the uncovered cut-edge counts, which are
recounted by rescanning every cut edge. The library's versions may be organised any way they
like, but every move they make — and so every side, level array, subgraph
and permutation — must equal these. Orderings feed everything downstream
(symbolic structure, factor bits, the simulated tables), so "equal" means
``array_equal`` with the same dtype, never "as good".
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.bisection
import repro.graph.traversal
import repro.ordering.nested_dissection
from repro.gen import grid2d_9pt, grid3d_laplacian, random_spd_sparse
from repro.graph import AdjacencyGraph, bfs_levels
from repro.graph.bisection import _fm_pass, bisect
from repro.graph.separators import vertex_separator_from_bisection
from repro.ordering import NDOptions, get_ordering, nested_dissection_order


# --------------------------------------------------------------------------
# Reference loops
# --------------------------------------------------------------------------


def ref_bfs_levels(g, start):
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                v = int(v)
                if levels[v] < 0:
                    levels[v] = depth
                    nxt.append(v)
        frontier = nxt
    return levels


def ref_subgraph(g, vertices):
    vmap = np.ascontiguousarray(vertices, dtype=np.int64)
    inv = np.full(g.n, -1, dtype=np.int64)
    inv[vmap] = np.arange(vmap.size, dtype=np.int64)
    xadj = [0]
    adjncy = []
    for k in range(vmap.size):
        local = inv[g.neighbors(vmap[k])]
        local = local[local >= 0]
        adjncy.append(np.sort(local))
        xadj.append(xadj[-1] + local.size)
    adj = np.concatenate(adjncy) if adjncy else np.empty(0, dtype=np.int64)
    sub = AdjacencyGraph(vmap.size, np.asarray(xadj, dtype=np.int64), adj, _skip_check=True)
    return sub, vmap


def ref_fm_pass(g, side, max_part):
    n = g.n
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    ext = np.zeros(n, dtype=np.int64)
    np.add.at(ext, src, (side[src] != side[g.adjncy]).astype(np.int64))
    gains = 2 * ext - deg
    locked = np.zeros(n, dtype=bool)
    part1_size = int(side.sum())
    sizes = [n - part1_size, part1_size]
    moves = []
    cum_gain = best_gain = best_prefix = 0
    for _ in range(n):
        room_in_1 = sizes[1] < max_part
        room_in_0 = sizes[0] < max_part
        cand = np.flatnonzero(~locked & np.where(side, room_in_0, room_in_1))
        if cand.size == 0:
            break
        v = int(cand[np.argmax(gains[cand])])
        g_v = int(gains[v])
        if g_v < 0 and cum_gain + g_v <= best_gain - n:
            break
        s = int(side[v])
        sizes[s] -= 1
        sizes[1 - s] += 1
        side[v] = not side[v]
        locked[v] = True
        moves.append(v)
        cum_gain += g_v
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = len(moves)
        gains[v] = -g_v
        for u in g.neighbors(v):
            u = int(u)
            gains[u] += 2 if side[u] != side[v] else -2
    for v in moves[best_prefix:]:
        side[v] = not side[v]
    return best_gain > 0


def ref_vertex_separator(g, side):
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    cut = (side[src] != side[g.adjncy]) & (src < g.adjncy)
    cu, cv = src[cut], g.adjncy[cut]
    in_sep = np.zeros(g.n, dtype=bool)
    alive = np.ones(cu.size, dtype=bool)
    counts = np.zeros(g.n, dtype=np.int64)
    np.add.at(counts, cu, 1)
    np.add.at(counts, cv, 1)
    while alive.any():
        v = int(np.argmax(counts))
        in_sep[v] = True
        hit = alive & ((cu == v) | (cv == v))
        np.subtract.at(counts, cu[hit], 1)
        np.subtract.at(counts, cv[hit], 1)
        alive &= ~hit
        counts[v] = 0
    verts = np.arange(g.n, dtype=np.int64)
    return verts[~in_sep & ~side], verts[~in_sep & side], verts[in_sep]


@contextlib.contextmanager
def reference_graph_layer():
    """Run the library with the reference loops in place of its own."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (repro.graph.traversal, repro.graph.bisection):
            mp.setattr(module, "bfs_levels", ref_bfs_levels)
        mp.setattr(repro.graph.bisection, "_fm_pass", ref_fm_pass)
        mp.setattr(
            repro.ordering.nested_dissection, "vertex_separator_from_bisection", ref_vertex_separator
        )
        mp.setattr(AdjacencyGraph, "subgraph", ref_subgraph)
        yield


def assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------
# Graphs
# --------------------------------------------------------------------------

MATRICES = {
    "plate9pt_20": lambda: grid2d_9pt(20),
    "cube9": lambda: grid3d_laplacian(9),
    "random400": lambda: random_spd_sparse(400, avg_degree=5, seed=4),
}
ORDERINGS = ["nd", "nd-c", "rcm"]


def matrix_graph(name):
    return AdjacencyGraph.from_symmetric_lower(MATRICES[name]())


def _random_edges(draw, n, offset=0):
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, 1)
    keep = rng.random(a.size) < p
    return a[keep] + offset, b[keep] + offset


@st.composite
def graphs(draw, max_n=40):
    """Random, disconnected, tiny, star and complete graphs: the shapes
    where gains tie most and components are unreachable from the start."""
    kind = draw(st.sampled_from(["random", "disconnected", "tiny", "star", "complete", "path"]))
    if kind == "tiny":
        n = draw(st.sampled_from([2, 3]))
        a, b = _random_edges(draw, n)
    elif kind == "star":
        n = draw(st.integers(2, max_n))
        a, b = np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    elif kind == "complete":
        n = draw(st.integers(2, 16))
        a, b = np.triu_indices(n, 1)
    elif kind == "path":
        n = draw(st.integers(2, max_n))
        a, b = np.arange(n - 1), np.arange(1, n)
    elif kind == "disconnected":
        n0 = draw(st.integers(1, max_n // 2))
        n1 = draw(st.integers(1, max_n // 2))
        a0, b0 = _random_edges(draw, n0)
        a1, b1 = _random_edges(draw, n1, offset=n0)
        n, a, b = n0 + n1, np.concatenate([a0, a1]), np.concatenate([b0, b1])
    else:
        n = draw(st.integers(2, max_n))
        a, b = _random_edges(draw, n)
    # Relabel so that components and hubs are not always the low indices.
    relabel = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(n)
    return AdjacencyGraph.from_edges(n, relabel[a], relabel[b])


BALANCES = st.sampled_from([0.51, 0.55, 0.6, 0.75, 1.0])


# --------------------------------------------------------------------------
# Fixed matrices
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("balance", [0.55, 1.0])
def test_bisect_matches_reference(name, balance):
    g = matrix_graph(name)
    got = bisect(g, balance=balance)
    with reference_graph_layer():
        want = bisect(g, balance=balance)
    assert_same(got, want)


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_ordering_matches_reference(name, ordering):
    g = matrix_graph(name)
    got = get_ordering(ordering)(g)
    with reference_graph_layer():
        want = get_ordering(ordering)(g)
    assert_same(got, want)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_bfs_and_subgraph_match_reference(name):
    g = matrix_graph(name)
    for start in (0, g.n // 2, g.n - 1):
        assert_same(bfs_levels(g, start), ref_bfs_levels(g, start))
    verts = np.random.default_rng(1).permutation(g.n)[: g.n // 3]
    for vs in (np.sort(verts), verts):
        sub, vmap = g.subgraph(vs)
        ref, ref_vmap = ref_subgraph(g, vs)
        assert sub.n == ref.n
        assert_same(vmap, ref_vmap)
        assert_same(sub.xadj, ref.xadj)
        assert_same(sub.adjncy, ref.adjncy)


# --------------------------------------------------------------------------
# Hypothesis
# --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_fm_pass_matches_reference(g, data):
    side = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    max_part = data.draw(st.integers((g.n + 1) // 2, g.n))
    got_side, want_side = side.copy(), side.copy()
    got = _fm_pass(g, got_side, max_part)
    want = ref_fm_pass(g, want_side, max_part)
    assert got == want
    assert_same(got_side, want_side)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_vertex_separator_matches_reference(g, data):
    side = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    got = vertex_separator_from_bisection(g, side)
    want = ref_vertex_separator(g, side)
    for a, b in zip(got, want):
        assert_same(a, b)


@settings(max_examples=100, deadline=None)
@given(graphs(), BALANCES, st.integers(1, 4))
def test_bisect_matches_reference_property(g, balance, passes):
    got = bisect(g, balance=balance, refine_passes=passes)
    with reference_graph_layer():
        want = bisect(g, balance=balance, refine_passes=passes)
    assert_same(got, want)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=60), BALANCES)
def test_nested_dissection_matches_reference_property(g, balance):
    # Small leaves so that the recursion
    # and the separator subgraphs all run on graphs this size.
    opts = NDOptions(leaf_size=4, balance=balance)
    got = nested_dissection_order(g, opts)
    with reference_graph_layer():
        want = nested_dissection_order(g, opts)
    assert_same(got, want)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=60), st.sampled_from(ORDERINGS))
def test_registry_orderings_match_reference_property(g, ordering):
    got = get_ordering(ordering)(g)
    with reference_graph_layer():
        want = get_ordering(ordering)(g)
    assert_same(got, want)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_bfs_and_subgraph_match_reference_property(g, data):
    start = data.draw(st.integers(0, g.n - 1))
    assert_same(bfs_levels(g, start), ref_bfs_levels(g, start))
    verts = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
    sub, vmap = g.subgraph(np.asarray(verts, dtype=np.int64))
    ref, ref_vmap = ref_subgraph(g, np.asarray(verts, dtype=np.int64))
    assert sub.n == ref.n
    assert_same(vmap, ref_vmap)
    assert_same(sub.xadj, ref.xadj)
    assert_same(sub.adjncy, ref.adjncy)
