"""The symbolic layer and AMD against the loops kept here, bit for bit.

``ref_etree``, ``ref_column_patterns``, ``ref_supernode_rows``,
``ref_amalgamate`` and ``ref_amd_order`` are the plainest forms of the
analysis: the elimination tree walks numpy arrays one element at a time,
every column pattern and every supernode's rows are one ``np.unique`` of
their pieces, every amalgamation candidate is re-judged on every pass, and
AMD sums weights one variable at a time. ``ref_children_lists``,
``ref_postorder``, ``ref_is_postordered`` and ``ref_relabel_parent`` are
the per-node postorder loops. The library's versions may be organised any
way they like, but everything they give — parents, patterns, column
counts, supernode starts and rows, the front plan's tables and AMD
permutations — must equal these: ``array_equal`` with the same dtype,
never "as good".
"""

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ordering.nested_dissection as nd_module
import repro.ordering.registry as registry_module
import repro.symbolic.symbolic_chol as symbolic_chol_module
from repro.gen import (
    convection_diffusion2d,
    elasticity3d,
    grid2d_9pt,
    grid3d_laplacian,
    random_spd_sparse,
)
from repro.graph import AdjacencyGraph
from repro.mf.lu import lu_analyze
from repro.ordering import NDOptions, amd_order, get_ordering, nested_dissection_order
from repro.sparse import CSCMatrix, csc_to_coo
from repro.sparse.convert import transpose
from repro.sparse.ops import full_symmetric_from_lower
from repro.symbolic import AnalyzeOptions, analyze, column_patterns, etree, fundamental_supernodes
from repro.symbolic.postorder import (
    children_lists,
    is_postordered,
    postorder,
    relabel_parent,
)
from repro.symbolic.supernodes import amalgamate, partition_from_starts, supernode_rows
from repro.symbolic.supernodes import trapezoid_entries
from repro.util.errors import InvariantError, ShapeError

# the module: the package re-exports the function under the same name
analyze_module = importlib.import_module("repro.symbolic.analyze")


# --------------------------------------------------------------------------
# Reference loops
# --------------------------------------------------------------------------


def ref_etree(lower):
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("etree requires a square lower triangle")
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    csr = transpose(lower)
    for j in range(n):
        s, e = csr.indptr[j], csr.indptr[j + 1]
        for i in csr.indices[s:e]:
            i = int(i)
            if i >= j:
                continue
            r = i
            while ancestor[r] != -1 and ancestor[r] != j:
                nxt = ancestor[r]
                ancestor[r] = j
                r = nxt
            if ancestor[r] == -1:
                ancestor[r] = j
                parent[r] = j
    return parent


def ref_children_lists(parent):
    n = parent.size
    ch = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            ch[p].append(j)
    return ch


def ref_postorder(parent):
    n = parent.size
    ch = ref_children_lists(parent)
    post = np.empty(n, dtype=np.int64)
    k = 0
    roots = [j for j in range(n) if parent[j] < 0]
    for root in roots:
        stack = [[root, 0]]
        while stack:
            node, cursor = stack[-1]
            if cursor < len(ch[node]):
                stack[-1][1] += 1
                stack.append([ch[node][cursor], 0])
            else:
                stack.pop()
                post[k] = node
                k += 1
    if k != n:
        raise InvariantError(f"parent array contains a cycle: {n - k} node(s) reach no root")
    return post


def ref_is_postordered(parent):
    for j in range(parent.size):
        p = int(parent[j])
        if 0 <= p <= j:
            return False
    return True


def ref_relabel_parent(parent, post):
    n = parent.size
    inv = np.empty(n, dtype=np.int64)
    inv[post] = np.arange(n, dtype=np.int64)
    new_parent = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        p = int(parent[post[k]])
        new_parent[k] = -1 if p < 0 else inv[p]
    return new_parent


def ref_column_patterns(lower, parent):
    n = lower.shape[0]
    if parent.size != n:
        raise ShapeError("parent array length must equal matrix dimension")
    if not ref_is_postordered(parent):
        raise ShapeError("column_patterns requires a postordered matrix")
    ch = ref_children_lists(parent)
    patterns = [None] * n
    for j in range(n):
        rows_a, _ = lower.col(j)
        pieces = [rows_a[rows_a >= j]]
        if not pieces[0].size or pieces[0][0] != j:
            pieces.insert(0, np.array([j], dtype=np.int64))
        for c in ch[j]:
            pc = patterns[c]
            pieces.append(pc[pc > j])
        patterns[j] = np.unique(np.concatenate(pieces))
    return patterns


def ref_supernode_rows(part, patterns):
    out = []
    for s in range(part.n_supernodes):
        c0, c1 = int(part.sn_start[s]), int(part.sn_start[s + 1])
        pieces = [np.arange(c0, c1, dtype=np.int64)]
        pieces.extend(patterns[j] for j in range(c0, c1))
        out.append(np.unique(np.concatenate(pieces)))
    return out


def ref_amalgamate(part, parent, patterns, max_extra_fill_ratio=0.25, small_width=8):
    n = parent.size
    if n == 0:
        return part, []
    sn_rows = ref_supernode_rows(part, patterns)
    starts = list(int(s) for s in part.sn_start[:-1])
    rows_by_start = {s: r for s, r in zip(starts, sn_rows)}
    widths = {int(part.sn_start[i]): part.width(i) for i in range(part.n_supernodes)}
    col_counts = np.asarray([p.size for p in patterns], dtype=np.int64)
    struct = {
        int(part.sn_start[i]): int(col_counts[part.sn_start[i]: part.sn_start[i + 1]].sum())
        for i in range(part.n_supernodes)
    }
    merged = True
    while merged:
        merged = False
        i = 1
        while i < len(starts):
            c_start = starts[i - 1]
            p_start = starts[i]
            c_width = widths[c_start]
            p_width = widths[p_start]
            c_rows = rows_by_start[c_start]
            p_rows = rows_by_start[p_start]
            c_update = c_rows[c_rows >= p_start]
            if c_update.size == 0 or c_update[0] >= p_start + p_width:
                i += 1
                continue
            new_width = c_width + p_width
            new_rows = np.unique(
                np.concatenate([np.arange(c_start, p_start, dtype=np.int64), c_rows, p_rows])
            )
            old_entries = trapezoid_entries(c_rows.size, c_width) + trapezoid_entries(
                p_rows.size, p_width
            )
            new_entries = trapezoid_entries(new_rows.size, new_width)
            extra = new_entries - old_entries
            struct_merged = struct[c_start] + struct[p_start]
            candidate = c_width <= small_width or 100 * extra <= new_entries
            within_budget = new_entries <= (1.0 + max_extra_fill_ratio) * struct_merged
            if candidate and within_budget:
                del starts[i]
                widths.pop(p_start)
                widths[c_start] = new_width
                rows_by_start.pop(p_start)
                rows_by_start[c_start] = new_rows
                struct[c_start] = struct_merged
                struct.pop(p_start)
                merged = True
            else:
                i += 1
    return partition_from_starts(starts, n), [rows_by_start[s] for s in starts]


def ref_amd_order(g, aggressive=True):
    import heapq

    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    adj = [set(map(int, g.neighbors(i))) for i in range(n)]
    elems = [set() for _ in range(n)]
    elem_vars = {}
    weight = [1] * n
    members = [[i] for i in range(n)]
    alive = [True] * n
    degree = [0] * n
    heap = []
    for i in range(n):
        degree[i] = len(adj[i])
        heapq.heappush(heap, (degree[i], i))
    order = []

    def wsum(s):
        return sum(weight[v] for v in s)

    remaining = n
    while remaining > 0:
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and degree[p] == d:
                break
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
            for v in elem_vars[e]:
                elems[v].discard(e)
            del elem_vars[e]
        adj[p] = set()
        elem_vars[p] = lp
        touched = []
        for i in lp:
            adj[i] -= lp
            adj[i].discard(p)
            elems[i].add(p)
            touched.append(i)
        if aggressive:
            seen_elems = set()
            for i in touched:
                for e in list(elems[i]):
                    if e == p or e in seen_elems:
                        continue
                    seen_elems.add(e)
                    if elem_vars[e] <= lp:
                        for v in elem_vars[e]:
                            elems[v].discard(e)
                        del elem_vars[e]
        sig = {}
        for i in list(lp):
            if not alive[i]:
                continue
            key = (frozenset(adj[i] | {i}), frozenset(elems[i]))
            j = sig.get(key)
            if j is None:
                sig[key] = i
            else:
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
        for i in lp:
            d = wsum(adj[i]) + wsum(lp) - weight[i]
            for e in elems[i]:
                if e == p:
                    continue
                d += wsum(elem_vars[e] - lp)
            degree[i] = d
            heapq.heappush(heap, (d, i))
    return np.asarray(order, dtype=np.int64)


@contextlib.contextmanager
def reference_symbolic_layer():
    """Run the library with the reference loops in place of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyze_module, "etree", ref_etree)
        mp.setattr(analyze_module, "postorder", ref_postorder)
        mp.setattr(analyze_module, "relabel_parent", ref_relabel_parent)
        mp.setattr(analyze_module, "is_postordered", ref_is_postordered)
        mp.setattr(analyze_module, "amalgamate", ref_amalgamate)
        mp.setattr(analyze_module, "supernode_rows", ref_supernode_rows)
        mp.setattr(symbolic_chol_module, "column_patterns", ref_column_patterns)
        mp.setattr(nd_module, "amd_order", ref_amd_order)
        mp.setitem(registry_module.ORDERINGS, "amd", ref_amd_order)
        yield


def assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_same_list(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a, b)


def assert_same_analysis(got, want):
    """Every array of two analyses, and the L patterns they were built
    from, equal with the same dtype."""
    for name in ("perm", "parent", "col_counts", "sn_parent", "value_gather"):
        assert_same(getattr(got, name), getattr(want, name))
    assert_same(got.partition.sn_start, want.partition.sn_start)
    assert_same(got.partition.col_to_sn, want.partition.col_to_sn)
    assert_same_list(got.sn_rows, want.sn_rows)
    for name in ("nnz_factor", "nnz_stored", "factor_flops", "solve_flops"):
        assert getattr(got, name) == getattr(want, name)
    for a, b in ((got.permuted_lower, want.permuted_lower),):
        assert_same(a.indptr, b.indptr)
        assert_same(a.indices, b.indices)
        assert_same(a.data, b.data)
    gp, wp = got.front_plan, want.front_plan
    assert (gp.start, gp.width, gp.order, gp.a_ptr) == (wp.start, wp.width, wp.order, wp.a_ptr)
    assert_same(gp.a_pos, wp.a_pos)
    assert_same_list(gp.rel, wp.rel)
    assert (gp.full_ptr is None) == (wp.full_ptr is None)
    if wp.full_ptr is not None:
        assert gp.full_ptr == wp.full_ptr
        assert_same(gp.full_src, wp.full_src)
        assert_same(gp.full_pos, wp.full_pos)
    assert_same_list(
        column_patterns(got.permuted_lower, got.parent),
        ref_column_patterns(want.permuted_lower, want.parent),
    )


def analyses(lower, order, opts):
    """``(library, reference)`` analyses of *lower* under the ordering
    function *order*, each computed by its own layer."""
    g = AdjacencyGraph.from_symmetric_lower(lower)
    got = analyze(lower, order(g), opts)
    with reference_symbolic_layer():
        want = analyze(lower, order(g), opts)
    return got, want


# --------------------------------------------------------------------------
# Matrices and graphs
# --------------------------------------------------------------------------

MATRICES = {
    "cube9": lambda: grid3d_laplacian(9),
    "elast4": lambda: elasticity3d(4, seed=2),
    "plate9pt_20": lambda: grid2d_9pt(20),
    "random400": lambda: random_spd_sparse(400, avg_degree=5, seed=4),
}
AMALGAMATION = {
    "amalgamated": AnalyzeOptions(),
    "fundamental": AnalyzeOptions(amalgamate=False),
}


def lower_from_edges(n, a, b, no_diag=()):
    """Diagonally dominant lower triangle with the given off-diagonal
    pattern (``a != b``); the columns in *no_diag* store no diagonal."""
    d = np.eye(n) * (n + 1.0)
    d[np.maximum(a, b), np.minimum(a, b)] = -1.0
    d[no_diag, no_diag] = 0.0
    return CSCMatrix.from_dense(np.tril(d))


def _random_edges(draw, n, offset=0):
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, 1)
    keep = rng.random(a.size) < p
    return a[keep] + offset, b[keep] + offset


def _blocked(a, b, dof):
    """Vertex v becomes ``dof[v]`` indistinguishable ones: a clique per
    vertex, and every copy of a vertex adjacent to every copy of its
    neighbours (the pattern of a multi-dof discretisation, with unequal
    dof so that supervariables of different weights form)."""
    first = np.concatenate([[0], np.cumsum(dof)])
    copies = [np.arange(first[v], first[v + 1]) for v in range(len(dof))]
    pairs = [np.triu_indices(k, 1) for k in dof]
    pa = [copies[v][i] for v, (i, _) in enumerate(pairs)]
    pb = [copies[v][j] for v, (_, j) in enumerate(pairs)]
    for u, v in zip(a.tolist(), b.tolist()):
        cu, cv = np.meshgrid(copies[u], copies[v], indexing="ij")
        pa.append(cu.ravel())
        pb.append(cv.ravel())
    return int(first[-1]), np.concatenate(pa).astype(np.int64), np.concatenate(pb).astype(np.int64)


@st.composite
def edge_sets(draw, max_n=40):
    """``(n, a, b)``: random, disconnected, tiny (n ∈ {1, 2}), edgeless,
    star, complete, path and multi-dof patterns, randomly relabelled."""
    kind = draw(
        st.sampled_from(
            ["random", "disconnected", "tiny", "diagonal", "star", "complete", "path", "blocked"]
        )
    )
    if kind == "blocked":
        n = draw(st.integers(1, max_n // 3))
        dof = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        n, a, b = _blocked(*_random_edges(draw, n), dof)
    elif kind == "tiny":
        n = draw(st.sampled_from([1, 2]))
        a, b = _random_edges(draw, n)
    elif kind == "diagonal":
        n = draw(st.integers(1, max_n))
        a, b = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
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
    relabel = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(n)
    return n, relabel[a], relabel[b]


@st.composite
def orderings(draw):
    """An ordering function: a library ordering or a drawn permutation."""
    name = draw(st.sampled_from(["natural", "rcm", "amd", "nd", "nd-leaf4", "drawn"]))
    if name == "nd-leaf4":
        return lambda g: nested_dissection_order(g, NDOptions(leaf_size=4))
    if name == "drawn":
        seed = draw(st.integers(0, 2**31 - 1))
        return lambda g: np.random.default_rng(seed).permutation(g.n).astype(np.int64)
    return lambda g: get_ordering(name)(g)


ANALYZE_OPTIONS = st.builds(
    AnalyzeOptions,
    amalgamate=st.booleans(),
    max_extra_fill_ratio=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
    small_width=st.sampled_from([0, 1, 8, 64]),
)


# --------------------------------------------------------------------------
# Fixed matrices
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("ordering", ["nd", "amd"])
@pytest.mark.parametrize("amalgamation", sorted(AMALGAMATION))
def test_analysis_matches_reference(name, ordering, amalgamation):
    got, want = analyses(MATRICES[name](), get_ordering(ordering), AMALGAMATION[amalgamation])
    assert_same_analysis(got, want)


@pytest.mark.parametrize("amalgamation", sorted(AMALGAMATION))
def test_lu_analysis_matches_reference(amalgamation):
    a = convection_diffusion2d(9, wind=(1.0, -0.4), peclet=1.5)
    coo = csc_to_coo(a)
    g = AdjacencyGraph.from_edges(a.shape[0], coo.row, coo.col)
    opts = AMALGAMATION[amalgamation]
    got = lu_analyze(a, nested_dissection_order(g), opts)
    with reference_symbolic_layer():
        want = lu_analyze(a, nested_dissection_order(g), opts)
    assert_same_analysis(got, want)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_pieces_match_reference(name):
    """Each piece on its own, on the unpermuted and the ND-permuted matrix:
    etree, the postorder helpers, patterns, supernode rows, amalgamation."""
    lower = MATRICES[name]()
    assert_same(etree(lower), ref_etree(lower))
    sym = analyze(lower, get_ordering("nd")(AdjacencyGraph.from_symmetric_lower(lower)))
    parent = sym.parent
    assert is_postordered(parent) and ref_is_postordered(parent)
    assert_same(etree(sym.permuted_lower), ref_etree(sym.permuted_lower))
    patterns = column_patterns(sym.permuted_lower, parent)
    assert_same_list(patterns, ref_column_patterns(sym.permuted_lower, parent))
    part = fundamental_supernodes(parent, sym.col_counts)
    assert_same_list(supernode_rows(part, patterns), ref_supernode_rows(part, patterns))
    for ratio, small in ((0.25, 8), (0.0, 0), (1.0, 64)):
        got_part, got_rows = amalgamate(part, parent, patterns, ratio, small)
        want_part, want_rows = ref_amalgamate(part, parent, patterns, ratio, small)
        assert_same(got_part.sn_start, want_part.sn_start)
        assert_same_list(got_rows, want_rows)


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("aggressive", [True, False])
def test_amd_matches_reference(name, aggressive):
    g = AdjacencyGraph.from_symmetric_lower(MATRICES[name]())
    assert_same(amd_order(g, aggressive), ref_amd_order(g, aggressive))


# --------------------------------------------------------------------------
# Hypothesis
# --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(edge_sets(), orderings(), ANALYZE_OPTIONS, st.data())
def test_analysis_matches_reference_property(edges, order, opts, data):
    n = edges[0]
    no_diag = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2 + 1))
    lower = lower_from_edges(*edges, no_diag=no_diag)
    assert_same(etree(lower), ref_etree(lower))
    got, want = analyses(lower, order, opts)
    assert_same_analysis(got, want)
    part = fundamental_supernodes(got.parent, got.col_counts)
    patterns = column_patterns(got.permuted_lower, got.parent)
    assert_same_list(supernode_rows(part, patterns), ref_supernode_rows(part, patterns))
    # Both triangles stored: the entries above the diagonal are ignored.
    full = full_symmetric_from_lower(got.permuted_lower)
    assert_same(etree(full), ref_etree(full))
    assert_same_list(column_patterns(full, got.parent), ref_column_patterns(full, got.parent))


@settings(max_examples=150, deadline=None)
@given(edge_sets(max_n=60), st.booleans())
def test_amd_matches_reference_property(edges, aggressive):
    n, a, b = edges
    g = AdjacencyGraph.from_edges(n, a, b)
    assert_same(amd_order(g, aggressive), ref_amd_order(g, aggressive))


@st.composite
def forests(draw, max_n=40):
    """A parent array of a random forest with arbitrary labels (parents
    may be smaller than their children)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    root_share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    parent = np.full(n, -1, dtype=np.int64)
    for k in range(1, n):
        if rng.random() >= root_share:
            parent[k] = rng.integers(0, k)
    label = rng.permutation(n)
    out = np.full(n, -1, dtype=np.int64)
    out[label] = np.where(parent < 0, -1, label[np.maximum(parent, 0)])
    return out


@settings(max_examples=150, deadline=None)
@given(forests())
def test_postorder_helpers_match_reference_property(parent):
    assert children_lists(parent) == ref_children_lists(parent)
    assert is_postordered(parent) == ref_is_postordered(parent)
    post = postorder(parent)
    assert_same(post, ref_postorder(parent))
    relabeled = relabel_parent(parent, post)
    assert_same(relabeled, ref_relabel_parent(parent, post))
    assert is_postordered(relabeled) and ref_is_postordered(relabeled)


@pytest.mark.parametrize("parent", [[1, 2, 0, -1], [0, -1], [-1, 1, 1]])
def test_postorder_rejects_a_cycle_like_the_reference(parent):
    parent = np.array(parent, dtype=np.int64)
    with pytest.raises(InvariantError):
        ref_postorder(parent)
    with pytest.raises(InvariantError):
        postorder(parent)
    assert not is_postordered(parent) and not ref_is_postordered(parent)
