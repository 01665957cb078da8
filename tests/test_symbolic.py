"""Tests for repro.symbolic: etree, postorder, patterns, supernodes, analyze."""

import hashlib
import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro.core import SparseSolver
from repro.gen import grid2d_9pt, grid2d_laplacian, grid3d_laplacian, random_spd_sparse
from repro.graph import AdjacencyGraph
from repro.ordering import amd_order, nested_dissection_order
from repro.sparse import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower, matvec_csc
from repro.sparse.permute import permute_symmetric_lower
from repro.symbolic import (
    etree,
    postorder,
    is_postordered,
    children_lists,
    column_patterns,
    symbolic_cholesky,
    fundamental_supernodes,
    amalgamate,
    analyze,
    AnalyzeOptions,
)
from repro.symbolic.postorder import relabel_parent
from repro.symbolic.analyze import dense_partial_factor_flops
from repro.symbolic.supernodes import supernode_rows, trapezoid_entries
from repro.util.errors import InvariantError, ShapeError

# the module: the package re-exports the function under the same name
analyze_module = importlib.import_module("repro.symbolic.analyze")


def arrow_lower(n):
    """Arrowhead matrix: dense last row, diagonal elsewhere."""
    d = np.eye(n) * 10.0
    d[n - 1, :] = 1.0
    d[n - 1, n - 1] = 10.0 * n
    return CSCMatrix.from_dense(np.tril(d))


class TestEtree:
    def test_diagonal_matrix_forest(self):
        lower = CSCMatrix.from_dense(np.eye(4))
        parent = etree(lower)
        np.testing.assert_array_equal(parent, [-1, -1, -1, -1])

    def test_tridiagonal_chain(self):
        d = np.eye(5) * 4 + np.diag(-np.ones(4), -1) + np.diag(-np.ones(4), 1)
        lower = CSCMatrix.from_dense(np.tril(d))
        parent = etree(lower)
        np.testing.assert_array_equal(parent, [1, 2, 3, 4, -1])

    def test_arrowhead(self):
        parent = etree(arrow_lower(5))
        np.testing.assert_array_equal(parent, [4, 4, 4, 4, -1])

    def test_dense_matrix_chain(self):
        n = 4
        d = np.ones((n, n)) + n * np.eye(n)
        parent = etree(CSCMatrix.from_dense(np.tril(d)))
        np.testing.assert_array_equal(parent, [1, 2, 3, -1])

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            etree(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_parent_is_min_offdiag_row_of_l(self):
        """Cross-check against the definition via dense Cholesky structure."""
        lower = grid2d_laplacian(4)
        parent = etree(lower)
        full = full_symmetric_from_lower(lower).to_dense()
        chol = scipy.linalg.cholesky(full, lower=True)
        chol[np.abs(chol) < 1e-12] = 0.0
        n = lower.shape[0]
        for j in range(n):
            below = np.flatnonzero(chol[:, j])
            below = below[below > j]
            expected = below[0] if below.size else -1
            assert parent[j] == expected


class TestPostorder:
    def test_postorder_chain(self):
        parent = np.array([1, 2, 3, -1], dtype=np.int64)
        np.testing.assert_array_equal(postorder(parent), [0, 1, 2, 3])

    def test_postorder_visits_children_first(self):
        parent = np.array([4, 4, 4, 4, -1], dtype=np.int64)
        post = postorder(parent)
        assert post[-1] == 4

    def test_relabel_is_postordered(self):
        parent = np.array([4, 0, 4, 2, -1, 4], dtype=np.int64)
        post = postorder(parent)
        new_parent = relabel_parent(parent, post)
        assert is_postordered(new_parent)

    def test_forest_postorder(self):
        parent = np.array([-1, 0, -1, 2], dtype=np.int64)
        post = postorder(parent)
        assert sorted(post.tolist()) == [0, 1, 2, 3]
        new_parent = relabel_parent(parent, post)
        assert is_postordered(new_parent)

    def test_cyclic_parent_raises_typed_error(self):
        # A typed error, not an assert: under `python -O` the cycle used to
        # return uninitialised memory as a permutation.
        with pytest.raises(InvariantError, match="cycle"):
            postorder(np.array([1, 0]))

    def test_is_postordered_detects_violation(self):
        assert not is_postordered(np.array([-1, 0], dtype=np.int64))
        assert is_postordered(np.array([1, -1], dtype=np.int64))

    def test_children_lists(self):
        ch = children_lists(np.array([2, 2, -1], dtype=np.int64))
        assert ch == [[], [], [0, 1]]


class TestColumnPatterns:
    def test_requires_postorder(self):
        lower = CSCMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            column_patterns(lower, np.array([-1, 0, -1], dtype=np.int64))

    def test_matches_dense_cholesky_structure(self):
        lower = grid2d_laplacian(5)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        perm = amd_order(g)
        sym = analyze(lower, perm, AnalyzeOptions(amalgamate=False))
        full = full_symmetric_from_lower(sym.permuted_lower).to_dense()
        chol = scipy.linalg.cholesky(full, lower=True)
        chol[np.abs(chol) < 1e-12] = 0.0
        patterns, _, _ = symbolic_cholesky(sym.permuted_lower, sym.parent)
        for j in range(lower.shape[0]):
            dense_rows = np.flatnonzero(chol[:, j])
            np.testing.assert_array_equal(patterns[j], dense_rows)

    def test_counts_sum(self):
        lower = grid2d_laplacian(4)
        parent = etree(lower)
        post = postorder(parent)
        a2 = permute_symmetric_lower(lower, post)
        p2 = relabel_parent(parent, post)
        patterns, counts, nnz = symbolic_cholesky(a2, p2)
        assert nnz == sum(p.size for p in patterns)
        assert np.all(counts >= 1)


class TestSupernodes:
    def test_dense_matrix_single_supernode(self):
        n = 5
        d = np.ones((n, n)) + n * np.eye(n)
        lower = CSCMatrix.from_dense(np.tril(d))
        parent = etree(lower)
        patterns, counts, _ = symbolic_cholesky(lower, parent)
        part = fundamental_supernodes(parent, counts)
        assert part.n_supernodes == 1
        assert part.width(0) == n

    def test_diagonal_matrix_all_singletons(self):
        lower = CSCMatrix.from_dense(np.eye(4) * 2)
        parent = etree(lower)
        _, counts, _ = symbolic_cholesky(lower, parent)
        part = fundamental_supernodes(parent, counts)
        assert part.n_supernodes == 4

    def test_col_to_sn_consistent(self):
        lower = grid2d_laplacian(5)
        sym = analyze(
            lower,
            nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower)),
        )
        part = sym.partition
        for s in range(part.n_supernodes):
            for c in part.columns(s):
                assert part.col_to_sn[c] == s

    def test_supernode_rows_prefix_is_own_columns(self):
        lower = grid3d_laplacian(4)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        for s in range(sym.n_supernodes):
            w = sym.supernode_width(s)
            np.testing.assert_array_equal(
                sym.sn_rows[s][:w], sym.partition.columns(s)
            )

    def test_amalgamation_reduces_supernode_count(self):
        lower = grid3d_laplacian(5)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        perm = nested_dissection_order(g)
        plain = analyze(lower, perm, AnalyzeOptions(amalgamate=False))
        merged = analyze(lower, perm, AnalyzeOptions(amalgamate=True))
        assert merged.n_supernodes <= plain.n_supernodes
        assert merged.nnz_stored >= plain.nnz_factor

    def test_amalgamate_returns_the_rows_of_its_partition(self):
        lower = grid3d_laplacian(5)
        perm = nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower))
        plain = analyze(lower, perm, AnalyzeOptions(amalgamate=False))
        patterns, _, _ = symbolic_cholesky(plain.permuted_lower, plain.parent)
        part, rows = amalgamate(plain.partition, plain.parent, patterns)
        assert part.n_supernodes < plain.n_supernodes
        expected = supernode_rows(part, patterns)
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_amalgamation_bounded_overhead(self):
        lower = grid3d_laplacian(5)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        perm = nested_dissection_order(g)
        merged = analyze(lower, perm, AnalyzeOptions(amalgamate=True))
        assert merged.nnz_stored <= 2.0 * merged.nnz_factor


#: sha256 of grid2d_9pt(24)'s ``sn_start`` (int64 little-endian) before
#: near-exact merges were admitted: the 9-point plate has no such merge, so
#: its partition must not move.
PLATE24_SN_START_SHA256 = "192de99a5977b01af86c484b2be502091a3a1940837f18b8d32af01e6bae0ddb"


@pytest.mark.parametrize("method", ["cholesky", "ldlt"])
def test_no_near_exact_merge_left(method):
    """After amalgamation no contiguous child-parent pair is left whose
    merge fits the fill budget and adds at most 1 % of the merged node's
    entries as explicit zeros."""
    a = grid3d_laplacian(12)
    solver = SparseSolver(a, method=method)
    solver.analyze()
    sym = solver.sym
    opts = AnalyzeOptions()
    starts = sym.partition.sn_start
    struct = np.add.reduceat(sym.col_counts, starts[:-1])
    for c in range(sym.n_supernodes - 1):
        p = c + 1
        if sym.sn_parent[c] != p:
            continue
        c_width, p_width = sym.supernode_width(c), sym.supernode_width(p)
        c_m, p_m = sym.front_size(c), sym.front_size(p)
        new_entries = trapezoid_entries(c_width + p_m, c_width + p_width)
        extra = new_entries - trapezoid_entries(c_m, c_width) - trapezoid_entries(p_m, p_width)
        fits = new_entries <= (1.0 + opts.max_extra_fill_ratio) * (struct[c] + struct[p])
        assert not (fits and 100 * extra <= new_entries), (c, p, extra, new_entries)
    assert sym.nnz_stored <= 1.25 * sym.nnz_factor
    # The explicit zeros factor and solve like any other entry.
    b = np.ones(a.shape[0])
    x = solver.solve(b, refine=False).x
    r = matvec_csc(full_symmetric_from_lower(a), x) - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    plate = SparseSolver(grid2d_9pt(24), method=method)
    plate.analyze()
    sn_start = np.ascontiguousarray(plate.sym.partition.sn_start, dtype="<i8")
    assert hashlib.sha256(sn_start.tobytes()).hexdigest() == PLATE24_SN_START_SHA256


class TestAnalyze:
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_extra_fill_ratio": -1.0},
            {"max_extra_fill_ratio": float("nan")},
            {"max_extra_fill_ratio": float("inf")},
            {"small_width": -1},
        ],
    )
    def test_bad_options_rejected(self, bad):
        # A negative or NaN ratio used to turn off every merge, exact ones
        # included: 48 supernodes instead of 9 on cube 4^3 in natural order.
        with pytest.raises(ShapeError):
            AnalyzeOptions(**bad)

    def test_boundary_options_accepted(self):
        lower = grid3d_laplacian(4)
        n = lower.shape[0]
        opts = AnalyzeOptions(max_extra_fill_ratio=0.0, small_width=0)
        tight = analyze(lower, np.arange(n), opts)
        assert tight.nnz_stored == tight.nnz_factor
        assert analyze(lower, np.arange(n)).n_supernodes == 9

    def test_unpostordered_tree_is_invariant_error(self, monkeypatch):
        lower = grid2d_laplacian(3)
        n = lower.shape[0]
        # every non-root column's parent below it
        bad = np.r_[-1, np.zeros(n - 1, dtype=np.int64)]
        monkeypatch.setattr(analyze_module, "relabel_parent", lambda parent, post: bad)
        with pytest.raises(InvariantError):
            analyze(lower, np.arange(n))

    @pytest.mark.parametrize("nx", [3, 5])
    def test_basic_invariants(self, nx):
        lower = grid2d_laplacian(nx)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, amd_order(g))
        n = lower.shape[0]
        assert sym.n == n
        assert is_postordered(sym.parent)
        # Supernode columns partition [0, n).
        cols = np.concatenate(
            [sym.partition.columns(s) for s in range(sym.n_supernodes)]
        )
        np.testing.assert_array_equal(np.sort(cols), np.arange(n))
        # Assembly-tree parents come after children.
        for s in range(sym.n_supernodes):
            p = int(sym.sn_parent[s])
            if p >= 0:
                assert p > s

    def test_update_rows_in_parent(self):
        lower = grid3d_laplacian(4)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        for s in range(sym.n_supernodes):
            p = int(sym.sn_parent[s])
            if p < 0:
                continue
            w = sym.supernode_width(s)
            update = sym.sn_rows[s][w:]
            assert np.all(np.isin(update, sym.sn_rows[p]))

    def test_flops_monotone_in_problem_size(self):
        g4 = grid2d_laplacian(4)
        g6 = grid2d_laplacian(6)
        s4 = analyze(g4, amd_order(AdjacencyGraph.from_symmetric_lower(g4)))
        s6 = analyze(g6, amd_order(AdjacencyGraph.from_symmetric_lower(g6)))
        assert s6.factor_flops > s4.factor_flops
        assert s6.solve_flops > s4.solve_flops

    def test_supernode_flops_total_at_least_column_flops(self):
        lower = grid3d_laplacian(4)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        sn_total = sum(sym.supernode_flops(s) for s in range(sym.n_supernodes))
        assert sn_total >= sym.factor_flops  # amalgamation only adds work

    def test_dense_partial_factor_flops_full_elimination(self):
        # Eliminating all m pivots of an m×m front = dense Cholesky ≈ m³/3
        m = 30
        f = dense_partial_factor_flops(m, m)
        assert abs(f - m**3 / 3) / (m**3 / 3) < 0.15

    def test_perm_roundtrip(self):
        lower = grid2d_laplacian(4)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, amd_order(g))
        np.testing.assert_array_equal(np.sort(sym.perm), np.arange(16))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 3000))
    def test_property_random_spd(self, n, seed):
        lower = random_spd_sparse(n, avg_degree=3, seed=seed)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, amd_order(g))
        assert is_postordered(sym.parent)
        assert sym.nnz_factor >= lower.nnz
        assert sym.nnz_stored >= sym.nnz_factor
        for s in range(sym.n_supernodes):
            w = sym.supernode_width(s)
            np.testing.assert_array_equal(
                sym.sn_rows[s][:w], sym.partition.columns(s)
            )
